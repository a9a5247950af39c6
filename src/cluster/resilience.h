// Client-side resilience layer: retries, retry budgets, hedged requests,
// and per-GPU circuit breakers, wired between the workload drivers and the
// Router.
//
// Every real serving front-end re-releases work the fleet shed — and that
// retry traffic is the canonical *metastable failure* amplifier: the DARIS
// admission test (Eq. 11/12) is deadline-agnostic, so a retried job
// re-released with its ORIGINAL release time (the only honest accounting —
// the deadline clock never stopped) is happily admitted even when most of
// its slack is gone, burns GPU time, misses, and meanwhile occupies the LP
// backlog slot (cap 1) that would have admitted a *fresh* job. After an
// overload pulse the fleet can sustain itself in that mode indefinitely:
// goodput collapses while utilisation stays pinned. The layer therefore
// ships the two standard countermeasures next to the retry policy itself:
//
//  - Retry budget (token bucket). First attempts earn kRetryBudgetRatio
//    tokens each; a retry or hedge spends one. The fleet-wide retry rate is
//    thus capped at ~ratio x the first-attempt rate no matter how hard the
//    retry policy pushes — the switch that separates the meltdown run from
//    the recovering run in the retry-storm-meltdown scenario.
//
//  - Per-GPU circuit breaker. A periodic control-shard tick folds each
//    device's completed/missed deltas (scheduler counters) with the sheds
//    charged to it (Router::shed_at) into a rolling miss+shed rate;
//    crossing kBreakerOpenThreshold with enough volume opens the
//    breaker, which masks the device from routing exactly like a draining
//    one (Fleet::set_breaker_open folds into placeable()) — without
//    rehoming anything, because the state is temporary: after
//    kBreakerCooldown the breaker half-opens (probe traffic allowed) and
//    either closes or re-opens on the next window.
//
//  - Hedged requests (LP only). When a primary copy is still in flight
//    after the device's recent p-th percentile response time (per-class
//    ring in the scheduler; a fraction of the relative deadline until the
//    ring warms up), a second copy is launched on the best peer that holds
//    the model hot (Router::route_hedge), first-finish-wins: a per-pair
//    control-shard poll revokes the losing copy through the scheduler's
//    revoke path while it is still unstarted; a loser that already started
//    runs to completion and is counted as duplicate (wasted) work.
//
// Determinism: all timers (backoff, hedge triggers, pair polls, breaker
// ticks) are ordinary control-shard sim::Callback events; backoff jitter
// comes from the layer's own Rng, seeded with the run seed
// (Fleet::seed()). Sharded runs stay bit-identical because control events
// run while the device shards are parked at the window barrier — the same
// contract the rebalancer relies on, so they never race a device. A default
// ResilienceConfig{} (enabled=false) schedules nothing and leaves every
// run byte-identical to a build without this file: release() then forwards
// each job straight to the router, so cluster_runner routes through the
// layer unconditionally.
//
// docs/RESILIENCE.md is the operator guide (knobs, budget math, breaker
// state machine, scenario walkthrough).
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "cluster/fleet.h"
#include "cluster/router.h"
#include "common/rng.h"
#include "common/time.h"
#include "metrics/collector.h"
#include "sim/simulator.h"

namespace daris::cluster {

/// Retry budget: each first attempt earns kRetryBudgetRatio tokens, and the
/// bucket holds at most kRetryBudgetBurst.
inline constexpr double kRetryBudgetRatio = 0.1;
inline constexpr double kRetryBudgetBurst = 32.0;
/// Each backoff delay is scaled by a uniform draw from
/// [1 - kRetryJitter, 1 + kRetryJitter].
inline constexpr double kRetryJitter = 0.2;
/// The LP response percentile that triggers a hedge.
inline constexpr double kHedgePercentile = 95.0;
/// Ring samples a device needs before its LP response percentile drives the
/// hedge trigger; while every ring is colder, the trigger is
/// kHedgeFallbackFrac x the relative deadline.
inline constexpr int kHedgeMinSamples = 16;
inline constexpr double kHedgeFallbackFrac = 0.35;
/// Hedge-pair settlement poll period (first-finish-wins detection).
inline constexpr common::Duration kHedgePoll = common::from_sec(0.0005);
/// Breaker rolling window, also the breaker tick period.
inline constexpr common::Duration kBreakerWindow = common::from_sec(0.1);
/// A closed breaker opens when its window's (missed + shed) /
/// (completed + shed) reaches kBreakerOpenThreshold over at least
/// kBreakerMinVolume outcomes.
inline constexpr double kBreakerOpenThreshold = 0.5;
inline constexpr int kBreakerMinVolume = 16;
/// An open breaker half-opens after this cooldown.
inline constexpr common::Duration kBreakerCooldown = common::from_sec(0.3);
/// A half-open breaker closes when its probe window's miss+shed rate falls
/// to this or below; otherwise it re-opens.
inline constexpr double kBreakerCloseThreshold = 0.2;

/// Per-class retry policy. kNone disables retries for the class;
/// kExponential waits base_delay_us before the first retry and doubles the
/// delay per attempt up to max_delay_us, each delay jittered by
/// kRetryJitter.
struct RetryPolicy {
  enum class Backoff { kNone, kExponential };
  Backoff backoff = Backoff::kNone;
  /// Total attempts including the first release.
  int max_attempts = 3;
  double base_delay_us = 500.0;
  double max_delay_us = 20000.0;
};

struct ResilienceConfig {
  /// Master switch. Off: the layer is inert — no events, no counters, and
  /// release() forwards every job to the router untouched.
  bool enabled = false;

  /// Retry policies per class. Defaults retry both classes with exponential
  /// backoff; set backoff = kNone to disable a class.
  RetryPolicy hp{RetryPolicy::Backoff::kExponential, 3, 500.0, 20000.0};
  RetryPolicy lp{RetryPolicy::Backoff::kExponential, 3, 500.0, 20000.0};

  /// Token-bucket retry budget. Each first attempt earns kRetryBudgetRatio
  /// tokens (capped at kRetryBudgetBurst); each retry or hedge launch spends
  /// one. Disabled (naive mode): retries are never budget-limited.
  bool budget_enabled = true;

  /// Hedged requests for LP classes: launch the hedge when the primary is
  /// still in flight after the FLEET's best recent kHedgePercentile LP
  /// response (minimum over placeable devices with warm rings) — a
  /// straggler's own inflated percentile must not get to postpone its own
  /// rescue.
  bool hedge = false;

  /// Per-GPU circuit breaker, evaluated every kBreakerWindow.
  bool breaker = false;
};

class ResiliencePolicy {
 public:
  /// `sim` must be the fleet's control-shard simulator (fleet.simulator()).
  /// `collector` (required, the fleet's) receives the retry, hedge and
  /// breaker records and the layer's measured counts, and holds every count
  /// the accessors read. Backoff jitter draws from Rng(fleet.seed()).
  ResiliencePolicy(sim::Simulator& sim, Fleet& fleet, Router& router,
                   const ResilienceConfig& config,
                   metrics::Collector* collector);

  ResiliencePolicy(const ResiliencePolicy&) = delete;
  ResiliencePolicy& operator=(const ResiliencePolicy&) = delete;

  /// Arms the breaker tick (when configured) up to `horizon`. Retry and
  /// hedge timers are armed per attempt by release(). A disabled config
  /// makes this a no-op. Call after the fault schedule is posted, before
  /// the telemetry sampler starts (the sampler stays the last setup step).
  void start(common::Time horizon);

  /// The drivers' ReleaseFn target: routes a first attempt and arms the
  /// retry/hedge machinery on its outcome. With the layer disabled this
  /// forwards to Router::release untouched.
  void release(int task_id);

  // --- counters (read off the collector's metrics::FleetCounters) ---------

  std::uint64_t first_attempts() const { return counters().first_attempts; }
  /// Retries actually re-released (budget already spent).
  std::uint64_t retries() const { return counters().retries; }
  /// Retries that ended in an admission.
  std::uint64_t retry_admits() const { return counters().retry_admits; }
  /// Hedges launched (second copy admitted on a peer).
  std::uint64_t hedges() const { return counters().hedges; }
  /// Pairs where the hedge copy finished first.
  std::uint64_t hedge_wins() const { return counters().hedge_wins; }
  /// Losing copies revoked before starting (the bounded-duplicate-work
  /// guarantee: waste = hedges - cancels).
  std::uint64_t hedge_cancels() const { return counters().hedge_cancels; }
  /// Pairs whose loser had already started — both copies ran to completion.
  std::uint64_t hedge_waste() const { return counters().hedge_waste; }
  std::uint64_t breaker_opens() const { return counters().breaker_opens; }
  std::uint64_t breaker_closes() const { return counters().breaker_closes; }
  /// Current budget balance (telemetry gauge).
  double budget_tokens() const { return tokens_; }
  /// q-th percentile of the CLIENT-perceived response over hedged pairs —
  /// time from the original release to the FIRST copy finishing (detected
  /// at pair-poll granularity). This is the latency hedging actually
  /// improves: the collector's per-job histogram keeps recording the losing
  /// copy's slow finish, because a started loser cannot be revoked. 0 when
  /// no pair has settled.
  double hedge_client_percentile_ms(double q) const;

 private:
  enum class BreakerState : std::uint8_t { kClosed, kOpen, kHalfOpen };
  struct BreakerRec {
    BreakerState state = BreakerState::kClosed;
    common::Time opened_at = 0;
    std::uint64_t last_done = 0;
    std::uint64_t last_missed = 0;
    std::uint64_t last_shed = 0;
  };
  struct HedgePair {
    int task = -1;
    int primary_gpu = -1;
    int hedge_gpu = -1;
    std::uint64_t primary_job = 0;
    std::uint64_t hedge_job = 0;
    common::Time released = 0;
  };

  const metrics::FleetCounters& counters() const {
    return collector_->fleet_counters();
  }
  const RetryPolicy& policy_for(int task_id) const;
  bool spend_token();
  /// Reacts to a route attempt's synchronous outcome: arms a hedge trigger
  /// on an admitted LP primary, a backoff timer on a retriable shed.
  void after_attempt(int task_id, common::Time released, int attempt,
                     const RouteResult& r);
  void schedule_retry(int task_id, common::Time released, int attempt);
  void fire_retry(int task_id, common::Time released, int attempt);
  common::Duration backoff_delay(const RetryPolicy& pol, int attempt);
  void arm_hedge(int task_id, common::Time released, const RouteResult& r);
  void fire_hedge(int task_id, common::Time released, int primary_gpu,
                  std::uint64_t primary_job);
  void poll_pair(std::uint64_t pair_id);
  /// Follows a started losing primary to completion after a hedge win to
  /// classify its recorded outcome against the original deadline.
  void watch_loser(int gpu, std::uint64_t job, common::Time deadline);
  void breaker_tick();
  void evaluate_breaker(int g, common::Time now);

  sim::Simulator& sim_;
  Fleet& fleet_;
  Router& router_;
  ResilienceConfig config_;
  metrics::Collector* collector_;
  common::Rng rng_;
  common::Time horizon_ = 0;
  double tokens_ = 0.0;

  /// Unsettled hedge pairs by ascending pair id (the poll events reference
  /// pairs by id, so settlement order is a pure function of event order).
  std::map<std::uint64_t, HedgePair> pairs_;
  std::uint64_t next_pair_id_ = 1;
  std::vector<BreakerRec> breakers_;
  /// Client-perceived response of every settled hedge pair, milliseconds.
  std::vector<double> hedge_client_ms_;
};

}  // namespace daris::cluster
