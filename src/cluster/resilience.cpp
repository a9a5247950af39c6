#include "cluster/resilience.h"

#include <algorithm>
#include <cassert>

#include "metrics/eventlog.h"

namespace daris::cluster {

using metrics::EventCause;
using metrics::EventKind;
using metrics::FleetCounters;

ResiliencePolicy::ResiliencePolicy(sim::Simulator& sim, Fleet& fleet,
                                   Router& router,
                                   const ResilienceConfig& config,
                                   metrics::Collector* collector)
    : sim_(sim),
      fleet_(fleet),
      router_(router),
      config_(config),
      collector_(collector),
      // Rng(run seed) also draws the fleet's per-device jitter seeds; the
      // two sequences are equal but feed unrelated decisions.
      rng_(fleet.seed()) {
  assert(collector_ != nullptr);
}

void ResiliencePolicy::start(common::Time horizon) {
  if (!config_.enabled) return;
  horizon_ = horizon;
  if (config_.breaker) {
    breakers_.assign(static_cast<std::size_t>(fleet_.size()), BreakerRec{});
    sim_.schedule_after(kBreakerWindow, [this] { breaker_tick(); });
  }
}

void ResiliencePolicy::release(int task_id) {
  if (!config_.enabled) {
    router_.release(task_id);
    return;
  }
  collector_->count(&FleetCounters::first_attempts);
  // First attempts fund the bucket; retries and hedges drain it. The cap
  // bounds how large a burst of sheds can be retried back-to-back.
  if (config_.budget_enabled) {
    tokens_ = std::min(kRetryBudgetBurst, tokens_ + kRetryBudgetRatio);
  }
  const common::Time released = sim_.now();
  const RouteResult r = router_.route_job(task_id, released);
  after_attempt(task_id, released, /*attempt=*/1, r);
}

const RetryPolicy& ResiliencePolicy::policy_for(int task_id) const {
  return fleet_.spec(task_id).priority ==
                 common::Priority::kHigh
             ? config_.hp
             : config_.lp;
}

bool ResiliencePolicy::spend_token() {
  if (!config_.budget_enabled) return true;
  if (tokens_ < 1.0) return false;
  tokens_ -= 1.0;
  return true;
}

void ResiliencePolicy::after_attempt(int task_id, common::Time released,
                                     int attempt, const RouteResult& r) {
  if (r.status == RouteResult::Status::kAdmitted) {
    if (attempt > 1) collector_->count(&FleetCounters::retry_admits);
    arm_hedge(task_id, released, r);
    return;
  }
  // A job riding an in-flight weight transfer admits or drops later; the
  // router does not call back, so post-transfer drops are not retried (they
  // stay counted as sheds in the conservation accounting).
  if (r.status == RouteResult::Status::kPending) return;
  // Only guard and peer-rejection sheds are retriable: an infeasible job can
  // never be hosted, and retrying it would only drain the budget.
  if (r.cause != EventCause::kBacklog && r.cause != EventCause::kPeerReject) {
    return;
  }
  const RetryPolicy& pol = policy_for(task_id);
  if (pol.backoff == RetryPolicy::Backoff::kNone) return;
  if (attempt >= pol.max_attempts) {
    collector_->record(sim_.now(), EventKind::kRetry, EventCause::kMaxAttempts,
                       -1, -1, task_id, attempt);
    return;
  }
  schedule_retry(task_id, released, attempt);
}

common::Duration ResiliencePolicy::backoff_delay(const RetryPolicy& pol,
                                                 int attempt) {
  double us = pol.base_delay_us;
  for (int i = 1; i < attempt; ++i) us = std::min(us * 2.0, pol.max_delay_us);
  us = std::min(us, pol.max_delay_us);
  us *= rng_.uniform(1.0 - kRetryJitter, 1.0 + kRetryJitter);
  return common::from_us(std::max(0.0, us));
}

void ResiliencePolicy::schedule_retry(int task_id, common::Time released,
                                      int attempt) {
  const common::Duration delay = backoff_delay(policy_for(task_id), attempt);
  sim_.schedule_after(delay, [this, task_id, released, attempt] {
    fire_retry(task_id, released, attempt + 1);
  });
}

void ResiliencePolicy::fire_retry(int task_id, common::Time released,
                                  int attempt) {
  const common::Time now = sim_.now();
  const auto& spec = fleet_.spec(task_id);
  // Deadline re-derivation: the retry keeps the ORIGINAL release time, so
  // the remaining slack is real. A retry whose deadline already passed is
  // abandoned — releasing it would only burn GPU time on a guaranteed miss.
  if (now >= released + spec.relative_deadline) {
    collector_->record(now, EventKind::kRetry, EventCause::kExpired, -1, -1,
                       task_id, attempt);
    return;
  }
  if (!spend_token()) {
    collector_->record(now, EventKind::kRetry, EventCause::kBudgetExhausted,
                       -1, -1, task_id, attempt);
    return;
  }
  collector_->record(now, EventKind::kRetry, EventCause::kBackoff, -1, -1,
                     task_id, attempt);
  const RouteResult r = router_.route_job(task_id, released);
  after_attempt(task_id, released, attempt, r);
}

void ResiliencePolicy::arm_hedge(int task_id, common::Time released,
                                 const RouteResult& r) {
  if (!config_.hedge) return;
  const auto& spec = fleet_.spec(task_id);
  if (spec.priority != common::Priority::kLow) return;
  // Trigger delay: the FLEET's best recent q-th percentile LP response — the
  // minimum over placeable devices with warm rings. Using the routed
  // device's own percentile would defeat the point: a straggler's self-view
  // is exactly as inflated as the tail we are trying to cut, so it would
  // keep postponing the hedge until the rescue can no longer win. The
  // fleet-wide floor means "hedge once the job has taken longer than a
  // healthy peer routinely needs"; on a uniform healthy fleet it matches
  // each device's own percentile. A deadline fraction covers cold rings, and
  // the timer re-checks liveness and budget when it fires.
  double delay_us = 0.0;
  for (int g = 0; g < fleet_.size(); ++g) {
    if (!fleet_.placeable(g)) continue;
    const rt::Scheduler& sch = fleet_.scheduler(g);
    if (sch.response_samples(common::Priority::kLow) < kHedgeMinSamples) {
      continue;
    }
    const double p =
        sch.response_percentile_us(common::Priority::kLow, kHedgePercentile);
    if (delay_us == 0.0 || p < delay_us) delay_us = p;
  }
  if (delay_us == 0.0) {
    delay_us = common::to_us(spec.relative_deadline) * kHedgeFallbackFrac;
  }
  const int gpu = r.gpu;
  const std::uint64_t job = r.job_id;
  sim_.schedule_after(common::from_us(std::max(0.0, delay_us)),
                      [this, task_id, released, gpu, job] {
                        fire_hedge(task_id, released, gpu, job);
                      });
}

void ResiliencePolicy::fire_hedge(int task_id, common::Time released,
                                  int primary_gpu,
                                  std::uint64_t primary_job) {
  const common::Time now = sim_.now();
  // Primary already settled (finished, or shed with its failed device):
  // nothing left to beat.
  if (!fleet_.scheduler(primary_gpu).job_in_flight(primary_job)) return;
  const auto& spec = fleet_.spec(task_id);
  if (now >= released + spec.relative_deadline) return;  // no slack to rescue
  if (!spend_token()) {
    collector_->record(now, EventKind::kRetry, EventCause::kBudgetExhausted,
                       primary_gpu, -1, task_id, 1);
    return;
  }
  const RouteResult h = router_.route_hedge(task_id, primary_gpu, released);
  if (h.status != RouteResult::Status::kAdmitted) return;
  collector_->record(now, EventKind::kHedge, EventCause::kHedgeLaunch,
                     primary_gpu, h.gpu, task_id);
  const std::uint64_t id = next_pair_id_++;
  HedgePair p;
  p.task = task_id;
  p.primary_gpu = primary_gpu;
  p.hedge_gpu = h.gpu;
  p.primary_job = primary_job;
  p.hedge_job = h.job_id;
  p.released = released;
  pairs_.emplace(id, p);
  sim_.schedule_after(kHedgePoll, [this, id] { poll_pair(id); });
}

void ResiliencePolicy::poll_pair(std::uint64_t pair_id) {
  const auto it = pairs_.find(pair_id);
  if (it == pairs_.end()) return;
  const HedgePair p = it->second;
  const bool primary_live =
      fleet_.scheduler(p.primary_gpu).job_in_flight(p.primary_job);
  const bool hedge_live =
      fleet_.scheduler(p.hedge_gpu).job_in_flight(p.hedge_job);
  if (primary_live && hedge_live) {
    sim_.schedule_after(kHedgePoll, [this, pair_id] { poll_pair(pair_id); });
    return;
  }
  pairs_.erase(it);
  const common::Time now = sim_.now();
  // The first copy to finish defines what the CLIENT saw, whatever happens
  // to the loser; detection is at poll granularity.
  hedge_client_ms_.push_back(common::to_ms(now - p.released));
  if (!primary_live && !hedge_live) {
    // Both settled within one poll period: the copies raced to completion
    // and the duplicate work was spent either way.
    collector_->count(&FleetCounters::hedge_waste);
    return;
  }
  // First-finish-wins: revoke the losing copy while it is still unstarted
  // (the scheduler refuses once GPU-side state exists — that loser runs to
  // completion and is counted as waste).
  const int loser_gpu = primary_live ? p.primary_gpu : p.hedge_gpu;
  const std::uint64_t loser_job = primary_live ? p.primary_job : p.hedge_job;
  if (primary_live) {
    collector_->record(now, EventKind::kHedge, EventCause::kHedgeWin,
                       p.primary_gpu, p.hedge_gpu, p.task);
  }
  if (fleet_.scheduler(loser_gpu).revoke_job(loser_job)) {
    collector_->record(now, EventKind::kHedge, EventCause::kHedgeCancel,
                       p.primary_gpu, p.hedge_gpu, p.task);
  } else {
    collector_->count(&FleetCounters::hedge_waste);
    if (primary_live) {
      // The hedge won inside the deadline but the started primary could not
      // be revoked: follow it to completion to learn whether the histogram
      // is about to record a miss the client never saw.
      const auto& spec = fleet_.spec(p.task);
      const common::Time deadline = p.released + spec.relative_deadline;
      if (now <= deadline) watch_loser(loser_gpu, loser_job, deadline);
    }
  }
}

void ResiliencePolicy::watch_loser(int gpu, std::uint64_t job,
                                   common::Time deadline) {
  if (fleet_.scheduler(gpu).job_in_flight(job)) {
    sim_.schedule_after(kHedgePoll,
                        [this, gpu, job, deadline] {
                          watch_loser(gpu, job, deadline);
                        });
    return;
  }
  // Settlement is observed up to one poll period late, so only count the
  // miss once it clears a full period — a lower bound on rescued misses.
  if (sim_.now() > deadline + kHedgePoll) {
    collector_->count(&FleetCounters::hedge_rescued_misses);
  }
}

void ResiliencePolicy::breaker_tick() {
  const common::Time now = sim_.now();
  if (breakers_.size() < static_cast<std::size_t>(fleet_.size())) {
    breakers_.resize(static_cast<std::size_t>(fleet_.size()));
  }
  for (int g = 0; g < fleet_.size(); ++g) evaluate_breaker(g, now);
  if (now < horizon_) {
    sim_.schedule_after(kBreakerWindow, [this] { breaker_tick(); });
  }
}

void ResiliencePolicy::evaluate_breaker(int g, common::Time now) {
  BreakerRec& b = breakers_[static_cast<std::size_t>(g)];
  const rt::Scheduler& sch = fleet_.scheduler(g);
  const std::uint64_t done = sch.jobs_completed();
  const std::uint64_t missed = sch.jobs_missed();
  const std::uint64_t shed = router_.shed_at(g);
  const std::uint64_t d_done = done - b.last_done;
  const std::uint64_t d_missed = missed - b.last_missed;
  const std::uint64_t d_shed = shed - b.last_shed;
  b.last_done = done;
  b.last_missed = missed;
  b.last_shed = shed;
  // Failed/draining devices are already unplaceable; the breaker stands
  // aside (and clears a stale mask) so recovery stays with the health state
  // machine.
  if (fleet_.health(g) != GpuHealth::kHealthy) {
    if (b.state != BreakerState::kClosed) {
      b.state = BreakerState::kClosed;
      fleet_.set_breaker_open(g, false);
    }
    return;
  }
  const std::uint64_t volume = d_done + d_shed;
  const double rate =
      volume == 0 ? 0.0
                  : static_cast<double>(d_missed + d_shed) /
                        static_cast<double>(volume);
  // Never mask the last exits: an open breaker only helps when traffic has
  // somewhere better to go. A global overload pushes EVERY device's window
  // rate past the threshold — masking devices then just amputates capacity
  // (the retry-storm scenario documents this failure mode) — so opening
  // requires at least two other placeable devices to absorb the traffic.
  const bool may_open =
      fleet_.placeable_count() - (fleet_.placeable(g) ? 1 : 0) >= 2;
  auto open = [&] {
    b.state = BreakerState::kOpen;
    b.opened_at = now;
    fleet_.set_breaker_open(g, true);
    collector_->record(now, EventKind::kBreaker, EventCause::kBreakerOpen, g,
                       -1, -1, rate);
  };
  switch (b.state) {
    case BreakerState::kClosed:
      if (volume >= static_cast<std::uint64_t>(kBreakerMinVolume) &&
          rate >= kBreakerOpenThreshold && may_open) {
        open();
      }
      break;
    case BreakerState::kOpen:
      if (now - b.opened_at >= kBreakerCooldown) {
        b.state = BreakerState::kHalfOpen;
        fleet_.set_breaker_open(g, false);
        collector_->record(now, EventKind::kBreaker,
                           EventCause::kBreakerHalfOpen, g, -1, -1, rate);
      }
      break;
    case BreakerState::kHalfOpen:
      if (volume == 0) break;  // no probe traffic yet; keep waiting
      if (rate <= kBreakerCloseThreshold) {
        b.state = BreakerState::kClosed;
        collector_->record(now, EventKind::kBreaker, EventCause::kBreakerClose,
                           g, -1, -1, rate);
      } else if (may_open) {
        open();
      }
      break;
  }
}

double ResiliencePolicy::hedge_client_percentile_ms(double q) const {
  if (hedge_client_ms_.empty()) return 0.0;
  std::vector<double> sorted = hedge_client_ms_;
  std::sort(sorted.begin(), sorted.end());
  const double frac = std::min(100.0, std::max(0.0, q)) / 100.0;
  const auto idx = static_cast<std::size_t>(
      frac * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[idx];
}

}  // namespace daris::cluster
