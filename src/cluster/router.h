// Placement front-end for a GPU fleet.
//
// Each released job is offered to one GPU: HP jobs to their home GPU (the
// device carrying their static Eq. 11 reservation — the paper's fixed HP
// context assignment, lifted one level), LP jobs to the GPU chosen by the
// routing policy. Before any placement the fleet admission controller sheds
// jobs no device can feasibly host (model fits no GPU's memory, or — for
// admission-tested classes — one job's utilisation exceeds every idle
// context), so hopeless jobs never bounce through migration retries.
//
// If the routed GPU's DARIS scheduler rejects the job (Eq. 12 failed on
// every context, or a backlog guard fired), the router offers it once to
// the best-scoring *peer* — cross-GPU migration. A migration to a device
// where the job's model is cold first ships the weights: the delivery is
// delayed by `weight_mb * transfer_us_per_mb` (FleetConfig), the transfer
// is reported to the collector, and a successful transfer warms the model
// on the target so repeat migrations are free. The job is dropped only when
// the peer rejects it too (for delayed deliveries, at arrival time).
//
// In-flight transfers are first-class state: every delayed delivery sits in
// an id-ordered registry with its cancellable event handle. Two behaviours
// build on it:
//
//  - Transfer coalescing (RouterConfig::coalesce): a cold migration of a
//    model already being copied to the same peer *attaches* to the
//    in-flight copy — no duplicate bytes are charged, and the attached job
//    is delivered when the leading copy lands (leader first, so the model
//    is warm by then).
//  - Fault cancellation: when a device fails or drains, transfers still
//    headed to it are cancelled at the fault instant (the bytes are sunk;
//    the jobs are not) and each job is retargeted to the best placeable
//    peer or dropped — never delivered to a halted device. The router
//    registers this through Fleet::set_on_unplaceable.
//
// The router owns the fleet-level release/reject accounting (the schedulers
// run in silent mode so a retried job is not double-counted) and reports
// every routing decision once, through metrics::Collector::record, which
// keeps the per-GPU and fleet-wide counts. In-flight transfer deliveries
// are simulator events that reference the router: keep it alive while the
// simulator runs, as with the release drivers.
//
// docs/CLUSTER.md is the policy guide (when each policy wins, the
// skewed-demand failure mode, threshold semantics, rebalancing hooks).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "cluster/fleet.h"
#include "common/rng.h"
#include "common/time.h"
#include "metrics/collector.h"

namespace daris::cluster {

/// Placement policies for LP jobs (HP jobs always start at their home GPU).
enum class RoutingPolicy {
  kRoundRobin,        // cycle through GPUs regardless of load
  kLeastUtilization,  // GPU with the lowest placement score
  kPowerOfTwo,        // sample two GPUs, pick the better-scoring one
  kModelAffinity,     // the task's home GPU (same model => same weights hot)
  kHybrid,            // home GPU until its load crosses the spill threshold,
                      // then the best-scoring peer (affinity + spillover)
};

const char* routing_policy_name(RoutingPolicy p);

/// Synchronous disposition of one route attempt (release, retry, or hedge).
/// The resilience layer keys its retry/hedge decisions off this: kShed with
/// a retriable cause may be re-released after backoff; kPending means the
/// job rides an in-flight weight transfer and will admit or drop later (the
/// router does not call back — post-transfer drops are not retried, but they
/// stay in the conservation accounting as sheds).
struct RouteResult {
  enum class Status { kAdmitted, kShed, kPending };
  Status status = Status::kShed;
  /// Admitting device and job id (kAdmitted only).
  int gpu = -1;
  std::uint64_t job_id = 0;
  /// Shed reason (kShed only): kInfeasible / kBacklog / kPeerReject.
  metrics::EventCause cause = metrics::EventCause::kNone;
};

struct RouterConfig {
  RoutingPolicy policy = RoutingPolicy::kLeastUtilization;

  /// Hybrid only: spill away from the home GPU when its relative load
  /// (admitted utilisation over its Nc x Ns stream capacity,
  /// Fleet::relative_load) reaches this fraction.
  double spill_threshold = 0.75;

  /// Attach concurrent cold migrations of one model to the in-flight copy
  /// instead of shipping duplicate bytes. Off by default so existing runs
  /// stay byte-identical; cluster rebalancing turns it on.
  bool coalesce = false;

  std::uint64_t seed = 42;
};

class Router {
 public:
  /// `collector` (required) receives every routing decision and holds the
  /// counts the accessors below read.
  Router(Fleet& fleet, const RouterConfig& config,
         metrics::Collector* collector);
  /// Convenience: default spill threshold.
  Router(Fleet& fleet, RoutingPolicy policy, std::uint64_t seed,
         metrics::Collector* collector);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  RoutingPolicy policy() const { return config_.policy; }

  /// Routes one released job of `task_id` (the drivers' ReleaseFn target).
  void release(int task_id);

  /// Routing body behind release(): places one job released at `released`
  /// (<= now; a retry passes the original release so the copy consumes real
  /// deadline slack) and reports the synchronous disposition. Every call
  /// counts one route attempt in the per-class conservation counters.
  RouteResult route_job(int task_id, common::Time released);

  /// Hedged second copy (cluster::ResiliencePolicy): directed placement on
  /// the best-scoring placeable peer other than `exclude_gpu` where the
  /// task's model is already hot — a hedge exists to beat a straggling
  /// primary, so shipping weights (or queueing behind a transfer) defeats
  /// it. Skips the fleet-wide backlog guard (the primary copy holds the
  /// backlog slot by design) but takes the peer scheduler's own admission
  /// test. Returns kShed with cause kNone — and touches no accounting —
  /// when no eligible peer exists.
  RouteResult route_hedge(int task_id, int exclude_gpu,
                          common::Time released);

  /// Jobs admitted by a peer after their routed GPU rejected them.
  std::uint64_t cross_gpu_migrations() const {
    return counters().cross_gpu_migrations;
  }

  /// Jobs rejected by both the routed GPU and the offered peer, plus
  /// infeasible ones.
  std::uint64_t drops() const { return counters().drops; }

  /// Jobs shed by the fleet admission controller (subset of drops()).
  std::uint64_t infeasible_rejects() const {
    return counters().infeasible_rejects;
  }

  /// Cross-GPU weight transfers performed (cold-model migrations).
  std::uint64_t transfers() const { return counters().transfers; }
  double transferred_mb() const { return counters().transferred_mb; }

  /// Migrations that attached to an in-flight copy of their model instead
  /// of shipping it again, and the MB those attachments did not re-ship.
  std::uint64_t coalesced_transfers() const {
    return counters().coalesced_transfers;
  }
  double coalesced_mb_saved() const { return counters().coalesced_mb_saved; }

  /// In-flight transfers cancelled because their target failed or drained
  /// (each job was retargeted to a placeable peer or dropped).
  std::uint64_t transfer_cancels() const {
    return counters().transfer_cancels;
  }

  /// Migrations whose weight transfer is still in flight.
  std::uint64_t pending_transfers() const { return inflight_.size(); }

  // --- conservation accounting (Fleet::check_conservation) ----------------
  //
  // Always-on per-class tallies of every route attempt's fate: released ==
  // shed + pending + admitted holds router-internally at any instant, and
  // feeding them into the fleet check closes the loop against the
  // schedulers' own counters. In a fleet only the router reports releases
  // and rejections to the collector (the schedulers run with report=false),
  // so the collector's class counts are the router's.

  /// Route attempts (releases + retries + hedges) of the class.
  std::uint64_t released_of(common::Priority p) const {
    return collector_->class_counts(p).released;
  }
  /// Synchronous + asynchronous sheds (infeasible, backlog, peer-reject,
  /// post-transfer drops) of the class.
  std::uint64_t shed_of(common::Priority p) const {
    return collector_->class_counts(p).rejected;
  }
  /// Jobs of the class still riding an in-flight weight transfer.
  std::uint64_t pending_of(common::Priority p) const {
    return pending_cls_[static_cast<std::size_t>(p)];
  }

  /// Jobs shed after being routed to GPU g (any cause) — the circuit
  /// breaker's shed signal for the device, read off the collector's
  /// per-GPU counters (0 when the collector does not size them).
  std::uint64_t shed_at(int g) const {
    if (g >= collector_->gpu_count()) return 0;
    const metrics::RoutingCounters& r = collector_->routing(g);
    return r.dropped + r.infeasible;
  }

  /// In-flight weight transfers headed for GPU g (telemetry gauge).
  int pending_transfers_to(int g) const {
    const auto i = static_cast<std::size_t>(g);
    return i < pending_to_.size() ? pending_to_[i] : 0;
  }

  // --- rebalancing observers (cluster::Rebalancer) ------------------------
  //
  // Both default to unset and cost one branch per release when unset, so a
  // router without a rebalancer behaves byte-identically to one predating
  // these hooks.

  /// Called once per released job with its task id — the rebalancer's
  /// demand-window feed.
  void set_release_observer(std::function<void(int)> fn) {
    release_observer_ = std::move(fn);
  }

  /// Called with the routed GPU when the fleet-wide backlog guard sheds a
  /// job there — the work-stealing trigger.
  void set_pressure_observer(std::function<void(int)> fn) {
    pressure_observer_ = std::move(fn);
  }

 private:
  /// One delayed weight transfer (the job rides the copy). `leader` marks
  /// the record that owns the (peer, model) in-flight entry coalescing
  /// attaches to.
  struct PendingRec {
    int task = -1;
    int from = -1;
    int peer = -1;
    common::Time released = 0;
    common::Time arrive = 0;
    bool leader = false;
    sim::EventHandle handle;
  };
  using CoalesceKey = std::pair<int, const dnn::CompiledModel*>;

  int pick(int task_id);
  /// Offers a rejected job to `peer`, shipping weights first when the model
  /// is cold there; `from` is the GPU that rejected it, `released` the
  /// job's original release time (deadlines anchor there, so a transfer
  /// consumes the job's slack). Returns the synchronous disposition
  /// (kPending when the job rides a queued transfer).
  RouteResult migrate(int task_id, int from, int peer, common::Time released);
  /// Transfer-completion half of migrate(): admit-or-drop on the target.
  RouteResult deliver(int task_id, int from, int peer, common::Time released);
  /// Sheds one job routed to `gpu`: the one shed path (infeasible, backlog,
  /// peer and post-transfer rejections, retarget drops). Counts the class
  /// shed and reports the rejection.
  RouteResult drop(int task_id, int gpu, common::Time released,
                   metrics::EventCause cause = metrics::EventCause::kPeerReject);
  /// Registers a delayed delivery arriving at `arrive` and bumps the
  /// pending gauges. Returns the transfer id.
  std::uint64_t queue_delivery(int task_id, int from, int peer,
                               common::Time released, common::Time arrive,
                               bool leader);
  /// Delivery event body: pops the record and admits-or-drops the job.
  void complete_transfer(std::uint64_t id);
  /// Unwinds one pending record's gauges (and its coalesce entry when it is
  /// the leader). The record must already be out of `inflight_`.
  void finish_pending(const PendingRec& rec);
  /// Fleet on-unplaceable hook: cancels every transfer headed to g and
  /// retargets (or drops) the jobs riding them, in ascending transfer id
  /// order.
  void cancel_transfers_to(int g);
  /// Jobs of the task whose weight transfer is still in flight (registered
  /// in no scheduler yet, so the backlog guards must count them here).
  int pending_jobs(int task_id) const;
  void add_pending_job(int task_id, int delta);
  const metrics::FleetCounters& counters() const {
    return collector_->fleet_counters();
  }

  Fleet& fleet_;
  RouterConfig config_;
  common::Rng rng_;
  metrics::Collector* collector_;
  int rr_next_ = 0;
  std::uint64_t pending_cls_[2] = {0, 0};
  std::vector<int> pending_jobs_;  // per task id
  std::vector<int> pending_to_;    // in-flight transfers per target GPU
  /// In-flight transfers by ascending id — the only iteration order any
  /// decision uses, so fault-time cancellation is deterministic.
  std::map<std::uint64_t, PendingRec> inflight_;
  /// (target GPU, model) -> leader transfer id. Pointer keys are safe here:
  /// the map is only ever probed/inserted/erased by exact key, never
  /// iterated for a decision, so address-dependent ordering cannot leak
  /// into behaviour.
  std::map<CoalesceKey, std::uint64_t> inflight_copy_;
  std::uint64_t next_transfer_id_ = 1;
  std::function<void(int)> release_observer_;
  std::function<void(int)> pressure_observer_;
};

}  // namespace daris::cluster
