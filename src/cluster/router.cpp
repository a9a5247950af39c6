#include "cluster/router.h"

#include <limits>

#include "metrics/eventlog.h"

namespace daris::cluster {

const char* routing_policy_name(RoutingPolicy p) {
  switch (p) {
    case RoutingPolicy::kRoundRobin:
      return "round-robin";
    case RoutingPolicy::kLeastUtilization:
      return "least-util";
    case RoutingPolicy::kPowerOfTwo:
      return "power-of-two";
    case RoutingPolicy::kModelAffinity:
      return "model-affinity";
    case RoutingPolicy::kHybrid:
      return "hybrid";
  }
  return "?";
}

Router::Router(Fleet& fleet, const RouterConfig& config,
               metrics::Collector* /*collector*/)
    : fleet_(fleet), config_(config), rng_(config.seed) {
  // Transfers headed to a device that fails or drains must be cancelled the
  // instant it stops being placeable — before the fleet rehomes its tasks —
  // so no delivery ever lands on a halted GPU. With no transfers in flight
  // the hook is a no-op, so runs without faults (or without delayed
  // transfers) are untouched.
  fleet_.set_on_unplaceable([this](int g) { cancel_transfers_to(g); });
}

Router::Router(Fleet& fleet, RoutingPolicy policy, std::uint64_t seed,
               metrics::Collector* collector)
    : Router(fleet, RouterConfig{policy, 0.75, false, seed}, collector) {}

Router::~Router() { fleet_.set_on_unplaceable(nullptr); }

int Router::pick(int task_id) {
  const int n = fleet_.size();
  switch (config_.policy) {
    case RoutingPolicy::kRoundRobin: {
      // Skip failed/draining devices; with everything placeable this is the
      // historical one-step advance. A fully unplaceable fleet returns the
      // raw cursor and release() sheds the job as infeasible.
      int g = rr_next_;
      rr_next_ = (rr_next_ + 1) % n;
      for (int tries = 1; tries < n && !fleet_.placeable(g); ++tries) {
        g = rr_next_;
        rr_next_ = (rr_next_ + 1) % n;
      }
      return g;
    }
    case RoutingPolicy::kLeastUtilization:
      return fleet_.best_placeable();
    case RoutingPolicy::kPowerOfTwo: {
      // Both draws always happen, so the RNG stream — and with it every
      // healthy-fleet run — is untouched by the availability filter.
      const int a = static_cast<int>(rng_.uniform_int(0, n - 1));
      const int b = static_cast<int>(rng_.uniform_int(0, n - 1));
      const double sa = fleet_.placeable(a)
                            ? fleet_.placement_score(a)
                            : std::numeric_limits<double>::infinity();
      const double sb = fleet_.placeable(b)
                            ? fleet_.placement_score(b)
                            : std::numeric_limits<double>::infinity();
      if (sa == std::numeric_limits<double>::infinity() &&
          sb == std::numeric_limits<double>::infinity()) {
        return fleet_.best_placeable();  // both samples dead: fall back
      }
      return sb < sa ? b : a;
    }
    case RoutingPolicy::kModelAffinity:
      return fleet_.home_gpu(task_id);
    case RoutingPolicy::kHybrid: {
      // Affinity + spillover: stay on the model-affine home GPU (weights
      // hot, per-device MRET history warm) while it has headroom; once its
      // relative load crosses the threshold, spill to the best-scoring
      // peer — but only when that peer actually scores better, so a
      // uniformly saturated fleet does not ping-pong jobs for nothing.
      const int home = fleet_.home_gpu(task_id);
      if (fleet_.relative_load(home) < config_.spill_threshold) return home;
      const int peer = fleet_.best_placeable(home);
      if (peer < 0 ||
          fleet_.placement_score(peer) >= fleet_.placement_score(home)) {
        return home;
      }
      return peer;
    }
  }
  return 0;
}

void Router::release(int task_id) {
  (void)route_job(task_id, fleet_.simulator().now());
}

RouteResult Router::route_job(int task_id, common::Time released) {
  const auto& spec = fleet_.spec(task_id);
  if (release_observer_) release_observer_(task_id);
  // HP jobs go to their home GPU — the device carrying their static Eq. 11
  // reservation — mirroring the paper's fixed HP context assignment one
  // level up (a dynamically routed HP job would land where no capacity is
  // reserved for it and push admitted LP work into lateness). The routing
  // policy places the migratable LP jobs.
  int home = spec.priority == common::Priority::kHigh
                 ? fleet_.home_gpu(task_id)
                 : pick(task_id);
  // Availability guard: a failed/draining pick (or a -1 from a policy that
  // found nothing placeable) is redirected to the best placeable device;
  // when none exists the raw pick stands and the feasibility shed below
  // rejects the job. Task homes themselves are kept placeable by the
  // fleet's rehoming, so this only fires in degraded states.
  if (home < 0 || !fleet_.placeable(home)) {
    const int alt = fleet_.best_placeable(home);
    if (alt >= 0) home = alt;
  }
  if (home < 0) home = 0;  // whole fleet unplaceable: nominal accounting slot

  metrics::Collector& collector = fleet_.collector();
  collector.on_release(spec.priority);
  collector.on_route(home);

  // Fleet admission controller: a job no device can feasibly host (one
  // job's utilisation exceeds every idle context) is shed here, not bounced
  // through placement and migration.
  if (!fleet_.feasible(task_id)) {
    return drop(task_id, home, released, metrics::EventCause::kInfeasible);
  }

  // Fleet-wide backlog guard: the per-device rule (rt::backlog_cap) applied
  // to the task's jobs anywhere. Jobs whose weight transfer is still in
  // flight sit in no scheduler yet, so they are counted here explicitly.
  if (fleet_.active_jobs(task_id) + pending_jobs(task_id) >=
      rt::backlog_cap(spec.priority)) {
    const RouteResult r =
        drop(task_id, home, released, metrics::EventCause::kBacklog);
    if (pressure_observer_) pressure_observer_(home);
    return r;
  }

  std::uint64_t job_id = 0;
  if (fleet_.scheduler(home).release_job(task_id, /*report=*/false, released,
                                         &job_id)) {
    collector.record(released, metrics::EventKind::kAdmit,
                     metrics::EventCause::kHomeAdmit, home, -1, task_id);
    RouteResult r;
    r.status = RouteResult::Status::kAdmitted;
    r.gpu = home;
    r.job_id = job_id;
    return r;
  }

  // Cross-GPU migration: the job failed admission on every context of its
  // routed GPU; offer it once to the best-scoring peer before dropping.
  const int peer = fleet_.best_placeable(home);
  if (peer < 0) return drop(task_id, home, released);
  return migrate(task_id, home, peer, released);
}

RouteResult Router::route_hedge(int task_id, int exclude_gpu,
                                common::Time released) {
  // Eligible peers: placeable, not the primary's device, and the model
  // already hot — a hedge races a straggling primary, so a weight transfer
  // (or queueing behind one) would defeat its purpose.
  const int best = fleet_.best_placeable(
      exclude_gpu, [&](int g) { return fleet_.model_hot(g, task_id); });
  RouteResult r;
  if (best < 0) return r;  // no eligible peer: hedge not launched, no counts

  const auto& spec = fleet_.spec(task_id);
  metrics::Collector& collector = fleet_.collector();
  collector.on_release(spec.priority);
  collector.on_route(best);

  // The fleet-wide backlog guard is skipped by design (the primary copy
  // holds the task's backlog slot); the peer scheduler's own admission test
  // still applies, so an overloaded peer bounds the duplicate work.
  std::uint64_t job_id = 0;
  if (fleet_.scheduler(best).release_job(task_id, /*report=*/false, released,
                                         &job_id)) {
    collector.record(released, metrics::EventKind::kAdmit,
                     metrics::EventCause::kHomeAdmit, best, -1, task_id);
    r.status = RouteResult::Status::kAdmitted;
    r.gpu = best;
    r.job_id = job_id;
    return r;
  }
  return drop(task_id, best, released);
}

RouteResult Router::migrate(int task_id, int from, int peer,
                            common::Time released) {
  RouteResult pending;
  pending.status = RouteResult::Status::kPending;
  if (!fleet_.model_hot(peer, task_id)) {
    // Cold target: ship the weights with the job, delivering once the copy
    // lands. If a copy of this model is already in flight toward the peer
    // and coalescing is on, the job attaches to it instead of shipping a
    // duplicate; otherwise the transfer is charged up front (the bytes move
    // even if the peer later rejects the job).
    const double mb = fleet_.transfer_mb(task_id);
    const common::Duration delay =
        common::from_us(mb * fleet_.transfer_us_per_mb());
    const common::Time now = fleet_.simulator().now();
    metrics::Collector& collector = fleet_.collector();
    if (config_.coalesce && delay > 0) {
      const auto lead = inflight_copy_.find(
          CoalesceKey{peer, fleet_.model_of(task_id)});
      if (lead != inflight_copy_.end()) {
        const common::Time arrive = inflight_.at(lead->second).arrive;
        collector.record(now, metrics::EventKind::kCoalesce,
                         metrics::EventCause::kCoalesced, peer, -1, task_id,
                         mb);
        // The attacher's delivery event is scheduled after the leader's, so
        // at equal arrival times it runs second — the leader's delivery has
        // already warmed the model when this job is offered.
        queue_delivery(task_id, from, peer, released, arrive,
                       /*leader=*/false);
        return pending;
      }
    }
    collector.record(now, metrics::EventKind::kTransfer,
                     metrics::EventCause::kColdModel, peer, -1, task_id, mb);
    if (delay > 0) {
      queue_delivery(task_id, from, peer, released, now + delay,
                     /*leader=*/config_.coalesce);
      return pending;
    }
  }
  return deliver(task_id, from, peer, released);
}

std::uint64_t Router::queue_delivery(int task_id, int from, int peer,
                                     common::Time released,
                                     common::Time arrive, bool leader) {
  const std::uint64_t id = next_transfer_id_++;
  PendingRec rec;
  rec.task = task_id;
  rec.from = from;
  rec.peer = peer;
  rec.released = released;
  rec.arrive = arrive;
  rec.leader = leader;
  if (static_cast<std::size_t>(peer) >= pending_to_.size()) {
    pending_to_.resize(static_cast<std::size_t>(peer) + 1, 0);
  }
  ++pending_to_[static_cast<std::size_t>(peer)];
  add_pending_job(task_id, 1);
  rec.handle =
      fleet_.simulator().schedule_at(arrive, [this, id] {
        complete_transfer(id);
      });
  inflight_.emplace(id, rec);
  if (leader) {
    inflight_copy_[CoalesceKey{peer, fleet_.model_of(task_id)}] = id;
  }
  return id;
}

void Router::complete_transfer(std::uint64_t id) {
  const auto it = inflight_.find(id);
  if (it == inflight_.end()) return;  // cancelled
  const PendingRec rec = it->second;
  inflight_.erase(it);
  finish_pending(rec);
  deliver(rec.task, rec.from, rec.peer, rec.released);
}

void Router::finish_pending(const PendingRec& rec) {
  --pending_to_[static_cast<std::size_t>(rec.peer)];
  add_pending_job(rec.task, -1);
  if (rec.leader) {
    inflight_copy_.erase(CoalesceKey{rec.peer, fleet_.model_of(rec.task)});
  }
}

void Router::cancel_transfers_to(int g) {
  if (inflight_.empty()) return;
  // Snapshot the ids first: retargeting re-enters migrate(), which inserts
  // new records. Ascending id order is the arrival order of the original
  // migrations, so cancellation — like everything else here — is a pure
  // function of the event history.
  std::vector<std::uint64_t> ids;
  for (const auto& [id, rec] : inflight_) {
    if (rec.peer == g) ids.push_back(id);
  }
  for (const std::uint64_t id : ids) {
    const auto it = inflight_.find(id);
    if (it == inflight_.end()) continue;
    const PendingRec rec = it->second;
    fleet_.simulator().cancel(rec.handle);
    inflight_.erase(it);
    finish_pending(rec);
    fleet_.collector().count(&metrics::FleetCounters::transfer_cancels);
    // The bytes already shipped toward g are sunk; the job is not. Retarget
    // it to the best surviving device (a cancelled leader's followers
    // retarget right after it and coalesce onto its new copy) or drop it
    // when the fleet has nowhere left.
    const int alt = fleet_.best_placeable(g);
    if (alt >= 0) {
      migrate(rec.task, rec.from, alt, rec.released);
    } else {
      drop(rec.task, rec.from, rec.released,
           metrics::EventCause::kRetarget);
    }
  }
}

RouteResult Router::deliver(int task_id, int from, int peer,
                            common::Time released) {
  // Cancellation retires transfers to unplaceable devices at the fault
  // instant, so a delivery can only race a fault landing at the exact same
  // timestamp; the bytes are already spent either way, the job is not.
  if (!fleet_.placeable(peer)) {
    return drop(task_id, from, released);
  }
  // Weights are on the device now (transfer done, or hot already); pin them
  // so repeat migrations of this model are free. The job keeps its original
  // release time: the transfer consumed deadline slack (and shows in its
  // response time), it did not reset the clock.
  fleet_.warm_model(peer, task_id);
  std::uint64_t job_id = 0;
  if (fleet_.scheduler(peer).release_job(task_id, /*report=*/false, released,
                                         &job_id)) {
    fleet_.collector().record(fleet_.simulator().now(),
                              metrics::EventKind::kMigrate,
                              metrics::EventCause::kSpill, from, peer, task_id);
    RouteResult r;
    r.status = RouteResult::Status::kAdmitted;
    r.gpu = peer;
    r.job_id = job_id;
    return r;
  }
  return drop(task_id, from, released);
}

RouteResult Router::drop(int task_id, int gpu, common::Time released,
                         metrics::EventCause cause) {
  const auto& spec = fleet_.spec(task_id);
  metrics::Collector& collector = fleet_.collector();
  collector.on_reject(spec.priority);
  collector.record(released, metrics::EventKind::kReject, cause, gpu, -1,
                   task_id);
  RouteResult r;
  r.cause = cause;
  return r;
}

int Router::pending_jobs(int task_id) const {
  const auto i = static_cast<std::size_t>(task_id);
  return i < pending_jobs_.size() ? pending_jobs_[i] : 0;
}

void Router::add_pending_job(int task_id, int delta) {
  const auto i = static_cast<std::size_t>(task_id);
  if (i >= pending_jobs_.size()) pending_jobs_.resize(i + 1, 0);
  pending_jobs_[i] += delta;
  const auto cls = static_cast<std::size_t>(
      fleet_.spec(task_id).priority);
  if (delta > 0) {
    ++pending_cls_[cls];
  } else if (delta < 0) {
    --pending_cls_[cls];
  }
}

}  // namespace daris::cluster
