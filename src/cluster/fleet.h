// Multi-GPU fleet: N simulated GPUs, each running its own DARIS scheduler,
// on a sharded discrete-event simulator (one event heap per device plus a
// control heap for everything fleet-scoped; sim/sharded.h).
//
// Every task is registered once, in the fleet's task table, which every
// device's scheduler shares: any GPU can run any task's jobs (the router can
// place any job anywhere), but a scheduler keeps per-device state for a
// task only as it needs it (rt::Scheduler: an 8-byte slot per task, and a
// full record once it has admitted one of the task's jobs). The static HP
// reservation of Eq. 11 (U^{h,t}_k) is charged only on the task's *home*
// GPU (rt::Scheduler::resident); otherwise every device would reserve the
// fleet-wide task list's HP demand, N times the real one, and starve LP
// admission everywhere.
//
// Model weights are a per-device resource: each GPU pins ("keeps hot") the
// models of the tasks homed on it. A job may still run where its model is
// cold, but the reactive migration of a rejected job to such a device ships
// the model's footprint first (Router charges `weight_mb *
// transfer_us_per_mb` of delay); a successful transfer warms the model on
// the target, so repeat migrations of a hot model are free. Device memory
// is not modelled: the paper's three models weigh 253.7 MB together, 2.3%
// of an 11 GB RTX 2080 Ti, so no set of pinned models can fill one. See
// docs/CLUSTER.md.
//
// Fleets may be heterogeneous: each device carries a GpuNodeSpec (a compute
// scale over a base spec). Placement comparisons between devices go
// through `placement_score()` (load normalised by compute scale) so a
// half-size GPU at 40% admitted utilisation ranks busier than a flagship at
// 50%. The scores live in one contiguous table that each device's scheduler
// rewrites whenever its admitted utilisation changes, so a placement scan
// over the fleet reads one array instead of every scheduler's contexts.
//
// Per-GPU seeds, schedulers, and MRET estimators are independent: each
// device accumulates its own execution-time history, exactly as real MPS
// daemons would.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "daris/scheduler.h"
#include "gpusim/gpu.h"
#include "metrics/collector.h"
#include "metrics/eventlog.h"
#include "sim/simulator.h"

namespace daris::sim {
class ShardedSimulator;
}

namespace daris::cluster {

/// One device of a (possibly heterogeneous) fleet.
struct GpuNodeSpec {
  /// Architectural template; compute_scale is applied on top of it.
  gpusim::GpuSpec base = gpusim::GpuSpec::rtx2080ti();

  /// Relative throughput versus the base spec: scales the SM count and the
  /// memory bandwidth together (0.5 = half-size inference card, 2.0 =
  /// flagship). Latency constants (launch/sync overhead) are host-side and
  /// stay as the base spec sets them.
  double compute_scale = 1.0;

  /// The base spec with compute_scale applied.
  gpusim::GpuSpec resolved() const;
};

/// Lifecycle state of one device (fault injection / autoscaling; see
/// docs/SCENARIOS.md). Healthy devices take placements; draining devices
/// finish their in-flight work but receive nothing new; failed devices are
/// dead — their in-flight jobs were shed as misses at the failure instant.
enum class GpuHealth { kHealthy, kDraining, kFailed };

struct FleetConfig {
  /// Homogeneous fleet: `num_gpus` copies of `gpu`. Ignored when `nodes` is
  /// non-empty.
  int num_gpus = 4;
  gpusim::GpuSpec gpu = gpusim::GpuSpec::rtx2080ti();

  /// Heterogeneous fleet: one entry per device (overrides num_gpus/gpu).
  std::vector<GpuNodeSpec> nodes;

  rt::SchedulerConfig sched;

  /// Cross-GPU weight-transfer cost, microseconds per MB of model
  /// footprint, charged when a rejected job migrates to a device where its
  /// model is cold. 80 us/MB ~= PCIe 3.0 x16 effective bandwidth. 0 restores
  /// the zero-delay migration premise.
  double transfer_us_per_mb = 80.0;

  std::uint64_t seed = 42;

  /// Devices the fleet starts with: one per node, else max(1, num_gpus).
  int device_count() const {
    return nodes.empty() ? std::max(1, num_gpus)
                         : static_cast<int>(nodes.size());
  }
};

class Fleet {
 public:
  /// Creates one GPU + scheduler pair per configured device; device g lives
  /// on `sharded.shard(g)` and its local events run in the parallel phase,
  /// while everything fleet-scoped (fault timers, rehoming, the router and
  /// rebalancer via simulator()) stays on the control shard. The simulator
  /// must be sized to the fleet: device_shards() == the configured device
  /// count. All job and stage events and every fleet decision flow into
  /// `collector` (required; collector()), stamped with the device index.
  /// The fleet sizes the collector's per-GPU routing counters to its devices
  /// (resetting them); runs with more than one lane need its per-device
  /// lanes enabled (metrics::Collector::enable_lanes).
  Fleet(sim::ShardedSimulator& sharded, const FleetConfig& config,
        metrics::Collector* collector);

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// The control-shard simulator: cross-device event timelines — routing,
  /// transfers, faults — live here.
  sim::Simulator& simulator() { return sim_; }

  /// The collector the fleet was built on. The router, rebalancer and
  /// resilience layer count every decision here, so the per-GPU counters
  /// they index are always the ones the fleet sized.
  metrics::Collector& collector() { return *collector_; }

  int size() const { return static_cast<int>(gpus_.size()); }

  /// The run seed (FleetConfig::seed): every device's jitter seed is a draw
  /// of Rng(seed()), and the resilience layer seeds its backoff jitter with
  /// it.
  std::uint64_t seed() const { return seed_; }

  gpusim::Gpu& gpu(int g) { return *gpus_[static_cast<std::size_t>(g)]; }
  rt::Scheduler& scheduler(int g) {
    return *schedulers_[static_cast<std::size_t>(g)];
  }
  const rt::Scheduler& scheduler(int g) const {
    return *schedulers_[static_cast<std::size_t>(g)];
  }

  /// The device's configured node spec (resolved view of a homogeneous
  /// fleet's template when `FleetConfig::nodes` was empty).
  const GpuNodeSpec& node(int g) const {
    return nodes_[static_cast<std::size_t>(g)];
  }
  double compute_scale(int g) const { return node(g).compute_scale; }

  /// Registers the task once for the whole fleet (every scheduler sees it
  /// under the same id) with `home_gpu` carrying its static HP reservation,
  /// and pins the task's model hot on the home GPU. O(1): no device but the
  /// home writes anything. Returns the task id.
  int add_task(const rt::TaskSpec& spec, const dnn::CompiledModel* model,
               int home_gpu);

  /// Seeds the task's MRET estimate on every GPU (Eq. 10).
  void set_afet(int task_id, const std::vector<double>& per_stage_us);

  /// Seeds one device's MRET estimate (heterogeneous fleets profile AFET
  /// per node spec). Seeding one task on every device with the same vector
  /// searches the table's seed pool once (rt::TaskTable::intern).
  void set_afet(int task_id, int g, const std::vector<double>& per_stage_us);

  /// Algorithm 1 initial context assignment, on every GPU.
  void run_offline_phase();

  int task_count() const { return static_cast<int>(home_.size()); }
  int home_gpu(int task_id) const {
    return home_[static_cast<std::size_t>(task_id)];
  }
  /// The fleet's task table: every registered task's spec, model and
  /// fleet-wide active count, and the interned AFET seeds.
  const rt::TaskTable& tasks() const { return tasks_; }
  const rt::TaskSpec& spec(int task_id) const {
    return tasks_[task_id].spec;
  }
  const dnn::CompiledModel* model_of(int task_id) const {
    return tasks_[task_id].model;
  }
  /// Per-device task records created so far, summed over the fleet: the
  /// (task, device) pairs that have admitted a job (rt::Scheduler::task).
  std::uint64_t task_records() const;

  /// Moves one task's home (and its Eq. 11 HP reservation) to `to`, warming
  /// its model there. The rebalancer's demand-aware re-homing and the fault
  /// paths both land here; `cause` distinguishes them in the event log
  /// (kNone: fault-driven, kDemandShift: periodic rebalancing). No-op when
  /// the task is already homed on `to`.
  void rehome_task(int task_id, int to,
                   metrics::EventCause cause = metrics::EventCause::kNone);

  /// Admitted (active) utilisation of GPU g — the router's load signal.
  double load(int g) const { return scheduler(g).active_utilization(); }

  /// load(g) normalised to [0, ~1] by the device's total stream capacity
  /// (Nc x Ns). The hybrid policy's spill threshold compares against this.
  double relative_load(int g) const;

  /// Device-comparable busyness: load(g) divided by the node's compute
  /// scale, so heterogeneous devices rank by absolute headroom. Identical
  /// to load(g) in homogeneous fleets. A read of the placement table: the
  /// device's scheduler stores this quotient, from the same operands, on
  /// every change to its admitted utilisation (rt::Scheduler::publish_load),
  /// and slow_gpu_now on every change to its scale; check_conservation
  /// re-derives each entry bit for bit. Read it in the control phase.
  double placement_score(int g) const {
    return placement_[static_cast<std::size_t>(g)];
  }

  /// The placeable device other than `exclude` that `eligible(g)` accepts
  /// with the lowest placement score, ties to the lowest index; -1 when
  /// none qualifies. Every placement scan (routing, hedging, rehoming, work
  /// stealing) goes through here. Read it in the control phase.
  ///
  /// `eligible` must be pure: it is asked only about a device that would
  /// win, one whose score is below the best accepted so far, so a scan
  /// costs one predicate call per improvement rather than one per device.
  template <typename Eligible>
  int best_placeable(int exclude, Eligible eligible) const {
    int best = -1;
    double best_score = std::numeric_limits<double>::infinity();
    for (int g = 0; g < size(); ++g) {
      if (g == exclude || !placeable(g)) continue;
      const double score = placement_score(g);
      if (score < best_score && eligible(g)) {
        best_score = score;
        best = g;
      }
    }
    return best;
  }
  int best_placeable(int exclude = -1) const {
    return best_placeable(exclude, [](int) { return true; });
  }

  // --- model memory (hot-weight pinning) ---------------------------------

  /// Weight footprint shipped when a job of the task migrates to a cold
  /// device, in MB.
  double transfer_mb(int task_id) const;
  double transfer_us_per_mb() const { return transfer_us_per_mb_; }

  /// True when the task's model weights are pinned on GPU g (no transfer
  /// needed to run there).
  bool model_hot(int g, int task_id) const;

  /// Pins the task's model on GPU g (called after a successful weight
  /// transfer); a no-op when it is hot already.
  void warm_model(int g, int task_id);

  /// Distinct models pinned hot on GPU g (telemetry gauge).
  int hot_model_count(int g) const {
    return static_cast<int>(hot_models_[static_cast<std::size_t>(g)].size());
  }

  // --- fleet-level admission (feasibility) -------------------------------

  /// True when some placeable device could host a job of the task at all:
  /// for jobs subject to the admission test, one job's utilisation fits an
  /// idle context there (Eq. 12 could ever pass). The router rejects
  /// infeasible jobs outright instead of bouncing them through migration
  /// retries.
  bool feasible(int task_id) const;

  /// Fleet-wide admitted-but-unfinished jobs of one logical task. The
  /// schedulers' per-device backlog guard only sees local jobs; the router
  /// applies the same guard against this sum so an overloaded task cannot
  /// hold one job per device (jobs the paper's single-GPU admission would
  /// shed must be shed here too, not queued into lateness). O(1): every
  /// device's scheduler keeps the one shared count (rt::TaskTable::active).
  /// Read it in the serial control phase only.
  int active_jobs(int task_id) const {
    return tasks_.active(task_id).load(std::memory_order_relaxed);
  }

  /// Jobs completed by GPU g (all priorities, includes warm-up).
  std::uint64_t jobs_completed(int g) const {
    return scheduler(g).jobs_completed();
  }

  /// Sum of intra-GPU (context-level) migrations across the fleet.
  std::uint64_t intra_gpu_migrations() const;

  // --- fault injection / autoscaling -------------------------------------
  //
  // Each transition acts immediately. A timed fault is an ordinary event
  // the caller schedules on the control simulator (simulator()) that runs
  // the *_now transition, so fault timelines obey the same (when, seq)
  // determinism contract as every other event (exp::run_cluster schedules
  // ClusterConfig::faults this way). The fleet must outlive the simulator
  // run, as with the release drivers.

  GpuHealth health(int g) const { return health_[static_cast<std::size_t>(g)]; }

  /// True when the router may place new work on g: healthy (neither failed
  /// nor draining).
  bool placeable(int g) const { return health(g) == GpuHealth::kHealthy; }

  /// Always false: there is no breaker. Still declared only because
  /// perfbench/src/traced.cpp samples it; delete it the next time the
  /// benchmark harness changes.
  bool breaker_open(int /*g*/) const { return false; }

  // --- job-conservation invariant ----------------------------------------

  /// Router-side accounting the fleet cannot see, indexed by priority class
  /// ([0] = kHigh, [1] = kLow): route attempts (first releases + retries +
  /// hedges), synchronous + asynchronous sheds, transfers still in flight,
  /// and the rebalancer's successful steals (each steal re-admits the job on
  /// the thief, inflating the schedulers' admit sum by one without a new
  /// route attempt).
  struct ConservationInput {
    std::uint64_t released[2] = {0, 0};
    std::uint64_t shed[2] = {0, 0};
    std::uint64_t pending[2] = {0, 0};
    std::uint64_t steals = 0;  // LP only: the rebalancer steals queued LP jobs
  };

  struct ConservationReport {
    bool ok = true;
    /// Per-class accounting, filled either way; `detail` names the first
    /// violated identity when !ok.
    std::uint64_t released[2] = {0, 0};
    std::uint64_t accounted[2] = {0, 0};
    std::string detail;
  };

  /// Checks that no job was double-counted or leaked: per class,
  ///   released == shed + pending + sum_g(completed + failed + in_flight)
  ///               + (sum_g revoked - steals)
  /// (a steal's revoke is cancelled by its re-admit; every other revoke is a
  /// cancelled hedge copy whose surviving twin is counted once), after first
  /// verifying each scheduler's internal identity
  ///   admitted == completed + failed + revoked + in_flight,
  /// per logical task, that the shared count behind active_jobs equals
  ///   sum_g scheduler(g).active_jobs(t)
  /// (summed over the records that exist: a pair without one has none),
  /// and, per device, that the placement table holds exactly (bit for bit)
  ///   scheduler(g).active_utilization() / compute_scale(g).
  /// Runs at end of run over live counters — O(tasks + devices + records +
  /// in-flight jobs).
  ConservationReport check_conservation(const ConservationInput& in) const;

  /// Fail-stop: sheds every in-flight job on g (reported as missed
  /// finishes — see rt::Scheduler::fail_all_jobs), halts the simulated
  /// device, and rehomes the tasks homed on g (their Eq. 11 HP reservation
  /// moves to the least-loaded placeable device, and their models are
  /// warmed there). Returns the number of jobs lost.
  std::size_t fail_gpu_now(int g);

  /// Straggler: multiplies g's compute scale by `factor` (< 1 slows, > 1
  /// restores/boosts) and feeds the re-resolved spec into the simulated
  /// device, which re-derives every resident kernel's rate deterministically
  /// (gpusim::Gpu::set_spec). MRET adapts online; callers that want the
  /// admission side to see the change immediately should re-seed AFET from
  /// a profile of node(g).resolved() (cluster_runner does).
  void slow_gpu_now(int g, double factor);

  /// Graceful scale-down: g stops receiving placements but finishes its
  /// in-flight work; tasks homed on g are rehomed as in fail_gpu_now.
  void drain_gpu_now(int g);

  /// Scale-up: appends a healthy device mid-run. Its jitter seed is the
  /// next draw of the fleet's seed sequence (so a run with an add at time T
  /// is a pure function of (config, seed, T)), its scheduler shares the
  /// task table and so sees every registered task non-resident (homes do
  /// not move on scale-up), and the collector's routing counters grow in
  /// place. The caller owns AFET seeding and the offline phase on the new
  /// device (see run_offline_phase(g)); until then its tasks fall back to
  /// late context assignment. Returns the new index.
  int add_gpu_now(const GpuNodeSpec& node);

  /// Algorithm 1 on one device (after add_gpu_now + AFET seeding).
  void run_offline_phase(int g) { scheduler(g).run_offline_phase(); }

  /// Jobs shed by fail_gpu_now across the fleet (missed finishes).
  std::uint64_t jobs_lost() const {
    return collector_->fleet_counters().jobs_lost;
  }

  /// Registers a callback invoked the instant a device stops being
  /// placeable (fail_gpu_now / drain_gpu_now), before the fleet rehomes the
  /// device's tasks. The router uses it to cancel or retarget weight
  /// transfers still in flight toward the dead device (delivering bytes to
  /// a halted GPU would strand the jobs riding them). One observer; a new
  /// registration replaces the old, nullptr clears it.
  void set_on_unplaceable(std::function<void(int)> fn) {
    on_unplaceable_ = std::move(fn);
  }

 private:
  /// Moves every task homed on `g` to best_placeable(). No-op for tasks
  /// homed elsewhere; if no placeable device remains, homes stay and
  /// feasible() sheds the releases.
  void rehome_tasks_from(int g);
  /// Appends the next device's GPU + scheduler, on the shard of the same
  /// index, and its placement-table entry.
  void add_device(const GpuNodeSpec& node);
  /// Points every scheduler at its placement-table entry (after the table
  /// moved) with its node's current compute scale as the divisor.
  void bind_placement();
  sim::ShardedSimulator& sharded_;
  sim::Simulator& sim_;  // sharded_.control()
  /// Every scheduler's task table; declared before them, so it outlives
  /// their records.
  rt::TaskTable tasks_;
  std::vector<GpuNodeSpec> nodes_;
  std::vector<std::unique_ptr<gpusim::Gpu>> gpus_;
  std::vector<std::unique_ptr<rt::Scheduler>> schedulers_;
  std::vector<GpuHealth> health_;
  /// Placement table: placement_score(g) per device, written by device g's
  /// scheduler (on its shard) and by slow_gpu_now.
  std::vector<double> placement_;
  std::vector<int> home_;
  // Construction state: the canonicalized scheduler config every device
  // shares, the collector new schedulers report to, the run seed, and the
  // seed sequence the constructor drew per-GPU seeds from (a member so a
  // device added mid-run continues the same deterministic sequence).
  rt::SchedulerConfig sched_cfg_;
  metrics::Collector* collector_ = nullptr;
  std::uint64_t seed_ = 0;
  common::Rng seed_rng_{0};
  std::function<void(int)> on_unplaceable_;
  /// Per GPU: distinct models pinned hot.
  std::vector<std::vector<const dnn::CompiledModel*>> hot_models_;
  double transfer_us_per_mb_ = 0.0;
};

}  // namespace daris::cluster
