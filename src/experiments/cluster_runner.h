// Cluster experiment runner: wires a GPU fleet, shared compiled models,
// offline AFET profiling, per-GPU DARIS schedulers, the routing front-end,
// and a release driver (periodic or open-loop) into one reproducible run.
// Mirrors RunConfig/run_daris one level up the stack.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/rebalancer.h"
#include "cluster/resilience.h"
#include "cluster/router.h"
#include "experiments/runner.h"
#include "metrics/eventlog.h"
#include "metrics/profile.h"
#include "metrics/timeseries.h"
#include "workload/driver.h"
#include "workload/trace.h"

namespace daris::exp {

/// Release pattern driving the fleet.
enum class ArrivalMode {
  kPeriodic,  // strictly periodic (phase + k*T), the paper's workload
  kPoisson,   // open-loop Poisson arrivals at each task's nominal rate
  kBursty,    // open-loop two-state bursty (MMPP-style) arrivals
  kTrace,     // replay of ClusterConfig::trace through workload::TraceDriver
};

const char* arrival_mode_name(ArrivalMode m);

/// One scheduled fault / autoscaling action (docs/SCENARIOS.md). Actions
/// run as ordinary simulator events at `at_s`, so a faulted run stays a
/// pure function of (config, seed, fault list).
struct FaultSpec {
  enum class Kind {
    kFail,   // fail-stop: in-flight jobs become misses, device goes dark
    kSlow,   // straggler: multiply the device's compute scale by `factor`
    kDrain,  // graceful scale-down: finish in-flight, place nothing new
    kAdd,    // scale-up: bring `node` online, profiled and assigned live
  };
  Kind kind = Kind::kFail;
  int gpu = 0;         // target device index (ignored for kAdd)
  double at_s = 0.0;   // simulated seconds from run start (<= 0: at start)
  double factor = 1.0; // kSlow only (0.5 halves the device's throughput)
  cluster::GpuNodeSpec node;  // kAdd only: the device brought online
};

struct ClusterConfig {
  workload::TaskSetSpec taskset;
  rt::SchedulerConfig sched;
  gpusim::GpuSpec gpu = gpusim::GpuSpec::rtx2080ti();
  int num_gpus = 4;
  /// Heterogeneous fleet: one node spec per device (overrides num_gpus/gpu
  /// when non-empty). AFET is profiled per distinct compute scale, and the
  /// kernels stay calibrated against `gpu` — the scaled device simply runs
  /// them faster or slower.
  std::vector<cluster::GpuNodeSpec> nodes;
  cluster::RoutingPolicy routing = cluster::RoutingPolicy::kLeastUtilization;
  /// Hybrid policy: home-GPU relative load at which LP jobs spill.
  double spill_threshold = 0.75;
  /// Cross-GPU weight-transfer cost for cold-model migrations (us per MB of
  /// model footprint); 0 restores the zero-delay premise.
  double transfer_us_per_mb = 80.0;
  ArrivalMode arrivals = ArrivalMode::kPeriodic;
  /// Rate multiplier for the open-loop modes (>1 drives overload).
  double rate_scale = 1.0;
  /// kTrace arrivals: the trace to replay (rows map to taskset tasks
  /// round-robin within their (model, SLO) class).
  workload::Trace trace;
  /// Fault / autoscaling schedule; empty (the default) leaves the run
  /// byte-identical to a fault-free one. kSlow and kAdd re-profile AFET for
  /// the changed device via the same cached-by-spec path as construction.
  std::vector<FaultSpec> faults;
  double duration_s = 6.0;
  double warmup_s = 1.0;
  std::uint64_t seed = 42;
  bool stage_trace = false;

  /// Worker lanes of the sharded engine (sim/sharded.h) every fleet runs
  /// on: one event heap per device plus a control heap for cross-device
  /// events, which keep a seeded total order. Includes the calling thread;
  /// 1 (the default) drains the shards inline with no pool, <= 0 picks
  /// min(hardware_concurrency, device count). Results are identical at any
  /// value — the knob only changes wall-clock (bench_fig_scenarios --threads
  /// gates this across the scenario matrix).
  int sim_threads = 1;
  /// Ignored: every fleet runs on the sharded engine. Still declared only
  /// because perfbench/src/workloads.cpp assigns it; delete both together
  /// the next time the benchmark harness changes.
  bool sharded = false;

  /// Self-healing rebalancing (cluster/rebalancer.h): work stealing,
  /// demand-aware re-homing, and — via RouterConfig::coalesce — transfer
  /// coalescing, all armed by rebalance.enabled. The default (disabled)
  /// config schedules no events and installs no observers, leaving the run
  /// byte-identical to one predating the rebalancer.
  cluster::RebalanceConfig rebalance;

  /// Client resilience layer (cluster/resilience.h): retries with backoff,
  /// token-bucket retry budget, hedged LP requests, per-GPU circuit
  /// breakers. The default (disabled) config makes the layer a pass-through
  /// to the router, leaving the run byte-identical to one predating it.
  cluster::ResilienceConfig resilience;

  /// Telemetry (docs/OBSERVABILITY.md). When enabled, run_cluster arms a
  /// metrics::TimeSeries sampler over per-GPU and fleet gauges and turns on
  /// the collector's structured event log; both land in ClusterResult.
  /// Probes are const reads and the sampler is one pooled re-armed event,
  /// so enabling telemetry leaves every scheduling decision — and with it
  /// every scenario fingerprint — byte-identical (bench_fig_scenarios
  /// verifies this per run).
  struct TelemetryConfig {
    bool enabled = false;
    /// Sampler cadence in simulated seconds.
    double sample_period_s = 0.01;
    /// Event-log reservation (records); appends within it are free.
    std::size_t event_capacity = std::size_t{1} << 16;
  };
  TelemetryConfig telemetry;
};

/// Per-device slice of a cluster run.
struct GpuSummary {
  double utilization = 0.0;  // average SM utilisation over the run
  std::uint64_t completed = 0;          // jobs finished on this GPU
  std::uint64_t intra_migrations = 0;   // context-level (Eq. 12) migrations
  metrics::RoutingCounters routing;     // router outcomes for this GPU
};

struct ClusterResult {
  /// Non-empty when run_cluster refused the config (validate_faults); no
  /// other field is filled then.
  std::string error;
  double total_jps = 0.0;
  metrics::ClassSummary hp;
  metrics::ClassSummary lp;
  std::vector<GpuSummary> per_gpu;
  std::uint64_t cross_gpu_migrations = 0;
  std::uint64_t drops = 0;
  std::uint64_t infeasible_rejects = 0;  // fleet admission controller sheds
  std::uint64_t transfers = 0;           // cold-model weight transfers
  double transferred_mb = 0.0;           // total weight MB shipped
  std::uint64_t intra_gpu_migrations = 0;
  std::uint64_t arrivals = 0;  // open-loop + trace modes; 0 for periodic
  /// Rebalancing outcomes (all zero unless ClusterConfig::rebalance.enabled;
  /// `rebalancing` records the switch so reports can tell "off" from
  /// "on but idle").
  bool rebalancing = false;
  std::uint64_t steals = 0;         // queued LP jobs claimed by peers
  std::uint64_t steal_scans = 0;    // backlog-triggered scans executed
  std::uint64_t rehomes = 0;        // demand-driven home moves
  std::uint64_t rehome_rounds = 0;  // rounds that moved at least one home
  std::uint64_t coalesced_transfers = 0;  // migrations that attached to an
                                          // in-flight weight copy
  double coalesced_mb_saved = 0.0;        // MB those attachments did not ship
  /// In-flight transfers cancelled at a fault and retargeted or dropped
  /// (counted regardless of rebalance.enabled — cancellation is a
  /// correctness fix, not an opt-in policy).
  std::uint64_t transfer_cancels = 0;
  /// In-flight jobs shed by fail-stop faults (each also a missed finish).
  std::uint64_t jobs_lost = 0;
  /// Trace rows skipped because no task serves their (model, SLO) class.
  std::uint64_t unmatched_rows = 0;
  /// Resilience-layer outcomes (all zero unless
  /// ClusterConfig::resilience.enabled; `resilience` records the switch so
  /// reports can tell "off" from "on but idle").
  bool resilience = false;
  std::uint64_t first_attempts = 0; // releases entering the layer
  std::uint64_t retries = 0;        // re-releases actually attempted
  std::uint64_t retry_admits = 0;   // retries that ended in an admission
  std::uint64_t retry_abandoned_budget = 0;    // token bucket empty
  std::uint64_t retry_abandoned_expired = 0;   // original deadline passed
  std::uint64_t retry_abandoned_attempts = 0;  // max-attempts reached
  std::uint64_t hedges = 0;         // second copies admitted on a peer
  std::uint64_t hedge_wins = 0;     // pairs the hedge copy finished first
  std::uint64_t hedge_cancels = 0;  // losing copies revoked before starting
  std::uint64_t hedge_waste = 0;    // pairs where both copies ran
  /// Recorded misses the client never saw: the hedge made the deadline and
  /// the unrevocable primary completed past it (conservative lower bound —
  /// revoked-before-start primaries are not counted).
  std::uint64_t hedge_rescued_misses = 0;
  /// p99 of the client-perceived (first-finish) response over hedged pairs,
  /// ms; 0 when nothing was hedged. The per-job histograms keep recording
  /// losing copies, so this is the number hedging actually moves.
  double hedge_client_p99_ms = 0.0;
  std::uint64_t breaker_opens = 0;
  std::uint64_t breaker_closes = 0;
  /// Job-conservation invariant (Fleet::check_conservation), verified at
  /// the end of EVERY run: released == shed + pending + completed + failed
  /// + in-flight + cancelled, per class. A false here means the fleet
  /// leaked or double-counted a job — always a bug, never workload-related.
  bool conservation_ok = false;
  std::string conservation_detail;
  std::vector<metrics::StageEvent> stage_trace;

  /// Telemetry capture (empty unless ClusterConfig::telemetry.enabled).
  /// TimeSeries is move-only, which makes ClusterResult move-only too.
  metrics::TimeSeries timeseries;
  metrics::EventLog events;

  /// Self-profiler counters; always filled (the counters are maintained
  /// unconditionally, so reading them costs nothing).
  metrics::RunProfile profile;
};

/// Checks the fault schedule against the fleet it will run on. Returns an
/// error naming the first bad entry, or an empty string when every entry is
/// valid: times are finite and at most 1e9 s; a kSlow factor and a kAdd
/// node's compute scale are finite and > 0; and a kFail, kSlow or kDrain
/// targets a device that exists when it fires — one of the initial devices
/// or one brought online by a kAdd firing no later (at equal times, earlier
/// in the list: equal-time faults fire in list order).
std::string validate_faults(const ClusterConfig& config);

/// Runs the fleet on the configured task set and returns the fleet summary.
/// A config validate_faults rejects is not simulated: the result carries
/// only the error.
ClusterResult run_cluster(const ClusterConfig& config);

}  // namespace daris::exp
