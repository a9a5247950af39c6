// Cluster experiment runner: wires a GPU fleet, shared compiled models,
// offline AFET profiling, per-GPU DARIS schedulers, the routing front-end,
// and a release driver (periodic or open-loop) into one reproducible run.
// Mirrors RunConfig/run_daris one level up the stack.
#pragma once

#include <cstdint>
#include <functional>
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

/// A fleet run: the fleet itself (cluster::FleetConfig: devices, scheduler
/// config, transfer cost, seed) plus its workload, routing and run options.
/// With heterogeneous `nodes`, AFET is profiled per distinct device spec,
/// and the kernels stay calibrated against `gpu`: a scaled device simply
/// runs them faster or slower.
struct ClusterConfig : cluster::FleetConfig {
  workload::TaskSetSpec taskset;
  cluster::RoutingPolicy routing = cluster::RoutingPolicy::kLeastUtilization;
  /// Hybrid policy: home-GPU relative load at which LP jobs spill.
  double spill_threshold = 0.75;
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
  /// token-bucket retry budget, hedged LP requests. The default (disabled)
  /// config makes the layer a pass-through to the router, leaving the run
  /// byte-identical to one predating it.
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

/// A fleet run's outcome: every fleet counter (metrics::FleetCounters,
/// filled from the run's collector) plus the class summaries, the per-device
/// slices and the run's artifacts.
struct ClusterResult : metrics::FleetCounters {
  /// Non-empty when run_cluster refused the config (validate_faults); no
  /// other field is filled then.
  std::string error;
  double total_jps = 0.0;
  metrics::ClassSummary hp;
  metrics::ClassSummary lp;
  std::vector<GpuSummary> per_gpu;
  std::uint64_t intra_gpu_migrations = 0;
  std::uint64_t arrivals = 0;  // open-loop + trace modes; 0 for periodic
  /// `rebalancing` and `resilience` record ClusterConfig's switches. Nothing
  /// branches on them; they stay declared only because
  /// perfbench/src/traced.cpp assigns them — delete them the next time the
  /// benchmark harness changes.
  bool rebalancing = false;
  bool resilience = false;
  /// Always 0: there is no breaker. Still declared only because perfbench
  /// hashes them (perfbench/src/outcome.cpp), and counters_of lists them so
  /// no fingerprint key moves; delete them the next time the benchmark
  /// harness changes.
  std::uint64_t breaker_opens = 0;
  std::uint64_t breaker_closes = 0;
  /// Trace rows skipped because no task serves their (model, SLO) class.
  std::uint64_t unmatched_rows = 0;
  /// p99 of the client-perceived (first-finish) response over hedged pairs,
  /// ms; 0 when nothing was hedged. The per-job histograms keep recording
  /// losing copies, so this is the number hedging actually moves.
  double hedge_client_p99_ms = 0.0;
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

/// One named scalar of a fleet run (see counters_of).
struct NamedCounter {
  std::string name;
  double value = 0.0;
};

/// Every scalar a fleet run reports, as (name, value) pairs in one fixed
/// order: the fleet-wide counters, then each device's GpuSummary as
/// `gpu<g>_<field>` (RoutingCounters fields included). A counter that
/// run_scenario gates on is named as its metric (`infeasible`, `coalesced`,
/// `hedge_rescued`, `conservation`, ...), every other one after its field
/// (`hp_released`, `steal_scans`, ...); names are unique. Counts travel as
/// doubles: all stay below 2^53, where %.17g prints them as %llu does.
/// Fingerprints, scenario metrics, goldens and repeat checks iterate this
/// list, so a new fleet counter is its metrics::FleetCounters field (plus
/// its add_counts case or Collector::count call) and its entry here;
/// run_cluster copies every FleetCounters field at once. Computed on demand
/// from one result; run_cluster never calls it.
std::vector<NamedCounter> counters_of(const ClusterResult& r);

/// The counters written out as `name=value;` entries (%.17g): the text
/// fingerprints and goldens compare.
std::string format_counters(const std::vector<NamedCounter>& counters);

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
/// only the error. `inspect`, when set, sees the fleet after the run and
/// before its teardown: the test suites audit every scheduler there
/// (rt::Scheduler::audit), which a run does not do itself.
ClusterResult run_cluster(
    const ClusterConfig& config,
    const std::function<void(const cluster::Fleet&)>& inspect = {});

}  // namespace daris::exp
