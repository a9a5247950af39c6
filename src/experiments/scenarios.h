// Scenario matrix: eleven named production-shaped runs — overload storm,
// fail-stop mid-burst, straggler, drain-under-load + autoscale, diurnal
// replay, flash crowd, the two self-healing recoveries (stealing,
// re-homing), retry-storm meltdown, hedging tail rescue, and the 64-GPU
// flash crowd — with committed behaviour thresholds on the scheduling
// outcomes: HP deadline-miss rate, starvation, worst stall, lost jobs,
// and the recovery gains over each counterfactual. The paper's
// figures check *speed and shape* under synthetic load; this matrix is the
// behaviour-regression gate under realistic and adversarial load
// (bench/fig_scenarios.cpp drives it, scripts/check_scenarios.py gates CI).
// docs/SCENARIOS.md is the catalogue and the how-to-add guide.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "experiments/cluster_runner.h"
#include "metrics/trace_report.h"

namespace daris::exp {

/// One committed threshold, evaluated against a named scenario metric.
struct ThresholdCheck {
  std::string metric;  // key into ScenarioResult::metrics
  char op = '<';       // '<': value <= limit, '>': value >= limit
  double limit = 0.0;
  double value = 0.0;
  bool pass = false;
};

struct ScenarioResult {
  std::string name;
  std::string description;
  ClusterResult cluster;  // stage_trace cleared (folded into `report`)
  metrics::TraceReport report;
  /// Named behaviour metrics the thresholds (and the CI gate) read: every
  /// counter of the run under its counters_of name, the counterfactual's
  /// as base_<name>, and the derived rates (hp_dmr, starved_frac,
  /// goodput_jps, the *_gain and *_cut differences, ...).
  std::map<std::string, double> metrics;
  /// A check on a metric missing from `metrics` reads NaN and fails.
  std::vector<ThresholdCheck> checks;
  bool pass = false;  // every check passed

  /// Behaviour digest for bit-identity comparison across repeated runs:
  /// format_counters over counters_of(cluster), then the stage-trace
  /// report's stages, context_switches, gpu_migrations, starved_stages and
  /// worst_stall_us.
  std::string fingerprint;

  /// Telemetry artifacts, filled only when run_scenario ran with telemetry
  /// on (docs/OBSERVABILITY.md documents both formats):
  /// - telemetry_json: {"scenario", "sample_period_us", "digest",
  ///   "fingerprint", "timeseries", "events", "profile"} — the profile's
  ///   wall-clock fields are host timing and are excluded from the digest.
  /// - perfetto_json: unified Chrome trace (stage spans + counter tracks +
  ///   instant events on shared per-GPU lanes).
  /// - telemetry_digest: FNV-1a over the deterministic telemetry sections;
  ///   equal digests across repeated runs certify deterministic telemetry.
  std::string telemetry_json;
  std::string perfetto_json;
  std::uint64_t telemetry_digest = 0;
};

/// Sampler cadence of a scenario's telemetry capture, simulated seconds:
/// ~600 samples over the 3 s scenarios, ~6k over the 30 s diurnal replay.
inline constexpr double kScenarioSamplePeriodS = 0.005;

/// Registered scenario names, in run order.
std::vector<std::string> scenario_names();

/// Runs one named scenario. Unknown names return a ScenarioResult with
/// pass = false and an "unknown scenario" description; a config run_cluster
/// refuses returns pass = false with cluster.error set and nothing run.
/// `telemetry` enables the sampler (every kScenarioSamplePeriodS) and the
/// event log and fills the telemetry artifacts in the result; it must not
/// change the behaviour fingerprint (bench_fig_scenarios verifies).
/// `sim_threads` is the worker-lane count of the run and of its
/// counterfactual (ClusterConfig::sim_threads); results are identical at any
/// value (bench_fig_scenarios --threads verifies).
ScenarioResult run_scenario(const std::string& name, bool telemetry = false,
                            int sim_threads = 1);

}  // namespace daris::exp
