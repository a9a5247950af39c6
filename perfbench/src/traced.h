// The traced run: the simulator stack wired by hand from the public layer
// APIs, in the order exp::run_daris / exp::run_cluster wire it, with a
// steady_clock span around each call the benchmark makes into a layer. It
// must reproduce the untraced entry point's digest on the same seed; a
// mismatch means it measured a different program, and the run fails.
#pragma once

#include <cstdint>
#include <vector>

#include "experiments/cluster_runner.h"
#include "experiments/runner.h"

namespace perfbench {

/// Host seconds per layer call, summed over every traced run given the
/// same LayerSpans.
struct LayerSpans {
  double wall_s = 0.0;       // first library call to last destructor's return
  double setup_s = 0.0;      // everything before the first simulated event
  double compile_s = 0.0;    // dnn::compiled_model
  double afet_s = 0.0;       // rt::profile_afet
  double register_s = 0.0;   // add_task + set_afet loop
  double offline_s = 0.0;    // run_offline_phase (Algorithm 1)
  double run_until_s = 0.0;  // the simulate phase, sink spans included
  double sink_s = 0.0;       // ReleaseFn sink spans (nested in run_until)
  double finalize_s = 0.0;   // collector lane fold + summaries
  double teardown_s = 0.0;   // destruction of the wired stack
  double rss_after_setup_mb = 0.0;  // largest resident set seen after setup
  std::uint64_t register_calls = 0;  // per-device task registrations
  std::uint64_t sink_calls = 0;
  std::uint64_t sink_admits = 0;      // grid: release_job returned true
  std::uint64_t route_released = 0;   // cluster: router route attempts
  std::uint64_t route_shed = 0;       // cluster: router sheds
  std::vector<std::uint32_t> sink_ns;  // one duration per sink call

  /// Simulate-phase self time: run_until minus the sink spans inside it.
  double simulate_self_s() const { return run_until_s - sink_s; }
};

/// run_daris, wired by hand and traced.
daris::exp::RunResult traced_run_daris(const daris::exp::RunConfig& config,
                                       LayerSpans* spans);

/// run_cluster on the sharded engine with `lanes` worker lanes, wired by
/// hand and traced. Supports the homogeneous, fault-free, open-loop or
/// trace-driven fleets the benchmark's workloads use; aborts on any other
/// configuration.
daris::exp::ClusterResult traced_run_cluster(
    const daris::exp::ClusterConfig& config, int lanes, LayerSpans* spans);

/// Resident set size of this process right now, MB.
double current_rss_mb();
/// Peak resident set size of this process so far, MB.
double peak_rss_mb();

}  // namespace perfbench
