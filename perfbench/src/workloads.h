// The benchmark's workloads, pinned inside the benchmark: every input is
// built here from the workload name and the seed, never read from a figure
// or scenario driver, so a change to those drivers cannot move the
// benchmark's inputs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "experiments/cluster_runner.h"
#include "experiments/runner.h"

namespace perfbench {

/// Worker lanes for sharded cluster runs (the benchmark machine's cores).
constexpr int kLanes = 4;

/// Fig. 4's published peak (paper Sec. VI-C): the only reference result the
/// benchmark can check its simulated outcomes against.
constexpr double kPaperPeakJps = 1158.0;

struct Workload {
  std::string name;
  /// Single-GPU grid: one exp::run_daris per point, run in sequence.
  std::vector<daris::exp::RunConfig> points;
  std::vector<std::string> point_labels;
  /// Fleet run through exp::run_cluster (used when `points` is empty).
  daris::exp::ClusterConfig cluster;

  bool is_grid() const { return !points.empty(); }
};

/// Names accepted by make_workload, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Builds the named workload's inputs from `seed`. `quick` shrinks every
/// workload to a second or less of host time (benchmark self-tests only).
/// Returns false for an unknown name.
bool make_workload(const std::string& name, std::uint64_t seed, bool quick,
                   Workload* out);

/// The one place the benchmark selects the sharded engine: every cluster
/// run goes through here, so retiring ClusterConfig::sharded in favour of
/// sim_threads alone is a one-line change.
void set_lanes(daris::exp::ClusterConfig* cfg, int lanes);

}  // namespace perfbench
