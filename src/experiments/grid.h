// Policy/configuration grids shared by the Fig. 4-7 bench binaries.
#pragma once

#include <string>
#include <vector>

#include "experiments/runner.h"

namespace daris::exp {

/// The canonical policy-name table lives next to the enum (daris/config.h);
/// re-exported here so figure benches stop hardcoding parallel name arrays.
using rt::policy_name;

struct GridPoint {
  rt::SchedulerConfig sched;
  std::string label;  // "STR 1x4", "MPS 6x1 6", ...
};

/// The paper's configuration grid (Sec. V): STR with Ns in [2,10]; MPS with
/// Nc in {2,3,4,6,8,10} x OS in {1, 1.5, 2, Nc}; MPS+STR over Nc x Ns
/// combinations with Np <= 10 and OS in {1, 2, Nc}: 49 points, each listed
/// once (OS = Nc = 2 is not repeated).
std::vector<GridPoint> paper_grid(int batch = 1);

/// Just the MPS OS sweep for one context count.
std::vector<GridPoint> os_sweep_grid(int num_contexts);

struct GridResult {
  GridPoint point;
  RunResult result;
};

/// Runs every grid point on the task set, with RunConfig's warm-up.
std::vector<GridResult> run_grid(const workload::TaskSetSpec& taskset,
                                 const std::vector<GridPoint>& grid,
                                 double duration_s = 4.0);

/// Renders the standard throughput + DMR table for a figure, annotated with
/// the batching lower/upper baselines.
std::string render_figure_table(const std::vector<GridResult>& results,
                                double lower_jps, double upper_jps);

/// Best-throughput grid point (for summary lines).
const GridResult* best_throughput(const std::vector<GridResult>& results);

}  // namespace daris::exp
