// Simulated outcomes of one workload repetition: the paper-style metrics the
// benchmark reports next to host time, and a digest over everything the
// simulation decided. For a fixed seed both are identical on every run, at
// any lane count; they move only when scheduling behaviour changes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "experiments/cluster_runner.h"
#include "experiments/runner.h"

namespace perfbench {

struct Outcome {
  double sim_jps = 0.0;           // simulated throughput (grid: peak point)
  double goodput_frac = 0.0;      // on-time finishes over releases
  double hp_dmr = 0.0;            // misses over completions (grid: pooled)
  double lp_dmr = 0.0;
  double hp_p50_ms = 0.0;         // response quantiles (grid: peak point)
  double hp_p99_ms = 0.0;
  double lp_p50_ms = 0.0;
  double lp_p99_ms = 0.0;
  std::uint64_t hp_samples = 0;   // response samples behind the quantiles
  std::uint64_t lp_samples = 0;
  std::uint64_t jobs_completed = 0;  // measured-window completions, all runs
  std::string peak_label;            // grid only
  bool conservation_ok = true;
  std::uint64_t digest = 0;
};

/// One grid point's result and the configuration that produced it.
struct GridRun {
  const daris::exp::RunConfig* config;
  daris::exp::RunResult result;
};

/// Fixed-size digest of one run_daris result.
std::uint64_t digest_of(const daris::exp::RunResult& r);
/// Fixed-size digest of one run_cluster result.
std::uint64_t digest_of(const daris::exp::ClusterResult& r);

/// Folds a grid's point results (in grid order) into one outcome; `labels`
/// names the points.
Outcome grid_outcome(const std::vector<GridRun>& runs,
                     const std::vector<std::string>& labels);

/// Outcome of one fleet run.
Outcome cluster_outcome(const daris::exp::ClusterConfig& config,
                        const daris::exp::ClusterResult& r);

}  // namespace perfbench
