// Shared experiment runner: wires GPU, compiled models, offline AFET
// profiling, the DARIS scheduler, the periodic driver, and metrics into one
// reproducible run. Every bench binary goes through this.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "daris/config.h"
#include "dnn/model.h"
#include "gpusim/gpu_spec.h"
#include "metrics/collector.h"
#include "metrics/profile.h"
#include "sim/simulator.h"
#include "workload/taskset.h"

namespace daris::gpusim {
class Gpu;
}

namespace daris::exp {

struct RunConfig {
  workload::TaskSetSpec taskset;
  rt::SchedulerConfig sched;
  gpusim::GpuSpec gpu = gpusim::GpuSpec::rtx2080ti();
  double duration_s = 6.0;
  double warmup_s = 1.0;
  std::uint64_t seed = 42;
  bool stage_trace = false;
};

struct RunResult {
  double total_jps = 0.0;
  metrics::ClassSummary hp;
  metrics::ClassSummary lp;
  double gpu_utilization = 0.0;
  std::uint64_t migrations = 0;
  std::vector<metrics::StageEvent> stage_trace;
  /// Self-profiler counters (always filled; see metrics/profile.h).
  metrics::RunProfile profile;
};

/// Runs DARIS on the configured task set and returns the measured summary.
RunResult run_daris(const RunConfig& config);

// --- Setup shared by run_daris and run_cluster ----------------------------

/// One compiled model per model kind of a task set, shared by every task
/// (and, in a fleet, every GPU) of the run — MPS shares weights across
/// contexts, the zero-delay migration premise.
struct CompiledModels {
  std::map<dnn::ModelKind, std::unique_ptr<dnn::CompiledModel>> by_kind;
  /// The same models in kind order: the list rt::profile_afet measures.
  std::vector<const dnn::CompiledModel*> distinct;

  const dnn::CompiledModel* of(dnn::ModelKind kind) const {
    return by_kind.at(kind).get();
  }
};

/// Compiles each model kind `taskset` uses once, at `batch`, calibrated
/// against `gpu`.
CompiledModels compile_models(const workload::TaskSetSpec& taskset, int batch,
                              const gpusim::GpuSpec& gpu);

/// Sums the fluid-solver counters of `gpus` into `profile`. The engine's
/// counters are the runner's one assignment of its simulator's stats() to
/// the RunProfile base they fill.
void add_solver_stats(const std::vector<const gpusim::Gpu*>& gpus,
                      metrics::RunProfile* profile);

/// Host wall-clock milliseconds since `t0` (RunProfile phase timings).
double wall_ms_since(std::chrono::steady_clock::time_point t0);

/// Paper-vs-measured helper: relative error string like "+3.2%".
std::string relative_error(double measured, double expected);

}  // namespace daris::exp
