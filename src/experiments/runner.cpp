#include "experiments/runner.h"

#include <chrono>
#include <cstdio>

#include "daris/offline.h"
#include "daris/scheduler.h"
#include "dnn/zoo.h"
#include "gpusim/gpu.h"
#include "sim/simulator.h"
#include "workload/driver.h"

namespace daris::exp {

CompiledModels compile_models(const workload::TaskSetSpec& taskset, int batch,
                              const gpusim::GpuSpec& gpu) {
  CompiledModels models;
  for (const auto& t : taskset.tasks) {
    if (!models.by_kind.count(t.model)) {
      models.by_kind.emplace(t.model,
                             std::make_unique<dnn::CompiledModel>(
                                 dnn::compiled_model(t.model, batch, gpu)));
    }
  }
  models.distinct.reserve(models.by_kind.size());
  for (const auto& [kind, m] : models.by_kind) models.distinct.push_back(m.get());
  return models;
}

void add_solver_stats(const std::vector<const gpusim::Gpu*>& gpus,
                      metrics::RunProfile* profile) {
  for (const gpusim::Gpu* gpu : gpus) {
    const gpusim::Gpu::SolverStats& ss = gpu->solver_stats();
    profile->solver_flushes += ss.flushes;
    profile->solver_contexts_solved += ss.contexts_solved;
    profile->solver_contexts_reused += ss.contexts_reused;
  }
}

double wall_ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

RunResult run_daris(const RunConfig& config) {
  const auto wall_start = std::chrono::steady_clock::now();
  sim::Simulator sim;
  gpusim::Gpu gpu(sim, config.gpu, config.seed);

  // Pre-size the event pool from the task-set cardinality (one pending
  // release timer per task) plus per-stream launch/completion and per-job
  // sync events, so the first release burst does not grow the slab pool
  // mid-run. Sizing is a hint; the pool still grows if outrun.
  sim.reserve(config.taskset.tasks.size() * 3 +
              static_cast<std::size_t>(config.sched.parallelism()) * 2 + 64);

  metrics::Collector collector;
  collector.set_measure_start(common::from_sec(config.warmup_s));
  collector.enable_stage_trace(config.stage_trace);

  rt::SchedulerConfig sched_cfg = config.sched;
  sched_cfg.canonicalize();

  const CompiledModels models =
      compile_models(config.taskset, sched_cfg.batch, config.gpu);

  // Offline phase 1: AFET profiling under the same partitioning.
  const rt::AfetResult afet = rt::profile_afet(
      config.gpu, sched_cfg, models.distinct, /*jobs_per_stream=*/16,
      config.seed);

  rt::Scheduler scheduler(sim, gpu, sched_cfg, &collector);
  for (const auto& t : config.taskset.tasks) {
    const int id = scheduler.add_task(t, models.of(t.model));
    scheduler.set_afet(id, afet.for_model(models.of(t.model)));
  }

  // Offline phase 2: Algorithm 1 initial context assignment.
  scheduler.run_offline_phase();
  const double wall_ms_offline = wall_ms_since(wall_start);

  const common::Time horizon = common::from_sec(config.duration_s);
  workload::PeriodicDriver driver(sim, scheduler, horizon);
  driver.start();
  const auto wall_run_start = std::chrono::steady_clock::now();
  sim.run_until(horizon);
  const double wall_ms_run = wall_ms_since(wall_run_start);

  RunResult result;
  result.total_jps = collector.throughput_jps(horizon);
  result.hp = collector.summary(common::Priority::kHigh);
  result.lp = collector.summary(common::Priority::kLow);
  result.gpu_utilization = gpu.utilization(horizon);
  result.migrations = scheduler.migrations();
  result.stage_trace = collector.stage_trace();

  static_cast<sim::Simulator::Stats&>(result.profile) = sim.stats();
  add_solver_stats({&gpu}, &result.profile);
  result.profile.wall_ms_offline = wall_ms_offline;
  result.profile.wall_ms_run = wall_ms_run;
  result.profile.wall_ms_total = wall_ms_since(wall_start);
  return result;
}

std::string relative_error(double measured, double expected) {
  if (expected == 0.0) return "n/a";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%+.1f%%",
                100.0 * (measured - expected) / expected);
  return buf;
}

}  // namespace daris::exp
