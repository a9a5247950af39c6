// Microbenchmarks of DARIS scheduler hot paths (bench/minibench): stage
// queue operations, MRET updates, end-to-end scheduling cost per job, and
// the cost of registering a task set on every device of a fleet.
#include <benchmark/benchmark.h>

#include "cluster/fleet.h"
#include "daris/mret.h"
#include "daris/offline.h"
#include "daris/stage_queue.h"
#include "experiments/runner.h"
#include "micro_common.h"
#include "sim/sharded.h"

using namespace daris;

namespace {

void BM_StageQueuePushPop(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    rt::StageQueue q;
    for (int i = 0; i < n; ++i) {
      rt::ReadyStage s;
      s.level = i % 8;
      s.deadline = (i * 977) % 100000;
      q.push(s);
    }
    while (!q.empty()) benchmark::DoNotOptimize(q.pop());
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_MretRecordAndQuery(benchmark::State& state) {
  rt::MretEstimator m(4, 5);
  std::uint64_t i = 0;
  for (auto _ : state) {
    m.record(i % 4, static_cast<double>(500 + (i * 13) % 200));
    benchmark::DoNotOptimize(m.total_mret_us());
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_VirtualDeadlines(benchmark::State& state) {
  rt::MretEstimator m(4, 5);
  for (std::size_t j = 0; j < 4; ++j) m.record(j, 400.0 + 100.0 * j);
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.virtual_deadlines(common::from_ms(33.3)));
  }
  state.SetItemsProcessed(state.iterations());
}

/// End-to-end cost: simulated jobs scheduled per wall second on the
/// ResNet18 task set at the paper's peak configuration.
void BM_EndToEndScheduling(benchmark::State& state) {
  for (auto _ : state) {
    exp::RunConfig cfg;
    cfg.taskset = workload::table2_taskset(dnn::ModelKind::kResNet18);
    cfg.sched.policy = rt::Policy::kMps;
    cfg.sched.num_contexts = 6;
    cfg.sched.oversubscription = 6.0;
    cfg.duration_s = 1.0;
    cfg.warmup_s = 0.0;
    const exp::RunResult r = exp::run_daris(cfg);
    state.counters["sim_jobs"] = static_cast<double>(r.hp.completed +
                                                     r.lp.completed);
  }
}

/// The fleet registration layer alone: build a range(0)-GPU fleet on
/// range(1) lanes, register the replicated mixed task set (32 tasks per
/// GPU), intern the profiled AFET once and seed every (task, device) pair
/// from it while running Algorithm 1, on the lanes (the calls run_cluster
/// makes), and destroy the fleet. Items are (task, device) pairs per wall
/// second; AFET is profiled once, outside the timed loop. /1024 holds 33.5M
/// pairs.
void BM_FleetRegistration(benchmark::State& state) {
  const int num_gpus = static_cast<int>(state.range(0));
  const int lanes = static_cast<int>(state.range(1));
  const workload::TaskSetSpec taskset =
      workload::replicated_taskset(workload::mixed_taskset(), num_gpus);
  cluster::FleetConfig cfg;
  cfg.num_gpus = num_gpus;
  cfg.sched.policy = rt::Policy::kMps;
  cfg.sched.num_contexts = 6;
  cfg.sched.oversubscription = 6.0;
  cfg.sched.canonicalize();
  const exp::CompiledModels models =
      exp::compile_models(taskset, cfg.sched.batch, cfg.gpu);
  const rt::AfetResult afet =
      rt::profile_afet(cfg.gpu, cfg.sched, models.distinct,
                       /*jobs_per_stream=*/16, cfg.seed);
  for (auto _ : state) {
    sim::ShardedSimulator sim(num_gpus, lanes);
    metrics::Collector collector;
    cluster::Fleet fleet(sim, cfg, &collector);
    for (std::size_t i = 0; i < taskset.tasks.size(); ++i) {
      const rt::TaskSpec& t = taskset.tasks[i];
      fleet.add_task(t, models.of(t.model), static_cast<int>(i) % num_gpus);
    }
    const std::vector<std::uint16_t> seeds = fleet.intern_afet(afet);
    fleet.run_offline_phase(std::vector<const std::vector<std::uint16_t>*>(
        static_cast<std::size_t>(num_gpus), &seeds));
    benchmark::DoNotOptimize(fleet.task_count());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(taskset.tasks.size()) * num_gpus);
}

}  // namespace

BENCHMARK(BM_StageQueuePushPop)->Arg(64)->Arg(4096);
BENCHMARK(BM_MretRecordAndQuery);
BENCHMARK(BM_VirtualDeadlines);
BENCHMARK(BM_EndToEndScheduling)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FleetRegistration)
    ->Args({256, 1})
    ->Args({256, 4})
    ->Args({1024, 1})
    ->Args({1024, 4})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

int main(int argc, char** argv) {
  return daris::bench::run_benchmarks_with_json_out(
      argc, argv, "BENCH_micro_scheduler.json");
}
