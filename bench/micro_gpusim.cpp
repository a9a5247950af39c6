// Microbenchmarks of the GPU simulator itself (bench/minibench): event
// throughput of the fluid executor under different concurrency shapes, raw
// event-engine shapes (churn / cancel-heavy / reschedule-heavy), and a
// fleet-scale open-loop run. Results are also written to
// BENCH_micro_gpusim.json (see main below) to track the perf trajectory.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "dnn/zoo.h"
#include "experiments/cluster_runner.h"
#include "gpusim/gpu.h"
#include "micro_common.h"
#include "gpusim/partition.h"
#include "sim/simulator.h"
#include "workload/taskset.h"

using namespace daris;

namespace {

/// Closed-loop: `streams` streams continuously re-launch a ResNet18-like
/// kernel mix; measures simulated kernels processed per wall second.
void BM_GpuFluidExecutor(benchmark::State& state) {
  const int contexts = static_cast<int>(state.range(0));
  const int streams_per_ctx = static_cast<int>(state.range(1));
  const gpusim::GpuSpec spec = gpusim::GpuSpec::rtx2080ti();
  const auto model = dnn::compiled_model(dnn::ModelKind::kResNet18, 1, spec);

  for (auto _ : state) {
    sim::Simulator sim;
    gpusim::Gpu gpu(sim, spec);
    const auto quotas = gpusim::partition_quotas(spec, contexts, contexts);
    std::vector<gpusim::StreamId> streams;
    for (int c = 0; c < contexts; ++c) {
      const auto ctx = gpu.create_context(quotas[static_cast<std::size_t>(c)]);
      for (int s = 0; s < streams_per_ctx; ++s) {
        streams.push_back(gpu.create_stream(ctx));
      }
    }
    // Two full model instances per stream, enqueued up front.
    for (const auto s : streams) {
      for (int rep = 0; rep < 2; ++rep) {
        for (const auto& stage : model.stages) {
          for (const auto& k : stage.kernels) gpu.launch_kernel(s, k);
        }
      }
    }
    sim.run();
    state.counters["kernels"] = static_cast<double>(gpu.kernels_completed());
  }
  state.SetItemsProcessed(state.iterations() * 2 *
                          static_cast<long>(model.kernel_count()) *
                          static_cast<long>(contexts * streams_per_ctx));
}

void BM_EventQueueChurn(benchmark::State& state) {
  const int events = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    for (int i = 0; i < events; ++i) {
      sim.schedule_at((i * 7919) % 1000000, [] {});
    }
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * events);
}

void BM_EventQueueCancelHeavy(benchmark::State& state) {
  const int events = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    std::vector<sim::EventHandle> handles;
    handles.reserve(static_cast<std::size_t>(events));
    for (int i = 0; i < events; ++i) {
      handles.push_back(sim.schedule_at((i * 131) % 100000, [] {}));
    }
    // Cancel every other event (the executor's reschedule pattern).
    for (std::size_t i = 0; i < handles.size(); i += 2) sim.cancel(handles[i]);
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * events);
}

/// The fluid executor's signature pattern: a standing population of events
/// whose deadlines keep moving. Each round reschedules every pending event to
/// a new time (in place on the new engine; cancel+push on the old one).
void BM_EventQueueReschedule(benchmark::State& state) {
  const int events = static_cast<int>(state.range(0));
  constexpr int kRounds = 8;
  for (auto _ : state) {
    sim::Simulator sim;
    std::vector<sim::EventHandle> handles;
    handles.reserve(static_cast<std::size_t>(events));
    for (int i = 0; i < events; ++i) {
      handles.push_back(sim.schedule_at((i * 131) % 100000 + 1, [] {}));
    }
    for (int round = 1; round <= kRounds; ++round) {
      for (std::size_t i = 0; i < handles.size(); ++i) {
        const common::Time when =
            (static_cast<common::Time>(i) * 131 + round * 7919) % 100000 + 1;
        sim.reschedule(handles[i], when);
      }
    }
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * events * kRounds);
}

/// Bursty co-launch: every period, one kernel per stream is injected at the
/// same simulator tick across many contexts, so the launch-done events (and
/// later the symmetric completions) arrive in same-timestamp bursts — the
/// shape the allocator's dirty-flag solve coalesces at the data level
/// (settle guard, per-context water-fill reuse, cached penalty factors).
/// Args: {contexts, bursts}.
void BM_GpuBurstyColaunch(benchmark::State& state) {
  const int contexts = static_cast<int>(state.range(0));
  const int bursts = static_cast<int>(state.range(1));
  const gpusim::GpuSpec spec = gpusim::GpuSpec::rtx2080ti();
  for (auto _ : state) {
    sim::Simulator sim;
    gpusim::Gpu gpu(sim, spec);
    const auto quotas = gpusim::partition_quotas(spec, contexts, contexts);
    std::vector<gpusim::StreamId> streams;
    for (int c = 0; c < contexts; ++c) {
      streams.push_back(
          gpu.create_stream(gpu.create_context(quotas[static_cast<std::size_t>(c)])));
    }
    gpusim::KernelDesc k;
    k.work = 150.0;
    k.parallelism = 40.0;
    for (int b = 0; b < bursts; ++b) {
      sim.schedule_at(static_cast<common::Time>(b) * common::from_us(500.0),
                      [&gpu, &streams, &k] {
                        for (const auto s : streams) gpu.launch_kernel(s, k);
                      });
    }
    sim.run();
    state.counters["kernels"] = static_cast<double>(gpu.kernels_completed());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(bursts) *
                          static_cast<long>(contexts));
}

/// Fleet-scale event volume: an N-GPU cluster under open-loop Poisson
/// arrivals, the shape that multiplies completion-event churn by the fleet
/// size. Measures simulated jobs completed per wall second.
/// Fleet throughput on the sharded engine (sim/sharded.h). One arg: one
/// worker lane ("/8" is the committed baseline shape). Two args: range(1)
/// worker lanes — "/8/4" is the 2x-vs-baseline acceptance shape, "/64/4"
/// and "/256/4" the fleet-scaling shapes (no more lanes than a 4-core box
/// has cores: oversubscribed lanes measure the OS scheduler, not the code).
/// Every lane count completes the exact same simulated jobs (pinned by
/// test_sim_sharded_differential), so items/s across shapes compares apples
/// to apples — in wall time (UseRealTime), since CPU time would sum the
/// lanes.
void BM_ClusterFleetOpenLoop(benchmark::State& state) {
  const int num_gpus = static_cast<int>(state.range(0));
  exp::ClusterConfig cfg;
  cfg.taskset =
      workload::replicated_taskset(workload::mixed_taskset(), num_gpus);
  cfg.sched.policy = rt::Policy::kMps;
  cfg.sched.num_contexts = 6;
  cfg.sched.oversubscription = 6.0;
  cfg.num_gpus = num_gpus;
  cfg.routing = cluster::RoutingPolicy::kLeastUtilization;
  cfg.arrivals = exp::ArrivalMode::kPoisson;
  cfg.duration_s = 1.0;
  cfg.warmup_s = 0.25;
  if (state.range_count() > 1) {
    cfg.sim_threads = static_cast<int>(state.range(1));
  }
  std::uint64_t jobs = 0;
  for (auto _ : state) {
    const exp::ClusterResult r = exp::run_cluster(cfg);
    jobs = r.hp.completed + r.lp.completed;
  }
  state.counters["sim_jobs"] = static_cast<double>(jobs);
  state.SetItemsProcessed(state.iterations() * static_cast<long>(jobs));
}

/// Embeds the self-profiler counters from a small deterministic fleet run
/// into the JSON context block, so the perf trajectory carries the
/// simulator's internal shape (event volume, callback inlining, solver
/// cache hits) alongside the wall-clock numbers.
void add_profile_context() {
  exp::ClusterConfig cfg;
  cfg.taskset = workload::replicated_taskset(workload::mixed_taskset(), 4);
  cfg.sched.policy = rt::Policy::kMps;
  cfg.sched.num_contexts = 6;
  cfg.sched.oversubscription = 6.0;
  cfg.num_gpus = 4;
  cfg.routing = cluster::RoutingPolicy::kLeastUtilization;
  cfg.arrivals = exp::ArrivalMode::kPoisson;
  cfg.duration_s = 0.5;
  const exp::ClusterResult probe = exp::run_cluster(cfg);
  const metrics::RunProfile& p = probe.profile;
  benchmark::AddCustomContext("profile_events_executed",
                              std::to_string(p.events_executed));
  benchmark::AddCustomContext("profile_heap_high_water",
                              std::to_string(p.heap_high_water));
  benchmark::AddCustomContext("profile_pool_slots",
                              std::to_string(p.pool_slots));
  char rate[32];
  std::snprintf(rate, sizeof rate, "%.4f", p.inline_rate());
  benchmark::AddCustomContext("profile_inline_rate", rate);
  std::snprintf(rate, sizeof rate, "%.4f", p.dirty_hit_rate());
  benchmark::AddCustomContext("profile_dirty_hit_rate", rate);
}

}  // namespace

BENCHMARK(BM_GpuFluidExecutor)
    ->Args({1, 6})
    ->Args({6, 1})
    ->Args({3, 3})
    ->Args({10, 1})
    ->Args({32, 1})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GpuBurstyColaunch)
    ->Args({8, 200})
    ->Args({32, 100})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EventQueueChurn)->Arg(1000)->Arg(100000);
BENCHMARK(BM_EventQueueCancelHeavy)->Arg(1000)->Arg(100000);
BENCHMARK(BM_EventQueueReschedule)->Arg(1000)->Arg(100000);
BENCHMARK(BM_ClusterFleetOpenLoop)
    ->Arg(8)            // committed 1-lane baseline
    ->Args({8, 4})      // 4 worker lanes: the >= 2x gate
    ->Arg(64)           // 100+-GPU fleet class, 1-lane reference
    ->Args({64, 4})     // multi-lane scaling shape
    ->Args({256, 4})    // 256-GPU fleet-scaling shape
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

int main(int argc, char** argv) {
  add_profile_context();
  return daris::bench::run_benchmarks_with_json_out(argc, argv,
                                                    "BENCH_micro_gpusim.json");
}
