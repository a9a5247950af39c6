// Property-based tests of GPU-model invariants under randomized loads.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "gpusim/gpu.h"
#include "gpusim/partition.h"
#include "sim/simulator.h"

namespace daris::gpusim {
namespace {

using common::to_us;

GpuSpec ideal_spec() {
  GpuSpec s;
  s.jitter_cv = 0.0;
  s.quant_smoothing = 1.0;
  s.alpha_intra = 0.0;
  s.kappa_oversub = 0.0;
  s.quota_penalty_a = 0.0;
  s.launch_overhead_us = 0.0;
  s.mem_bandwidth = 1e9;
  return s;
}

struct RandomLoad {
  int contexts;
  int streams_per_ctx;
  int kernels_per_stream;
  std::uint64_t seed;
};

class GpuRandomLoad : public ::testing::TestWithParam<RandomLoad> {};

/// Work conservation: in the penalty-free fluid model with wide kernels,
/// the makespan never beats total-work / SMs and never exceeds it by more
/// than the per-stream serial bound.
TEST_P(GpuRandomLoad, WorkConservationBounds) {
  const RandomLoad load = GetParam();
  common::Rng rng(load.seed);
  sim::Simulator sim;
  Gpu gpu(sim, ideal_spec());
  double total_work = 0.0;
  double max_stream_work = 0.0;
  for (int c = 0; c < load.contexts; ++c) {
    const auto ctx = gpu.create_context(68.0);
    for (int s = 0; s < load.streams_per_ctx; ++s) {
      const auto stream = gpu.create_stream(ctx);
      double stream_work = 0.0;
      for (int k = 0; k < load.kernels_per_stream; ++k) {
        KernelDesc kd;
        kd.work = rng.uniform(10.0, 500.0);
        kd.parallelism = 1000.0;  // wide: no width effects
        gpu.launch_kernel(stream, kd);
        total_work += kd.work;
        stream_work += kd.work;
      }
      max_stream_work = std::max(max_stream_work, stream_work);
    }
  }
  sim.run();
  const double makespan = to_us(sim.now());
  const double lower = total_work / 68.0;
  EXPECT_GE(makespan, lower * 0.999);
  // Upper bound: everything serialised through the slowest stream at the
  // fair share it would get under full contention, plus the rest at full
  // device rate.
  EXPECT_LE(makespan, lower + max_stream_work / 68.0 + 1.0);
  EXPECT_EQ(gpu.kernels_completed(),
            static_cast<std::uint64_t>(load.contexts * load.streams_per_ctx *
                                       load.kernels_per_stream));
}

/// Utilization never exceeds 1 and matches busy integral for closed loads.
TEST_P(GpuRandomLoad, UtilizationBounded) {
  const RandomLoad load = GetParam();
  common::Rng rng(load.seed ^ 0xABCDEF);
  sim::Simulator sim;
  GpuSpec spec;  // full default model, penalties and jitter included
  spec.jitter_cv = 0.05;
  Gpu gpu(sim, spec, load.seed);
  for (int c = 0; c < load.contexts; ++c) {
    const auto ctx = gpu.create_context(
        partition_quotas(spec, load.contexts, load.contexts)[0]);
    for (int s = 0; s < load.streams_per_ctx; ++s) {
      const auto stream = gpu.create_stream(ctx);
      for (int k = 0; k < load.kernels_per_stream; ++k) {
        KernelDesc kd;
        kd.work = rng.uniform(5.0, 200.0);
        kd.parallelism = rng.uniform(1.0, 200.0);
        kd.mem_intensity = rng.uniform(0.0, 1.5);
        gpu.launch_kernel(stream, kd);
      }
    }
  }
  sim.run();
  const double util = gpu.utilization(sim.now());
  EXPECT_GT(util, 0.0);
  EXPECT_LE(util, 1.0 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Loads, GpuRandomLoad,
    ::testing::Values(RandomLoad{1, 1, 50, 1}, RandomLoad{1, 6, 20, 2},
                      RandomLoad{4, 1, 30, 3}, RandomLoad{6, 1, 20, 4},
                      RandomLoad{3, 3, 15, 5}, RandomLoad{10, 1, 10, 6},
                      RandomLoad{2, 5, 12, 7}));

/// Determinism: the full default model is bit-reproducible from the seed
/// under heavy random load.
TEST(GpuDeterminism, IdenticalRunsIdenticalTimelines) {
  auto run = [](std::uint64_t seed) {
    common::Rng rng(99);
    sim::Simulator sim;
    Gpu gpu(sim, GpuSpec{}, seed);
    const auto c1 = gpu.create_context(24.0);
    const auto c2 = gpu.create_context(24.0);
    std::vector<common::Time> finishes;
    for (int s = 0; s < 4; ++s) {
      const auto stream = gpu.create_stream(s % 2 ? c1 : c2);
      for (int k = 0; k < 25; ++k) {
        KernelDesc kd;
        kd.work = rng.uniform(5.0, 300.0);
        kd.parallelism = rng.uniform(1.0, 150.0);
        kd.mem_intensity = rng.uniform(0.0, 1.2);
        gpu.launch_kernel(stream, kd);
      }
      gpu.enqueue_callback(stream,
                           [&finishes, &sim] { finishes.push_back(sim.now()); });
    }
    sim.run();
    return finishes;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

}  // namespace
}  // namespace daris::gpusim
