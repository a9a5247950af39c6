// GPU model basics: single-kernel timing, stream FIFO semantics, callbacks,
// launch overhead, utilization accounting.
#include <gtest/gtest.h>

#include <vector>

#include "gpusim/gpu.h"
#include "sim/simulator.h"

namespace daris::gpusim {
namespace {

using common::from_us;
using common::to_us;

GpuSpec ideal_spec() {
  GpuSpec s;
  s.jitter_cv = 0.0;          // deterministic timing for exact assertions
  s.quant_smoothing = 1.0;    // pure fluid
  s.alpha_intra = 0.0;
  s.kappa_oversub = 0.0;
  s.quota_penalty_a = 0.0;
  s.launch_overhead_us = 0.0;
  s.mem_bandwidth = 1e9;
  return s;
}

TEST(GpuBasic, SingleWideKernelRunsAtFullDevice) {
  sim::Simulator sim;
  GpuSpec spec = ideal_spec();
  Gpu gpu(sim, spec);
  const auto ctx = gpu.create_context(68.0);
  const auto s = gpu.create_stream(ctx);

  KernelDesc k;
  k.work = 680.0;        // SM-us
  k.parallelism = 680.0;  // far wider than the device
  gpu.launch_kernel(s, k);
  bool done = false;
  common::Time finish = 0;
  gpu.enqueue_callback(s, [&] {
    done = true;
    finish = sim.now();
  });
  sim.run();
  EXPECT_TRUE(done);
  // 680 SM-us over 68 SMs = 10 us.
  EXPECT_NEAR(to_us(finish), 10.0, 0.01);
}

TEST(GpuBasic, NarrowKernelLimitedByParallelism) {
  sim::Simulator sim;
  Gpu gpu(sim, ideal_spec());
  const auto s = gpu.create_stream(gpu.create_context(68.0));
  KernelDesc k;
  k.work = 100.0;
  k.parallelism = 10.0;  // can only ever use 10 SMs
  gpu.launch_kernel(s, k);
  common::Time finish = 0;
  gpu.enqueue_callback(s, [&] { finish = sim.now(); });
  sim.run();
  EXPECT_NEAR(to_us(finish), 10.0, 0.01);
}

TEST(GpuBasic, LaunchOverheadSerializesWithinStream) {
  sim::Simulator sim;
  GpuSpec spec = ideal_spec();
  spec.launch_overhead_us = 5.0;
  Gpu gpu(sim, spec);
  const auto s = gpu.create_stream(gpu.create_context(68.0));
  for (int i = 0; i < 3; ++i) {
    KernelDesc k;
    k.work = 68.0;  // 1 us at full width
    k.parallelism = 68.0;
    gpu.launch_kernel(s, k);
  }
  common::Time finish = 0;
  gpu.enqueue_callback(s, [&] { finish = sim.now(); });
  sim.run();
  // 3 x (5 us launch + 1 us exec).
  EXPECT_NEAR(to_us(finish), 18.0, 0.05);
}

TEST(GpuBasic, StreamFifoOrder) {
  sim::Simulator sim;
  Gpu gpu(sim, ideal_spec());
  const auto s = gpu.create_stream(gpu.create_context(68.0));
  std::vector<int> order;
  KernelDesc k;
  k.work = 68.0;
  k.parallelism = 68.0;
  gpu.launch_kernel(s, k);
  gpu.enqueue_callback(s, [&] { order.push_back(1); });
  gpu.launch_kernel(s, k);
  gpu.enqueue_callback(s, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(GpuBasic, CallbackOnEmptyStreamRunsImmediately) {
  sim::Simulator sim;
  Gpu gpu(sim, ideal_spec());
  const auto s = gpu.create_stream(gpu.create_context(68.0));
  bool ran = false;
  gpu.enqueue_callback(s, [&] { ran = true; });
  EXPECT_TRUE(ran);  // nothing queued: runs inline
  EXPECT_EQ(gpu.stream_depth(s), 0u);
}

TEST(GpuBasic, StreamIdleAndDepthTracking) {
  sim::Simulator sim;
  GpuSpec spec = ideal_spec();
  spec.launch_overhead_us = 1.0;
  Gpu gpu(sim, spec);
  const auto s = gpu.create_stream(gpu.create_context(68.0));
  EXPECT_EQ(gpu.stream_depth(s), 0u);
  KernelDesc k;
  k.work = 68.0;
  k.parallelism = 68.0;
  gpu.launch_kernel(s, k);
  gpu.launch_kernel(s, k);
  EXPECT_EQ(gpu.stream_depth(s), 2u);
  sim.run();
  EXPECT_EQ(gpu.stream_depth(s), 0u);
  EXPECT_EQ(gpu.kernels_completed(), 2u);
}

TEST(GpuBasic, IndependentStreamsProgressConcurrently) {
  sim::Simulator sim;
  Gpu gpu(sim, ideal_spec());
  const auto c1 = gpu.create_context(34.0);
  const auto c2 = gpu.create_context(34.0);
  const auto s1 = gpu.create_stream(c1);
  const auto s2 = gpu.create_stream(c2);
  KernelDesc k;
  k.work = 340.0;
  k.parallelism = 100.0;
  common::Time f1 = 0, f2 = 0;
  gpu.launch_kernel(s1, k);
  gpu.enqueue_callback(s1, [&] { f1 = sim.now(); });
  gpu.launch_kernel(s2, k);
  gpu.enqueue_callback(s2, [&] { f2 = sim.now(); });
  sim.run();
  // Each runs in its own 34-SM quota: 340/34 = 10 us, concurrently.
  EXPECT_NEAR(to_us(f1), 10.0, 0.01);
  EXPECT_NEAR(to_us(f2), 10.0, 0.01);
}

TEST(GpuBasic, UtilizationIntegralMatchesBusyTime) {
  sim::Simulator sim;
  Gpu gpu(sim, ideal_spec());
  const auto s = gpu.create_stream(gpu.create_context(68.0));
  KernelDesc k;
  k.work = 680.0;  // 10 us at full device
  k.parallelism = 680.0;
  gpu.launch_kernel(s, k);
  sim.run();
  // Busy for 10 of 20 us at full width -> utilization 0.5.
  EXPECT_NEAR(gpu.utilization(from_us(20.0)), 0.5, 0.01);
}

TEST(GpuBasic, JitterPreservesDeterminismPerSeed) {
  auto run_once = [](std::uint64_t seed) {
    sim::Simulator sim;
    GpuSpec spec;  // default: with jitter
    Gpu gpu(sim, spec, seed);
    const auto s = gpu.create_stream(gpu.create_context(68.0));
    KernelDesc k;
    k.work = 680.0;
    k.parallelism = 68.0;
    gpu.launch_kernel(s, k);
    common::Time finish = 0;
    gpu.enqueue_callback(s, [&] { finish = sim.now(); });
    sim.run();
    return finish;
  };
  EXPECT_EQ(run_once(5), run_once(5));
  EXPECT_NE(run_once(5), run_once(6));
}

TEST(GpuBasic, HaltDropsResidentAndQueuedWorkAndKeepsBusyTime) {
  // Fail-stop mid-kernel with work on two streams: nothing queued or
  // resident survives the halt, no callback runs, nothing counts as
  // completed, and the utilisation integral keeps exactly the busy SM-time
  // folded up to the halt.
  sim::Simulator sim;
  GpuSpec spec = ideal_spec();
  spec.launch_overhead_us = 1.0;
  Gpu gpu(sim, spec);
  const auto s1 = gpu.create_stream(gpu.create_context(34.0));
  const auto c2 = gpu.create_context(34.0);
  const auto s2 = gpu.create_stream(c2);
  const auto s3 = gpu.create_stream(c2);
  KernelDesc k;
  k.work = 340.0;  // 10 us in a 34-SM context, resident from t = 1 us
  k.parallelism = 100.0;
  int callbacks = 0;
  gpu.launch_kernel(s1, k);
  gpu.enqueue_callback(s1, [&] { ++callbacks; });
  gpu.launch_kernel(s1, k);
  gpu.enqueue_callback(s1, [&] { ++callbacks; });
  gpu.launch_kernel(s2, k);
  gpu.enqueue_callback(s2, [&] { ++callbacks; });
  // A launch still in flight at the halt (due at 6.5 us) must go stale.
  sim.schedule_at(from_us(5.5), [&] { gpu.launch_kernel(s3, k); });

  double busy_at_halt = -1.0;
  sim.schedule_at(from_us(6.0), [&] {
    EXPECT_EQ(gpu.debug_active_kernels().size(), 2u);
    busy_at_halt = gpu.busy_sm_integral();
    gpu.halt();
    EXPECT_TRUE(gpu.debug_active_kernels().empty());
    EXPECT_EQ(gpu.stream_depth(s1), 0u);
    EXPECT_EQ(gpu.stream_depth(s2), 0u);
    EXPECT_EQ(gpu.stream_depth(s3), 0u);
  });
  sim.run();

  EXPECT_EQ(callbacks, 0);
  EXPECT_EQ(gpu.kernels_completed(), 0u);
  EXPECT_TRUE(gpu.debug_active_kernels().empty());
  // The stale launch event is the last to fire: the mirrored completion
  // event (due at 11 us) was cancelled.
  EXPECT_EQ(sim.now(), from_us(6.5));
  // Two 34-SM kernels busy from 1 us to 6 us: 340 SM-us of 20 us x 68 SMs.
  const common::Time horizon = from_us(20.0);
  EXPECT_DOUBLE_EQ(gpu.busy_sm_integral(), busy_at_halt);
  EXPECT_DOUBLE_EQ(gpu.utilization(horizon),
                   busy_at_halt / (static_cast<double>(horizon) * 68.0));
  EXPECT_NEAR(gpu.utilization(horizon), 0.25, 1e-9);
}

}  // namespace
}  // namespace daris::gpusim
