// Randomized differential test of the incremental fluid-rate allocator.
//
// A reference solver — the from-scratch water-fill the bucketed allocator
// replaced: global (context, parallelism, arrival) sort, per-context fill,
// full rescans for the oversubscription/pressure/bandwidth folds — is
// applied to snapshots of a Gpu driven through random launch / complete /
// spec-change sequences (completions happen naturally by running the
// simulator forward; a spec change rescales the SM count and bandwidth as a
// straggler fault does). Each context's quota is drawn once, at creation,
// as DARIS fixes it (Eq. 9), so contexts of one shape still differ. The
// incremental allocator maintains per-context buckets, cached water-fills
// and cached efficiency factors instead, so any drift between the two is a
// caching bug. Rates must match EXACTLY (bit equality, not a tolerance):
// the incremental solver is specified to reproduce the reference's
// floating-point operations in the same order, which is what keeps the
// repo's figure outputs byte-stable.
//
// Mirrors tests/test_sim_differential.cpp, which plays the same game with
// the event engine against a lazy-cancellation priority queue.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <random>
#include <vector>

#include "common/time.h"
#include "gpusim/gpu.h"
#include "sim/simulator.h"

namespace daris::gpusim {
namespace {

/// From-scratch reference: the pre-bucketing allocator, computed on a
/// snapshot (kernels in arrival order, one entry per resident kernel).
std::vector<double> reference_rates(
    const GpuSpec& spec, const std::vector<double>& quotas,
    const std::vector<Gpu::ActiveKernelInfo>& kernels) {
  const std::size_t n = kernels.size();
  std::vector<double> rates(n, 0.0);
  if (n == 0) return rates;

  // Per-context resident counts (the intra-context penalty input).
  std::vector<int> active(quotas.size(), 0);
  for (const auto& k : kernels) active[static_cast<std::size_t>(k.ctx)]++;

  // 1. Water-fill each context's quota, ascending parallelism first,
  //    arrival order breaking ties — via one global sort, as the historical
  //    solver did.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (kernels[a].ctx != kernels[b].ctx) return kernels[a].ctx < kernels[b].ctx;
    if (kernels[a].parallelism != kernels[b].parallelism)
      return kernels[a].parallelism < kernels[b].parallelism;
    return a < b;
  });
  std::vector<double> share(n, 0.0);
  std::size_t i = 0;
  double total_alloc = 0.0;
  while (i < order.size()) {
    const ContextId ctx = kernels[order[i]].ctx;
    std::size_t j = i;
    while (j < order.size() && kernels[order[j]].ctx == ctx) ++j;
    double quota = quotas[static_cast<std::size_t>(ctx)];
    std::size_t left = j - i;
    for (std::size_t k = i; k < j; ++k) {
      const double fair = quota / static_cast<double>(left);
      const double alloc = std::min(kernels[order[k]].parallelism, fair);
      share[order[k]] = alloc;
      quota -= alloc;
      --left;
    }
    for (std::size_t k = i; k < j; ++k) total_alloc += share[order[k]];
    i = j;
  }

  // 2. Oversubscription rescale.
  const double sm = static_cast<double>(spec.sm_count);
  if (total_alloc > sm) {
    const double scale = sm / total_alloc;
    for (auto& s : share) s *= scale;
  }

  // Global L2 pressure over the arrival order.
  double pressure = 0.0;
  for (const auto& k : kernels) pressure += std::min(k.parallelism, sm);
  const double excess = std::max(0.0, pressure / sm - 1.0);
  const double eff_os = 1.0 / (1.0 + spec.kappa_oversub * excess);

  // 3/4. Quantised per-kernel rate with the intra-context and small-quota
  // penalties.
  auto quantized = [&](double parallelism, double s) {
    if (s <= 0.0) return 0.0;
    if (parallelism <= s) return parallelism;
    const double fluid_waves = parallelism / s;
    const double hard_waves = std::ceil(fluid_waves - 1e-12);
    const double waves = spec.quant_smoothing * fluid_waves +
                         (1.0 - spec.quant_smoothing) * hard_waves;
    return parallelism / waves;
  };
  std::vector<double> raw(n, 0.0);
  double bw_demand = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    const auto& ak = kernels[k];
    const double quota = quotas[static_cast<std::size_t>(ak.ctx)];
    const double eff_intra =
        1.0 / (1.0 + spec.alpha_intra *
                         std::min(static_cast<double>(
                                      active[static_cast<std::size_t>(ak.ctx)] -
                                      1),
                                  spec.intra_saturation));
    const double eff_quota =
        1.0 - spec.quota_penalty_a * std::exp(-quota / spec.quota_penalty_q0);
    raw[k] = quantized(ak.parallelism, share[k]) * eff_intra * eff_os *
             eff_quota;
    bw_demand += raw[k] * ak.mem_intensity;
  }

  // 5. Bandwidth cap.
  const double phi =
      bw_demand > spec.mem_bandwidth ? spec.mem_bandwidth / bw_demand : 1.0;
  for (std::size_t k = 0; k < n; ++k) rates[k] = raw[k] * phi;
  return rates;
}

struct Shape {
  int contexts;
  int streams_per_ctx;
  GpuSpec spec;
};

std::vector<Shape> shapes() {
  GpuSpec defaults;  // full model: all penalties, jitter on

  GpuSpec bandwidth_bound = defaults;
  bandwidth_bound.mem_bandwidth = 34.0;  // phi path engaged constantly

  GpuSpec hard_waves = defaults;
  hard_waves.quant_smoothing = 0.0;  // ceil() quantisation
  hard_waves.kappa_oversub = 0.5;    // strong pressure coupling

  return {
      Shape{1, 6, defaults},          // one context, stream-heavy
      Shape{4, 2, defaults},          // quotas oversubscribed on most draws
      Shape{10, 1, bandwidth_bound},  // many contexts, bw-capped
      Shape{3, 3, hard_waves},        // hard quantisation + pressure
  };
}

TEST(GpuAllocatorDifferential, RandomOpSequencesMatchReferenceSolver) {
  // >= 10k randomized operations overall, each followed by an exact-match
  // comparison of every resident kernel's rate.
  constexpr int kOpsPerShape = 6000;
  std::uint64_t compared = 0;
  int shape_idx = 0;
  for (const Shape& shape : shapes()) {
    std::mt19937_64 rng(0xA110Cu + static_cast<std::uint64_t>(shape_idx));
    sim::Simulator sim;
    Gpu gpu(sim, shape.spec, /*seed=*/42 + static_cast<std::uint64_t>(shape_idx));
    auto uniform = [&rng](double lo, double hi) {
      return lo + (hi - lo) * (static_cast<double>(rng() >> 11) * 0x1.0p-53);
    };

    std::vector<StreamId> streams;
    std::vector<double> quotas;  // indexed by ContextId
    for (int c = 0; c < shape.contexts; ++c) {
      quotas.push_back(uniform(4.0, 68.0));
      const auto ctx = gpu.create_context(quotas.back());
      for (int s = 0; s < shape.streams_per_ctx; ++s) {
        streams.push_back(gpu.create_stream(ctx));
      }
    }

    GpuSpec spec = shape.spec;  // the device's current spec
    for (int op = 0; op < kOpsPerShape; ++op) {
      const std::uint64_t dice = rng() % 100;
      if (dice < 55) {
        // Launch a random kernel on a random stream.
        KernelDesc k;
        k.work = uniform(5.0, 400.0);
        k.parallelism = uniform(1.0, 200.0);
        k.mem_intensity = uniform(0.0, 1.5);
        gpu.launch_kernel(streams[rng() % streams.size()], k);
      } else if (dice < 60) {
        // Re-resolve the device at a new compute scale, as
        // cluster::GpuNodeSpec::resolved does for a straggler fault: every
        // context's cached efficiency factors and water-fill go stale while
        // kernels are resident.
        const double scale = uniform(0.25, 2.0);
        spec = shape.spec;
        spec.sm_count = std::max(
            1, static_cast<int>(std::lround(shape.spec.sm_count * scale)));
        spec.mem_bandwidth = shape.spec.mem_bandwidth * scale;
        gpu.set_spec(spec);
      } else {
        // Advance time: completions and queued launches happen naturally.
        // Steps stay short relative to kernel durations so most snapshots
        // observe a populated device.
        sim.run_until(sim.now() +
                      static_cast<common::Time>(rng() % 50000));  // <= 50us
      }

      const auto snapshot = gpu.debug_active_kernels();
      const auto expected = reference_rates(spec, quotas, snapshot);
      ASSERT_EQ(snapshot.size(), expected.size());
      for (std::size_t k = 0; k < snapshot.size(); ++k) {
        // Exact: the incremental solver must reproduce the reference's
        // floating-point result bit for bit, not approximately.
        ASSERT_EQ(snapshot[k].rate, expected[k])
            << "shape " << shape_idx << " op " << op << " kernel " << k
            << " (ctx " << snapshot[k].ctx << ", par "
            << snapshot[k].parallelism << ")";
      }
      compared += snapshot.size();
    }

    // Drain: everything completes, nothing wedges.
    sim.run();
    EXPECT_TRUE(gpu.debug_active_kernels().empty());
    ++shape_idx;
  }
  // The point of the exercise: a meaningful number of exact comparisons.
  EXPECT_GT(compared, 10000u);
}

}  // namespace
}  // namespace daris::gpusim
