// Hospital imaging box: UNet segmentation for interventional imaging (HP,
// must be fresh every frame) next to batch studies (LP) on an embedded GPU
// *without MPS support* — the paper's stated case for the STR policy
// ("in scenarios with embedded GPUs lacking MPS support, STR is the sole
// feasible option", Sec. VI-C).
//
// Demonstrates: STR policy (single context, streams only), zero-DMR
// behaviour, and MRET adaptation visible through the public API.
#include <cstdio>

#include "daris/offline.h"
#include "daris/scheduler.h"
#include "dnn/zoo.h"
#include "gpusim/gpu.h"
#include "metrics/collector.h"
#include "sim/simulator.h"
#include "workload/driver.h"

using namespace daris;

int main() {
  sim::Simulator sim;
  // A smaller embedded-class device: half the SMs of the 2080 Ti.
  gpusim::GpuSpec spec = gpusim::GpuSpec::rtx2080ti();
  spec.sm_count = 34;
  spec.mem_bandwidth = 40.0;
  gpusim::Gpu gpu(sim, spec);

  const dnn::CompiledModel unet =
      dnn::compiled_model(dnn::ModelKind::kUNet, 1, spec);

  // STR: one context (no MPS), four streams.
  rt::SchedulerConfig config;
  config.policy = rt::Policy::kStr;
  config.streams_per_context = 4;

  metrics::Collector metrics;
  rt::Scheduler daris(sim, gpu, config, &metrics);

  auto add = [&](common::Priority prio, double hz, double phase_ms) {
    rt::TaskSpec t;
    t.model = dnn::ModelKind::kUNet;
    t.period = common::period_for_jps(hz);
    t.relative_deadline = t.period;
    t.priority = prio;
    t.phase = common::from_ms(phase_ms);
    return daris.add_task(t, &unet);
  };

  // One interventional feed at 15 Hz (HP) + four background studies (LP).
  const int live_feed = add(common::Priority::kHigh, 15.0, 0.0);
  for (int i = 0; i < 4; ++i) {
    add(common::Priority::kLow, 8.0, 5.0 + 7.0 * i);
  }

  const rt::AfetResult afet = rt::profile_afet(spec, config, {&unet});
  for (int i = 0; i < daris.task_count(); ++i) {
    daris.set_afet(i, afet.for_model(&unet));
  }
  daris.run_offline_phase();

  const common::Time horizon = common::from_sec(4.0);
  workload::PeriodicDriver driver(sim, daris, horizon);
  driver.start();
  sim.run_until(horizon);

  const auto& hp = metrics.summary(common::Priority::kHigh);
  const auto& lp = metrics.summary(common::Priority::kLow);
  std::printf("embedded GPU (34 SMs, no MPS) with STR 1x4 after %.0f s:\n",
              common::to_sec(horizon));
  std::printf("  live segmentation: %llu frames, %llu late, response "
              "p50/max %.1f/%.1f ms (deadline %.1f ms)\n",
              (unsigned long long)hp.completed, (unsigned long long)hp.missed,
              hp.response_ms.percentile(50), hp.response_ms.max(),
              common::to_ms(daris.spec(live_feed).relative_deadline));
  std::printf("  batch studies:     %llu frames, %.2f%% DMR, %llu deferred\n",
              (unsigned long long)lp.completed, 100.0 * lp.dmr(),
              (unsigned long long)lp.rejected);

  // The MRET estimate the admission test is using right now (adapted from
  // the AFET seed by real measurements).
  std::printf("  MRET of the live feed now: %.1f ms across %zu stages "
              "(utilisation u = %.2f)\n",
              daris.mret_total_us(live_feed) / 1e3,
              daris.model(live_feed).stage_count(),
              daris.utilization(live_feed));
  std::printf("  => STR: lowest possible DMR at reduced peak throughput — "
              "the paper's recommendation for MPS-less GPUs.\n");
  return 0;
}
