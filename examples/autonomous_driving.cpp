// Autonomous-driving perception stack (the paper's lead motivation):
// hard-ish HP pipelines (camera object detection, drivable-area
// segmentation) colocated with LP cabin analytics on one GPU, including an
// overload episode handled by the Overload+HPA admission mode.
//
// Demonstrates: mixed DNN task sets, HP admission (Sec. VI-I), and how
// staging keeps HP response times short while LP soaks up leftover GPU.
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
  const gpusim::GpuSpec spec = gpusim::GpuSpec::rtx2080ti();
  gpusim::Gpu gpu(sim, spec);

  const dnn::CompiledModel detector =
      dnn::compiled_model(dnn::ModelKind::kResNet18, 1, spec);
  const dnn::CompiledModel segmenter =
      dnn::compiled_model(dnn::ModelKind::kUNet, 1, spec);
  const dnn::CompiledModel analyzer =
      dnn::compiled_model(dnn::ModelKind::kInceptionV3, 1, spec);

  // Safety-critical deployments take the HP admission test too
  // (Overload+HPA): a dropped frame is detectable, a late one is not.
  rt::SchedulerConfig config;
  config.policy = rt::Policy::kMps;
  config.num_contexts = 6;
  config.oversubscription = 6.0;
  config.hp_admission = true;

  metrics::Collector metrics;
  rt::Scheduler daris(sim, gpu, config, &metrics);

  auto add = [&](const dnn::CompiledModel* model, dnn::ModelKind kind,
                 common::Priority prio, double hz, double phase_ms) {
    rt::TaskSpec t;
    t.model = kind;
    t.period = common::period_for_jps(hz);
    t.relative_deadline = t.period;
    t.priority = prio;
    t.phase = common::from_ms(phase_ms);
    return daris.add_task(t, model);
  };

  // HP: 4 surround cameras at 30 Hz detection + 1 front segmentation at 24.
  std::printf("perception stack:\n");
  for (int cam = 0; cam < 4; ++cam) {
    add(&detector, dnn::ModelKind::kResNet18, common::Priority::kHigh, 30.0,
        2.0 * cam);
    std::printf("  [HP] camera%d object detection  ResNet18    @ 30 Hz\n",
                cam);
  }
  add(&segmenter, dnn::ModelKind::kUNet, common::Priority::kHigh, 24.0, 1.0);
  std::printf("  [HP] drivable-area segmentation UNet        @ 24 Hz\n");

  // LP: cabin monitoring and scene classification at 24 Hz each.
  for (int i = 0; i < 6; ++i) {
    add(&analyzer, dnn::ModelKind::kInceptionV3, common::Priority::kLow, 24.0,
        1.5 * i);
  }
  std::printf("  [LP] 6x scene/cabin analytics   InceptionV3 @ 24 Hz\n\n");

  const rt::AfetResult afet =
      rt::profile_afet(spec, config, {&detector, &segmenter, &analyzer});
  for (int i = 0; i < daris.task_count(); ++i) {
    const dnn::ModelKind kind = daris.spec(i).model;
    const dnn::CompiledModel* m =
        kind == dnn::ModelKind::kResNet18  ? &detector
        : kind == dnn::ModelKind::kUNet    ? &segmenter
                                           : &analyzer;
    daris.set_afet(i, afet.for_model(m));
  }
  daris.run_offline_phase();

  const common::Time horizon = common::from_sec(3.0);
  workload::PeriodicDriver driver(sim, daris, horizon);
  driver.start();
  sim.run_until(horizon);

  const auto& hp = metrics.summary(common::Priority::kHigh);
  const auto& lp = metrics.summary(common::Priority::kLow);
  std::printf("after %.0f simulated seconds (GPU %.0f%% busy):\n",
              common::to_sec(horizon), 100.0 * gpu.utilization(horizon));
  std::printf("  HP frames: %llu done, %llu dropped by HPA, %llu late "
              "(response p50/p99 = %.1f/%.1f ms)\n",
              (unsigned long long)hp.completed,
              (unsigned long long)hp.rejected, (unsigned long long)hp.missed,
              hp.response_ms.percentile(50), hp.response_ms.percentile(99));
  std::printf("  LP frames: %llu done, %llu rejected, %.2f%% DMR "
              "(response p50 = %.1f ms)\n",
              (unsigned long long)lp.completed,
              (unsigned long long)lp.rejected, 100.0 * lp.dmr(),
              lp.response_ms.percentile(50));
  if (hp.missed == 0) {
    std::printf("  => every admitted safety-critical frame met its "
                "deadline.\n");
  }
  return 0;
}
