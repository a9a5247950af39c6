// Shared fixture of the single-GPU scheduler suites: one DARIS scheduler on
// one simulated GPU, with a ResNet18 model every task shares.
#pragma once

#include <memory>
#include <vector>

#include "daris/scheduler.h"
#include "dnn/zoo.h"
#include "gpusim/gpu.h"
#include "metrics/collector.h"
#include "sim/simulator.h"

namespace daris::rt {

/// A jitter-free GPU by default (`jitter` keeps the spec's execution-time
/// noise), a collector, and tasks whose AFET is set per stage so tests pin
/// utilisations exactly.
struct Harness {
  sim::Simulator sim;
  gpusim::GpuSpec spec;
  std::unique_ptr<gpusim::Gpu> gpu;
  metrics::Collector collector;
  std::unique_ptr<Scheduler> sched;
  std::unique_ptr<dnn::CompiledModel> model;

  explicit Harness(SchedulerConfig cfg, bool jitter = false) {
    if (!jitter) spec.jitter_cv = 0.0;
    gpu = std::make_unique<gpusim::Gpu>(sim, spec);
    model = std::make_unique<dnn::CompiledModel>(
        dnn::compiled_model(dnn::ModelKind::kResNet18, 1, spec));
    sched = std::make_unique<Scheduler>(sim, *gpu, cfg, &collector);
  }

  /// Adds a ResNet18 task with an implicit deadline (= period) and an AFET
  /// of `afet_stage_us` on every stage.
  int add_task(Priority p, double period_ms, double afet_stage_us = 500.0) {
    TaskSpec t;
    t.model = dnn::ModelKind::kResNet18;
    t.period = common::from_ms(period_ms);
    t.relative_deadline = t.period;
    t.priority = p;
    const int id = sched->add_task(t, model.get());
    sched->set_afet(id, std::vector<double>(model->stage_count(),
                                            afet_stage_us));
    return id;
  }
};

}  // namespace daris::rt
