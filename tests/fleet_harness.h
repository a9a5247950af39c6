// Shared fixture of the cluster suites: a small hand-wired fleet, plus the
// counter text that repeat, lane-count and golden checks compare.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/fleet.h"
#include "experiments/cluster_runner.h"
#include "sim/sharded.h"

namespace daris::cluster {

/// Small deterministic fixture: a jitter-free fleet of single-stream GPUs
/// with `num_contexts` contexts each, one ResNet18 model shared by every
/// task, on a sharded simulator with `lanes` worker lanes sized to the
/// fleet. Transfers are zero-delay by default (the legacy premise); tests
/// of the transfer cost model pass a rate, and heterogeneous tests pass
/// explicit nodes (which override num_gpus). Multi-lane runs record
/// finishes into per-device collector lanes (device events then run on a
/// pool worker); finalize_lanes() folds them back.
struct Harness {
  explicit Harness(int num_gpus, int num_contexts = 1,
                   double transfer_us_per_mb = 0.0, int lanes = 1,
                   std::vector<GpuNodeSpec> nodes = {})
      : sim(nodes.empty() ? num_gpus : static_cast<int>(nodes.size()),
            lanes) {
    FleetConfig cfg;
    cfg.num_gpus = num_gpus;
    cfg.gpu.jitter_cv = 0.0;
    cfg.nodes = std::move(nodes);
    for (auto& node : cfg.nodes) node.base.jitter_cv = 0.0;
    cfg.transfer_us_per_mb = transfer_us_per_mb;
    cfg.sched.policy = rt::Policy::kMps;
    cfg.sched.num_contexts = num_contexts;
    model = std::make_unique<dnn::CompiledModel>(
        dnn::compiled_model(dnn::ModelKind::kResNet18, 1, cfg.gpu));
    if (lanes > 1) collector.enable_lanes(sim.device_shards());
    fleet = std::make_unique<Fleet>(sim, cfg, &collector);
  }

  /// Adds a task whose AFET (and so utilisation ~ total_afet/period) is
  /// chosen directly; period 10ms.
  int add_task(common::Priority priority, double total_afet_us,
               int home_gpu) {
    rt::TaskSpec spec;
    spec.model = dnn::ModelKind::kResNet18;
    spec.period = common::from_ms(10.0);
    spec.relative_deadline = spec.period;
    spec.priority = priority;
    const int id = fleet->add_task(spec, model.get(), home_gpu);
    fleet->set_afet(
        id, std::vector<double>(
                model->stage_count(),
                total_afet_us / static_cast<double>(model->stage_count())));
    return id;
  }

  /// Runs until every job and transfer in flight has settled.
  void run() { sim.run_until(sim.now() + common::from_sec(1.0)); }

  sim::ShardedSimulator sim;
  metrics::Collector collector;
  std::unique_ptr<dnn::CompiledModel> model;
  std::unique_ptr<Fleet> fleet;
};

/// Every counter of a fleet run written out (exp::counters_of).
inline std::string counters_text(const exp::ClusterResult& r) {
  return exp::format_counters(exp::counters_of(r));
}

/// Every device's rt::Scheduler::audit findings, one per line; empty when
/// every cached aggregate holds.
inline std::string audit_text(const Fleet& fleet) {
  std::string out;
  for (int g = 0; g < fleet.size(); ++g) {
    for (const std::string& finding : fleet.scheduler(g).audit()) {
      out += finding + "\n";
    }
  }
  return out;
}

}  // namespace daris::cluster
