#include "baselines/clockwork_server.h"

#include <map>
#include <queue>
#include <vector>

#include "common/rng.h"
#include "dnn/calibration.h"
#include "gpusim/gpu.h"
#include "sim/simulator.h"
#include "workload/driver.h"

namespace daris::baselines {

namespace {
struct PendingJob {
  int task_index = 0;
  common::Time release = 0;
  common::Time deadline = 0;
  common::Priority priority = common::Priority::kHigh;
};
struct Earliest {
  bool operator()(const PendingJob& a, const PendingJob& b) const {
    if (a.deadline != b.deadline) return a.deadline > b.deadline;
    return a.release > b.release;
  }
};

/// All run state behind one pointer, so the per-job completion callback
/// captures {server, deadline, priority} — well inside sim::Callback's
/// inline buffer — instead of a reference per counter (which used to cost a
/// heap cell per completed job).
struct Server {
  sim::Simulator& sim;
  gpusim::Gpu& gpu;
  gpusim::StreamId stream;
  const workload::TaskSetSpec& taskset;
  const std::map<dnn::ModelKind, dnn::CompiledModel>& models;
  const std::map<dnn::ModelKind, double>& latency_us;

  std::priority_queue<PendingJob, std::vector<PendingJob>, Earliest> queue{};
  bool busy = false;

  std::uint64_t completed = 0, missed_hp = 0, missed_lp = 0;
  std::uint64_t done_hp = 0, done_lp = 0, dropped = 0, released = 0;

  void release(int task_index) {
    ++released;
    const auto& t = taskset.tasks[static_cast<std::size_t>(task_index)];
    const common::Time when = sim.now();
    queue.push(
        PendingJob{task_index, when, when + t.relative_deadline, t.priority});
    pump();
  }

  void pump() {
    if (busy || queue.empty()) return;
    const PendingJob job = queue.top();
    queue.pop();
    const auto& t = taskset.tasks[static_cast<std::size_t>(job.task_index)];
    // Clockwork's admission: drop if the predicted completion is late. The
    // prediction carries a safety margin, as Clockwork schedules against
    // worst-case estimates to stay predictable.
    const double pred_us = 1.15 * latency_us.at(t.model);
    if (sim.now() + common::from_us(pred_us) > job.deadline) {
      ++dropped;
      pump();
      return;
    }
    busy = true;
    const auto& model = models.at(t.model);
    for (const auto& stage : model.stages) {
      for (const auto& k : stage.kernels) gpu.launch_kernel(stream, k);
    }
    auto on_done = [srv = this, deadline = job.deadline,
                    priority = job.priority] {
      srv->complete(deadline, priority);
    };
    static_assert(sizeof(on_done) <= sim::Callback::kInlineCapacity,
                  "Clockwork completion callback must stay inline "
                  "(tests/test_sim_alloc.cpp pins the shape)");
    gpu.enqueue_callback(stream, std::move(on_done));
  }

  void complete(common::Time deadline, common::Priority priority) {
    ++completed;
    const bool miss = sim.now() > deadline;
    if (priority == common::Priority::kHigh) {
      ++done_hp;
      if (miss) ++missed_hp;
    } else {
      ++done_lp;
      if (miss) ++missed_lp;
    }
    busy = false;
    pump();
  }
};
}  // namespace

ClockworkResult run_clockwork(const workload::TaskSetSpec& taskset,
                              const gpusim::GpuSpec& spec,
                              double duration_s) {
  sim::Simulator sim;
  gpusim::Gpu gpu(sim, spec, /*seed=*/0xC10C4);
  const auto ctx = gpu.create_context(static_cast<double>(spec.sm_count));
  const auto stream = gpu.create_stream(ctx);

  // One compiled model per distinct kind, plus its predictable latency.
  std::map<dnn::ModelKind, dnn::CompiledModel> models;
  std::map<dnn::ModelKind, double> latency_us;
  for (const auto& t : taskset.tasks) {
    if (models.count(t.model)) continue;
    models.emplace(t.model, dnn::compiled_model(t.model, 1, spec));
    latency_us[t.model] =
        dnn::analytic_sequential_latency_us(models.at(t.model), spec);
  }

  Server server{sim, gpu, stream, taskset, models, latency_us};

  // Periodic releases, re-armed in place each period by the shared driver;
  // the release sink captures one pointer, so the driver's std::function
  // stays in its small-buffer storage too.
  const common::Time horizon = common::from_sec(duration_s);
  workload::PeriodicDriver driver(
      sim, taskset, [srv = &server](int i) { srv->release(i); }, horizon);
  driver.start();
  sim.run_until(horizon);

  ClockworkResult r;
  r.jps = static_cast<double>(server.completed) / duration_s;
  r.hp_dmr = server.done_hp
                 ? static_cast<double>(server.missed_hp) / server.done_hp
                 : 0.0;
  r.lp_dmr = server.done_lp
                 ? static_cast<double>(server.missed_lp) / server.done_lp
                 : 0.0;
  r.drop_rate = server.released
                    ? static_cast<double>(server.dropped) / server.released
                    : 0.0;
  return r;
}

}  // namespace daris::baselines
