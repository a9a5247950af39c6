#include "daris/offline.h"

#include <algorithm>
#include <cassert>
#include <functional>

#include "common/rng.h"
#include "common/stats.h"
#include "gpusim/gpu.h"
#include "gpusim/partition.h"
#include "sim/simulator.h"

namespace daris::rt {

const std::vector<double>& AfetResult::for_model(
    const dnn::CompiledModel* m) const {
  auto it = per_stage_us.find(m);
  assert(it != per_stage_us.end() && "model was not profiled");
  return it->second;
}

AfetResult profile_afet(const gpusim::GpuSpec& spec,
                        const SchedulerConfig& cfg,
                        const std::vector<const dnn::CompiledModel*>& models,
                        int jobs_per_stream, std::uint64_t seed) {
  assert(!models.empty());
  SchedulerConfig config = cfg;
  config.canonicalize();

  sim::Simulator sim;
  gpusim::Gpu gpu(sim, spec, seed);
  common::Rng rng(seed ^ 0x0FF1CEull);

  const auto quotas =
      config.policy == Policy::kStr
          ? std::vector<int>{spec.sm_count}
          : gpusim::partition_quotas(spec, config.num_contexts,
                                     config.oversubscription);
  std::vector<gpusim::StreamId> streams;
  for (int q : quotas) {
    const auto ctx = gpu.create_context(static_cast<double>(q));
    for (int s = 0; s < config.streams_per_context; ++s) {
      streams.push_back(gpu.create_stream(ctx));
    }
  }

  // Per (model, stage) statistics.
  std::map<const dnn::CompiledModel*, std::vector<common::OnlineStats>> stats;
  for (const auto* m : models) {
    stats[m] = std::vector<common::OnlineStats>(m->stage_count());
  }

  // Each stream runs `jobs_per_stream` jobs of a (rotating, pseudo-random)
  // model, stage by stage with the usual sync boundaries. A stream runs one
  // stage at a time, so its loop holds the job in progress.
  struct StreamLoop {
    int remaining_jobs = 0;
    const dnn::CompiledModel* model = nullptr;
    std::size_t stage = 0;
    common::Time stage_start = 0;
  };
  std::vector<StreamLoop> loops(streams.size());

  // Launches the stream's current stage; its sync callback records the
  // stage's time and chains the next stage, after the host sync, or job.
  std::function<void(std::size_t)> run_stage;
  auto start_job = [&](std::size_t stream_index) {
    auto& loop = loops[stream_index];
    if (loop.remaining_jobs <= 0) return;
    --loop.remaining_jobs;
    loop.model = models[rng.uniform_int(
        0, static_cast<std::int64_t>(models.size() - 1))];
    loop.stage = 0;
    run_stage(stream_index);
  };
  run_stage = [&](std::size_t stream_index) {
    auto& loop = loops[stream_index];
    const gpusim::StreamId s = streams[stream_index];
    loop.stage_start = sim.now();
    for (const auto& k : loop.model->stages[loop.stage].kernels) {
      gpu.launch_kernel(s, k);
    }
    gpu.enqueue_callback(s, [&, stream_index] {
      auto& done = loops[stream_index];
      stats[done.model][done.stage].add(
          common::to_us(sim.now() - done.stage_start));
      if (++done.stage < done.model->stage_count()) {
        sim.schedule_after(common::from_us(spec.sync_overhead_us),
                           [&run_stage, stream_index] {
                             run_stage(stream_index);
                           });
      } else {
        start_job(stream_index);
      }
    });
  };

  for (std::size_t i = 0; i < streams.size(); ++i) {
    loops[i].remaining_jobs = jobs_per_stream;
    start_job(i);
  }
  sim.run();

  AfetResult result;
  for (const auto* m : models) {
    std::vector<double> per_stage(m->stage_count(), 0.0);
    for (std::size_t j = 0; j < m->stage_count(); ++j) {
      const auto& st = stats[m][j];
      // A model may get few samples when streams outnumber its draws; the
      // analytic fallback is its stage work at an even device split.
      if (st.count() > 0) {
        per_stage[j] = st.mean();
      } else {
        const double share = static_cast<double>(spec.sm_count) /
                             static_cast<double>(streams.size());
        per_stage[j] = m->stages[j].total_work() / std::max(1.0, share);
      }
    }
    result.per_stage_us.emplace(m, std::move(per_stage));
  }
  return result;
}

}  // namespace daris::rt
