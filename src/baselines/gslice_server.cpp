#include "baselines/gslice_server.h"

#include <functional>
#include <vector>

#include "gpusim/gpu.h"
#include "gpusim/partition.h"
#include "sim/simulator.h"

namespace daris::baselines {

GSliceResult measure_gslice_jps(dnn::ModelKind kind, int slices, int batch,
                                const gpusim::GpuSpec& spec,
                                double duration_s, std::uint64_t seed) {
  sim::Simulator sim;
  gpusim::Gpu gpu(sim, spec, seed);

  // Fixed percentages summing to 100%: quota = SMs / slices (no OS).
  const int quota = spec.sm_count / slices;
  std::vector<gpusim::StreamId> streams;
  for (int i = 0; i < slices; ++i) {
    const auto ctx = gpu.create_context(static_cast<double>(quota));
    streams.push_back(gpu.create_stream(ctx));
  }

  const dnn::CompiledModel model = dnn::compiled_model(kind, batch, spec);
  const common::Time horizon = common::from_sec(duration_s);
  std::uint64_t batches = 0;

  std::function<void(std::size_t)> launch = [&](std::size_t i) {
    if (sim.now() >= horizon) return;
    for (const auto& stage : model.stages) {
      for (const auto& k : stage.kernels) gpu.launch_kernel(streams[i], k);
    }
    gpu.enqueue_callback(streams[i], [&, i] {
      ++batches;
      launch(i);
    });
  };
  for (std::size_t i = 0; i < streams.size(); ++i) launch(i);
  sim.run_until(horizon);

  GSliceResult r;
  r.slices = slices;
  r.batch = batch;
  r.batches = batches;
  r.jps = static_cast<double>(batches) * batch / duration_s;
  return r;
}

GSliceResult best_gslice_jps(dnn::ModelKind kind, const gpusim::GpuSpec& spec,
                             double duration_s) {
  GSliceResult best;
  for (int slices : {2, 3, 4}) {
    for (int batch : {4, 8, 16, 32}) {
      const GSliceResult r =
          measure_gslice_jps(kind, slices, batch, spec, duration_s);
      if (r.jps > best.jps) best = r;
    }
  }
  return best;
}

}  // namespace daris::baselines
