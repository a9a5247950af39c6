#include "baselines/batching_server.h"

#include "baselines/gslice_server.h"

namespace daris::baselines {

BatchingResult measure_batched_jps(dnn::ModelKind kind, int batch,
                                   const gpusim::GpuSpec& spec,
                                   double duration_s) {
  const GSliceResult g =
      measure_gslice_jps(kind, 1, batch, spec, duration_s, 0xBA7C4);
  BatchingResult r;
  r.jps = g.jps;
  r.batches = g.batches;
  r.batch_latency_ms =
      g.batches > 0 ? 1e3 * duration_s / static_cast<double>(g.batches) : 0.0;
  return r;
}

BatchingResult best_batched_jps(dnn::ModelKind kind,
                                const gpusim::GpuSpec& spec,
                                double duration_s) {
  BatchingResult best;
  for (int b : {2, 4, 8, 16, 32}) {
    const BatchingResult r = measure_batched_jps(kind, b, spec, duration_s);
    if (r.jps > best.jps) best = r;
  }
  return best;
}

}  // namespace daris::baselines
