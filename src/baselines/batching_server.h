// Single-tenant batching baseline (the paper's upper baseline, Table I /
// Fig. 1): one context owning the whole GPU, one stream, back-to-back
// batches of a single model.
#pragma once

#include <cstdint>

#include "dnn/zoo.h"
#include "gpusim/gpu_spec.h"

namespace daris::baselines {

struct BatchingResult {
  double jps = 0.0;            // jobs (samples) per second
  double batch_latency_ms = 0.0;
  std::uint64_t batches = 0;
};

/// Saturated closed-loop throughput of `model` at the given batch size: the
/// one-slice GSlice loop (baselines::measure_gslice_jps).
BatchingResult measure_batched_jps(dnn::ModelKind kind, int batch,
                                   const gpusim::GpuSpec& spec,
                                   double duration_s = 4.0);

/// Sweeps batch sizes and returns the best throughput (Table I max JPS).
BatchingResult best_batched_jps(dnn::ModelKind kind,
                                const gpusim::GpuSpec& spec,
                                double duration_s = 4.0);

}  // namespace daris::baselines
