// GSlice-like baseline (Dhakal et al., SoCC 2020) for the Sec. VI-B
// comparison: controlled spatial sharing of the GPU via fixed MPS
// percentages (no oversubscription), each slice serving batched inference.
// GSlice reported a 3.5% throughput gain over pure batching; DARIS reports
// 11.5% over GSlice.
#pragma once

#include <cstdint>

#include "dnn/zoo.h"
#include "gpusim/gpu_spec.h"

namespace daris::baselines {

struct GSliceResult {
  double jps = 0.0;
  int slices = 0;
  int batch = 0;
  std::uint64_t batches = 0;  // completed, over all slices
};

/// Saturated throughput of `slices` equal MPS partitions (summing to 100%,
/// no oversubscription), each running batches of `batch` samples.
GSliceResult measure_gslice_jps(dnn::ModelKind kind, int slices, int batch,
                                const gpusim::GpuSpec& spec,
                                double duration_s = 4.0,
                                std::uint64_t seed = 0x6511CE);

/// Sweeps slice count and batch size (GSlice's self-tuning knobs) and
/// returns the best configuration.
GSliceResult best_gslice_jps(dnn::ModelKind kind, const gpusim::GpuSpec& spec,
                             double duration_s = 4.0);

}  // namespace daris::baselines
