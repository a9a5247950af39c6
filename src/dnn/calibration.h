// Analytic latency model and Table-I calibration.
//
// The analytic model mirrors the GPU simulator for the degenerate case of a
// single stream running alone (one kernel resident at a time), which is
// exactly the condition under which the paper measured Table I. Calibration
// then fits two scalars per network:
//   * work_scale  — so best-batched throughput matches Table I max JPS
//                   (total work determines saturated throughput);
//   * par_scale   — so single-stream latency matches Table I min JPS
//                   (kernel width determines how much of the GPU one
//                   un-batched stream can use).
// Everything else (who wins under colocation, oversubscription knees, DMR)
// is emergent, not fitted.
#pragma once

#include "dnn/model.h"
#include "dnn/zoo.h"
#include "gpusim/gpu_spec.h"

namespace daris::dnn {

/// Latency of one inference executed alone on the device, sequential kernels
/// with launch overhead, wave quantisation, and the bandwidth cap (no stage
/// syncs: Table I was measured without DARIS staging). Microseconds.
double analytic_sequential_latency_us(const CompiledModel& model,
                                      const gpusim::GpuSpec& spec);

/// Effective rate (SMs of progress per us) of a single kernel running alone,
/// matching Gpu::recompute_rates for the one-kernel case.
double analytic_kernel_rate(const gpusim::KernelDesc& kernel,
                            const gpusim::GpuSpec& spec);

/// Batch size calibration treats as the batched-throughput asymptote.
inline constexpr int kCalibrationBatch = 32;

struct CalibrationTargets {
  double single_stream_latency_us;  // 1e6 / Table I min JPS
  double batched_jps;               // Table I max JPS at kCalibrationBatch
};

/// Fixed-point fit of work_scale / par_scale (see file comment). `base`
/// carries the non-fitted constants (e.g. the per-model batch overhead).
LoweringParams calibrate(const NetworkDef& net, const gpusim::GpuSpec& spec,
                         const CalibrationTargets& targets,
                         const LoweringParams& base = {});

}  // namespace daris::dnn
