// Compiled model: the network lowered to GPU kernel sequences per stage.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "dnn/layer.h"
#include "gpusim/kernel.h"

namespace daris::dnn {

// Fixed ratios of the layer -> kernel lowering, RTX 2080 Ti-like. The
// calibrated values are LoweringParams.

/// Deliverable FLOPs per SM-microsecond (before calibration scale).
inline constexpr double kFlopsPerSmUs = 2.0e5;
/// Output elements one SM's worth of blocks covers (parallelism proxy).
inline constexpr double kElemsPerSm = 8192.0;
/// Bytes per FLOP at which compute and bandwidth are balanced.
inline constexpr double kBalanceBytesPerFlop = 0.046;
/// Cap on a single kernel's parallelism, in SMs.
inline constexpr double kMaxParallelismSms = 1024.0;

/// The calibrated values of the layer -> kernel lowering: `work_scale` and
/// `par_scale` are fit to the paper's measured Table I numbers, and
/// `batch_work_overhead` is set per model (dnn::calibrated_params).
struct LoweringParams {
  /// Calibration multipliers (fit to Table I min/max JPS).
  double work_scale = 1.0;
  double par_scale = 1.0;

  /// Per-sample work inflation of batched kernels,
  /// f(B) = 1 + c * (B-1)/B: large batches pay extra cache/padding cost per
  /// sample. This is why the paper's colocated single-sample kernels exceed
  /// the best batched throughput (Sec. VI: +13% ResNet18, +8% UNet).
  double batch_work_overhead = 0.17;
};

struct CompiledStage {
  std::string name;
  std::vector<gpusim::KernelDesc> kernels;

  double total_work() const;
};

struct CompiledModel {
  std::string name;
  int batch = 1;
  /// Parameter footprint in MB (fp32 weights, batch-independent). Sizes the
  /// cluster layer's hot-model pinning and cross-GPU weight transfers.
  double weight_mb = 0.0;
  std::vector<CompiledStage> stages;

  std::size_t stage_count() const { return stages.size(); }
  std::size_t kernel_count() const;
  double total_work() const;
};

/// Lowers `net` at the given batch size. Batching multiplies per-kernel work
/// and available parallelism by the batch while amortising weight traffic
/// and (at execution time) per-kernel launch overhead.
CompiledModel lower(const NetworkDef& net, int batch,
                    const LoweringParams& params);

}  // namespace daris::dnn
