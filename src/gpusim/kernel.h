// Description of a GPU kernel as seen by the simulator.
#pragma once

namespace daris::gpusim {

/// A kernel is a bag of identical blocks: `work` SM-microseconds of compute
/// that can use at most `parallelism` SMs concurrently, generating
/// `mem_intensity` bandwidth units per active SM.
struct KernelDesc {
  /// Total compute, in SM-microseconds.
  double work = 1.0;

  /// Maximum SMs the kernel can occupy at once (grid width in SM units).
  double parallelism = 1.0;

  /// Bandwidth units consumed per active SM (1.0 = balanced, >1 = memory
  /// bound at full width).
  double mem_intensity = 0.3;
};

}  // namespace daris::gpusim
