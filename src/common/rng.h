// Deterministic, seedable random number generation (xoshiro256**).
//
// Experiments must be bit-reproducible from a seed, so we avoid
// std::mt19937's platform-dependent distribution implementations and provide
// our own uniform / exponential / normal draws.
#pragma once

#include <cstdint>

namespace daris::common {

/// xoshiro256** 1.0 by Blackman & Vigna; seeded through SplitMix64.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// Uniform 64-bit value.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Exponentially distributed value with the given mean.
  double exponential(double mean);

  /// Normally distributed value (Box-Muller).
  double normal(double mean, double stddev);

  /// Derives an independent child generator (for per-task streams).
  Rng fork();

 private:
  std::uint64_t state_[4];
};

}  // namespace daris::common
