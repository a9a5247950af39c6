// Lightweight statistics helpers used by the metrics layer and tests.
#pragma once

#include <cstddef>
#include <vector>

namespace daris::common {

/// Streaming mean (Welford's update, which AFET profiles are seeded from).
class OnlineStats {
 public:
  void add(double x);

  std::size_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
};

/// Stores samples and answers percentile queries (nearest-rank).
class Percentiles {
 public:
  void add(double x) {
    samples_.push_back(x);
    sorted_ = false;
  }
  std::size_t count() const { return samples_.size(); }

  /// p in [0, 100]; returns 0 when empty.
  double percentile(double p) const;
  double mean() const;
  double max() const;

  const std::vector<double>& samples() const { return samples_; }

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
  void ensure_sorted() const;
};

}  // namespace daris::common
