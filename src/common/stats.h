// Lightweight statistics helpers used by the metrics layer and tests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace daris::common {

/// Streaming mean/variance/min/max (Welford).
class OnlineStats {
 public:
  void add(double x);
  void merge(const OnlineStats& other);
  void reset();

  std::size_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  double variance() const;
  double stddev() const;
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double sum() const { return mean_ * static_cast<double>(count_); }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
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
  double median() const { return percentile(50.0); }
  double mean() const;
  double min() const;
  double max() const;

  const std::vector<double>& samples() const { return samples_; }

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
  void ensure_sorted() const;
};

/// Sliding window that tracks the maximum of the last `capacity` values.
///
/// This is the data structure behind MRET (Eq. 1): the maximum execution time
/// observed within the most recent `ws` jobs of a stage. A monotonic queue of
/// decreasing maxima gives O(1) amortised push and O(1) max query. The queue
/// lives in a ring that never needs more than capacity + 1 entries: a push
/// can briefly hold the previous window's `capacity` maxima plus the new
/// sample before the oldest expires. The ring is allocated by the first push,
/// at up to 8 entries (one allocation covers the paper's ws = 5), and doubles
/// when full, up to that bound, so memory follows the maxima a window has
/// held rather than its capacity, which comes from user input; an unpushed
/// window owns no memory.
class SlidingWindowMax {
 public:
  explicit SlidingWindowMax(std::size_t capacity = 1);

  void push(double value);
  /// Maximum over the stored window; `fallback` when no samples yet.
  double max_or(double fallback) const {
    return count_ == 0 ? fallback : ring_[head_].value;
  }
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }

 private:
  struct Entry {
    std::uint64_t index;
    double value;
  };
  /// The live entry `offset` places behind the head (offset < ring_.size()).
  Entry& at(std::size_t offset) {
    const std::size_t i = head_ + offset;
    return ring_[i < ring_.size() ? i : i - ring_.size()];
  }
  /// Allocates the first ring, or doubles the full one, capped at
  /// capacity_ + 1, and moves the live entries to its front.
  void grow();

  std::size_t capacity_;
  std::size_t size_ = 0;
  std::uint64_t next_index_ = 0;
  /// The maxima, oldest (largest) first: ring_[head_] onward, count_ live
  /// entries, wrapping at ring_.size() <= capacity_ + 1.
  std::vector<Entry> ring_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace daris::common
