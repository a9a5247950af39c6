#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace daris::common {

void OnlineStats::add(double x) {
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void OnlineStats::merge(const OnlineStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double n1 = static_cast<double>(count_);
  const double n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double total = n1 + n2;
  mean_ += delta * n2 / total;
  m2_ += other.m2_ + delta * delta * n1 * n2 / total;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void OnlineStats::reset() { *this = OnlineStats(); }

double OnlineStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

void Percentiles::ensure_sorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double Percentiles::percentile(double p) const {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  const double clamped = std::clamp(p, 0.0, 100.0);
  const auto rank = static_cast<std::size_t>(
      std::ceil(clamped / 100.0 * static_cast<double>(samples_.size())));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  return samples_[std::min(index, samples_.size() - 1)];
}

double Percentiles::mean() const {
  if (samples_.empty()) return 0.0;
  double sum = 0.0;
  for (double s : samples_) sum += s;
  return sum / static_cast<double>(samples_.size());
}

double Percentiles::min() const {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  return samples_.front();
}

double Percentiles::max() const {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  return samples_.back();
}

SlidingWindowMax::SlidingWindowMax(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity),
      ring_(std::min<std::size_t>(capacity_ + 1, 8)) {}

void SlidingWindowMax::push(double value) {
  const std::uint64_t index = next_index_++;
  // Pop dominated maxima off the back, then append the new sample.
  while (count_ > 0 && at(count_ - 1).value <= value) {
    --count_;
  }
  if (count_ == ring_.size()) grow();
  at(count_) = {index, value};
  ++count_;
  if (size_ < capacity_) {
    ++size_;
  }
  // Drop maxima that fell out of the window.
  const std::uint64_t oldest = next_index_ - size_;
  while (count_ > 0 && ring_[head_].index < oldest) {
    head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
    --count_;
  }
}

void SlidingWindowMax::grow() {
  // Only a full ring grows, and the count_ maxima it holds all lie inside the
  // previous window, so count_ <= capacity_ and the ring is below its bound.
  std::vector<Entry> bigger(std::min(capacity_ + 1, 2 * ring_.size()));
  for (std::size_t i = 0; i < count_; ++i) bigger[i] = at(i);
  ring_ = std::move(bigger);
  head_ = 0;
}

}  // namespace daris::common
