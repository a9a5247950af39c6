#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace daris::common {

void OnlineStats::add(double x) {
  ++count_;
  mean_ += (x - mean_) / static_cast<double>(count_);
}

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

double Percentiles::max() const {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  return samples_.back();
}

SlidingWindowMax::SlidingWindowMax(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

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
  const std::size_t want = ring_.empty() ? 8 : 2 * ring_.size();
  std::vector<Entry> bigger(std::min(capacity_ + 1, want));
  for (std::size_t i = 0; i < count_; ++i) bigger[i] = at(i);
  ring_ = std::move(bigger);
  head_ = 0;
}

}  // namespace daris::common
