#include "common/stats.h"

#include <algorithm>
#include <cmath>

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

}  // namespace daris::common
