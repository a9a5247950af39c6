#include "daris/mret.h"

#include <cassert>

namespace daris::rt {

MretEstimator::MretEstimator(std::size_t num_stages, std::size_t window)
    : num_stages_(static_cast<std::uint32_t>(num_stages)),
      window_(static_cast<std::uint32_t>(window)) {}

void MretEstimator::record(std::size_t stage, double execution_us) {
  assert(stage < num_stages());
  if (windows_.empty()) {
    windows_.reserve(num_stages());
    for (std::size_t i = 0; i < num_stages(); ++i) {
      windows_.emplace_back(window_);
    }
  }
  windows_[stage].push(execution_us);
}

double MretEstimator::stage_mret_us(std::size_t stage) const {
  assert(stage < num_stages());
  return windows_.empty() ? afet(stage) : windows_[stage].max_or(afet(stage));
}

double MretEstimator::total_mret_us() const {
  double total = 0.0;
  for (std::size_t i = 0; i < num_stages(); ++i) total += stage_mret_us(i);
  return total;
}

std::vector<common::Duration> MretEstimator::virtual_deadlines(
    common::Duration d) const {
  const double total = total_mret_us();
  std::vector<common::Duration> out(num_stages());
  if (total <= 0.0) {
    // Degenerate seed: split evenly.
    for (auto& v : out)
      v = d / static_cast<common::Duration>(num_stages());
    return out;
  }
  for (std::size_t i = 0; i < num_stages(); ++i) {
    out[i] = static_cast<common::Duration>(
        static_cast<double>(d) * stage_mret_us(i) / total + 0.5);
  }
  return out;
}

}  // namespace daris::rt
