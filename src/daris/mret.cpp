#include "daris/mret.h"

#include <algorithm>
#include <cassert>

namespace daris::rt {

MretEstimator::MretEstimator(std::size_t num_stages, std::size_t window)
    : num_stages_(static_cast<std::uint32_t>(num_stages)),
      window_(static_cast<std::uint32_t>(window)) {
  assert(window >= 1 && window <= kMaxWindow);
}

void MretEstimator::set_afet(const double* per_stage_us) {
  afet_us_ = per_stage_us;
  total_us_ = stage_sum_us();
}

void MretEstimator::record(std::size_t stage, double execution_us) {
  assert(stage < num_stages());
  if (!block_) {
    // Value-initialised: every header reads zero samples, head at slot 0.
    block_ =
        std::make_unique<Cell[]>(num_stages() * (window_ + std::size_t{1}));
  }
  Cell* cells = ring(stage);
  Cell::Header& h = cells[0].header;
  cells[1 + h.head].sample = execution_us;
  h.head = h.head + 1 == window_ ? 0 : h.head + 1;
  if (h.count < window_) ++h.count;
  total_us_ = stage_sum_us();
}

double MretEstimator::stage_mret_us(std::size_t stage) const {
  assert(stage < num_stages());
  if (!block_) return afet(stage);
  const Cell* cells = ring(stage);
  const std::uint32_t n = cells[0].header.count;
  if (n == 0) return afet(stage);
  double best = cells[1].sample;
  for (std::uint32_t i = 2; i <= n; ++i) best = std::max(best, cells[i].sample);
  return best;
}

double MretEstimator::stage_sum_us() const {
  if (!block_) return afet_sum_us(afet_us_, num_stages());
  double total = 0.0;
  for (std::size_t i = 0; i < num_stages(); ++i) total += stage_mret_us(i);
  return total;
}

double MretEstimator::afet_sum_us(const double* per_stage_us, std::size_t n) {
  double total = 0.0;
  if (per_stage_us == nullptr) return total;
  for (std::size_t i = 0; i < n; ++i) total += per_stage_us[i];
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
