// Maximum Recent Execution Time (MRET) estimation and virtual deadlines.
//
// MRET (Eq. 1-2) is the paper's dynamic WCET stand-in: the maximum execution
// time of each stage over the last `ws` observations, summed across stages
// for the task-level value. Before any observation exists, the offline AFET
// (average full-load execution time) seeds the estimate (Eq. 10).
//
// Virtual deadlines (Eq. 8) split the task's relative deadline across stages
// proportionally to their MRET shares.
//
// The per-stage windows are created on the first record(): a fleet keeps
// one estimator per (task, device) pair, and most pairs never run a stage,
// so an unobserved estimator costs only its AFET vector.
#pragma once

#include <cstddef>
#include <vector>

#include "common/stats.h"
#include "common/time.h"

namespace daris::rt {

class MretEstimator {
 public:
  MretEstimator(std::size_t num_stages, std::size_t window);

  /// Seeds stage estimates with offline AFET values (microseconds).
  void set_afet(const std::vector<double>& per_stage_us);

  /// Records a measured stage execution time et_{i,j} (Eq. 1 window push).
  void record(std::size_t stage, double execution_us);

  /// mret_{i,j}(t) in microseconds; AFET until a sample exists.
  double stage_mret_us(std::size_t stage) const;

  /// mret_i(t) = sum over stages (Eq. 2).
  double total_mret_us() const;

  /// Virtual relative deadline of each stage for a task-relative deadline D
  /// (Eq. 8): D_{i,j} = mret_{i,j} / mret_i * D.
  std::vector<common::Duration> virtual_deadlines(common::Duration d) const;

  std::size_t num_stages() const { return afet_us_.size(); }
  std::size_t observations(std::size_t stage) const {
    return windows_.empty() ? 0 : windows_[stage].size();
  }

 private:
  std::size_t window_;
  /// One window per stage once any stage has been recorded; empty before.
  std::vector<common::SlidingWindowMax> windows_;
  std::vector<double> afet_us_;
};

}  // namespace daris::rt
