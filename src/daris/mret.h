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
// The per-stage windows are created on the first record(), and the AFET
// seed is read from an immutable per-stage array the estimator does not own
// (rt::Scheduler keeps one copy per distinct AFET vector): a fleet keeps
// one estimator per (task, device) pair, and most pairs never run a stage,
// so an unobserved estimator allocates nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "common/time.h"

namespace daris::rt {

class MretEstimator {
 public:
  MretEstimator(std::size_t num_stages, std::size_t window);

  /// Seeds stage estimates with offline AFET values (microseconds): the
  /// estimator reads `per_stage_us[0 .. num_stages())` from now on, without
  /// copying it, so the array must stay unchanged and alive while it is the
  /// seed. nullptr (the initial seed) reads as all zeros.
  void set_afet(const double* per_stage_us) { afet_us_ = per_stage_us; }

  /// Records a measured stage execution time et_{i,j} (Eq. 1 window push).
  void record(std::size_t stage, double execution_us);

  /// mret_{i,j}(t) in microseconds; AFET until a sample exists.
  double stage_mret_us(std::size_t stage) const;

  /// mret_i(t) = sum over stages (Eq. 2).
  double total_mret_us() const;

  /// Virtual relative deadline of each stage for a task-relative deadline D
  /// (Eq. 8): D_{i,j} = mret_{i,j} / mret_i * D.
  std::vector<common::Duration> virtual_deadlines(common::Duration d) const;

  std::size_t num_stages() const { return num_stages_; }
  std::size_t observations(std::size_t stage) const {
    return windows_.empty() ? 0 : windows_[stage].size();
  }

 private:
  double afet(std::size_t stage) const {
    return afet_us_ == nullptr ? 0.0 : afet_us_[stage];
  }

  /// One window per stage once any stage has been recorded; empty before.
  std::vector<common::SlidingWindowMax> windows_;
  const double* afet_us_ = nullptr;
  std::uint32_t num_stages_;
  std::uint32_t window_;
};

}  // namespace daris::rt
