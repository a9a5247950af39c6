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
//
// Every admission test (Eqs. 10-12) and the fleet's placement and steal
// tests read the Eq. 2 total, while only record() and set_afet() change it,
// so the estimator keeps the total and recomputes it, in stage order, on
// exactly those two calls: a read is one load, and equals the stage sum bit
// for bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
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
  /// seed. nullptr (the initial seed) reads as all zeros. Recomputes the
  /// Eq. 2 total: stages not observed yet read the new seed.
  void set_afet(const double* per_stage_us);

  /// Records a measured stage execution time et_{i,j} (Eq. 1 window push)
  /// and recomputes the Eq. 2 total.
  void record(std::size_t stage, double execution_us);

  /// mret_{i,j}(t) in microseconds; AFET until a sample exists.
  double stage_mret_us(std::size_t stage) const;

  /// mret_i(t) = sum over stages (Eq. 2), as last recomputed by record()
  /// or set_afet().
  double total_mret_us() const { return total_us_; }

  /// The Eq. 2 sum computed now from the windows and the AFET seed, in
  /// stage order: what record() and set_afet() store, and what
  /// rt::Scheduler::audit() checks total_mret_us() against.
  double stage_sum_us() const;

  /// Virtual relative deadline of each stage for a task-relative deadline D
  /// (Eq. 8): D_{i,j} = mret_{i,j} / mret_i * D.
  std::vector<common::Duration> virtual_deadlines(common::Duration d) const;

  std::size_t num_stages() const { return num_stages_; }
  std::size_t observations(std::size_t stage) const {
    return windows_ ? windows_[stage].size() : 0;
  }

 private:
  double afet(std::size_t stage) const {
    return afet_us_ == nullptr ? 0.0 : afet_us_[stage];
  }

  /// num_stages() windows, one allocation, once any stage has been
  /// recorded; null before. An owning pointer (8 bytes, against a vector's
  /// 24) pays for total_us_ and more: a fleet holds one estimator per
  /// (task, device) pair (see the size pin beside rt::Task).
  std::unique_ptr<common::SlidingWindowMax[]> windows_;
  const double* afet_us_ = nullptr;
  double total_us_ = 0.0;
  std::uint32_t num_stages_;
  std::uint32_t window_;
};

}  // namespace daris::rt
