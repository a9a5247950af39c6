// Job-release drivers: turn a task set into release events.
//
// Drivers deliver releases through a ReleaseFn sink so the same generator
// can drive a single rt::Scheduler or a cluster::Router front-end.
//
//  - PeriodicDriver: strictly periodic releases (phase + k*T), the paper's
//    closed-form workload (Table II).
//  - OpenLoopDriver: open-loop stochastic arrivals — Poisson, or a two-state
//    bursty process (MMPP-style: calm/burst states with exponential dwell
//    times, the burst state releasing at a multiple of the calm rate while
//    the long-run mean rate stays at the task's nominal 1/T). Seeded from
//    common::Rng so runs are bit-reproducible.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "common/time.h"
#include "daris/scheduler.h"
#include "sim/simulator.h"
#include "workload/taskset.h"

namespace daris::workload {

/// Sink for job releases; called with the task index at each arrival.
///
/// Deliberately a std::function rather than a sim::Callback: the sink is
/// multi-shot (invoked on every arrival for the whole run) while
/// sim::Callback is one-shot move-only — converting would force a re-wrap
/// per fire, the opposite of the zero-allocation goal. The cost profile is
/// already right as-is: each driver constructs its ReleaseFn exactly once
/// (one possible allocation per run, outside any measured window), invoking
/// a std::function allocates nothing, and the *fire paths* — the per-event
/// hot loop — ride sim::Callback's inline buffer, since every driver
/// captures only {this, task_id} (<= 16 bytes, far under
/// sim::Callback::kInlineCapacity) and re-arms a pooled event in place.
/// test_sim_alloc.cpp pins exactly this: steady-state OpenLoopDriver and
/// TraceDriver replay perform zero heap allocations.
using ReleaseFn = std::function<void(int task_id)>;

/// Schedules strictly periodic releases (phase + k*T) for every task, up to
/// `horizon`.
class PeriodicDriver {
 public:
  /// Drives the scheduler's registered tasks directly (single-GPU runs).
  PeriodicDriver(sim::Simulator& sim, rt::Scheduler& scheduler,
                 common::Time horizon);

  /// Drives an arbitrary sink (e.g. a cluster router) from a task-set spec.
  PeriodicDriver(sim::Simulator& sim, const TaskSetSpec& taskset,
                 ReleaseFn release, common::Time horizon);

  /// Arms the first release of every task.
  void start();

 private:
  struct Entry {
    common::Duration period = 0;
    common::Duration phase = 0;
    sim::EventHandle release_event;  // re-armed in place each period
  };

  void arm(int task_id, common::Time when);
  void fire(int task_id);

  sim::Simulator& sim_;
  std::vector<Entry> entries_;
  ReleaseFn release_;
  common::Time horizon_;
};

/// Inter-arrival process for the open-loop driver.
enum class ArrivalProcess {
  kPoisson,  // exponential inter-arrivals at the task's nominal rate
  kBursty,   // two-state MMPP-style modulated Poisson
};

// Shape of the bursty process. Dwell times in each state are exponential
// with these means (seconds); the burst state releases at kBurstFactor x the
// calm rate, and the calm rate is chosen so the long-run mean rate stays at
// rate_scale/T.
inline constexpr double kBurstFactor = 4.0;
inline constexpr double kMeanCalmS = 0.4;
inline constexpr double kMeanBurstS = 0.1;

struct OpenLoopConfig {
  ArrivalProcess process = ArrivalProcess::kPoisson;

  /// Multiplies every task's nominal rate 1/T (1.0 = the task set's demand;
  /// >1 drives overload).
  double rate_scale = 1.0;

  std::uint64_t seed = 42;
};

/// Open-loop arrivals: each task releases jobs independently of completions
/// (no back-pressure), which is what exercises admission and overload
/// hardest (Fig. 11). Deterministic given the config seed.
class OpenLoopDriver {
 public:
  OpenLoopDriver(sim::Simulator& sim, const TaskSetSpec& taskset,
                 ReleaseFn release, common::Time horizon,
                 OpenLoopConfig config = {});

  /// Arms the first arrival of every task.
  void start();

  /// Arrivals delivered so far (all tasks).
  std::uint64_t arrivals() const { return arrivals_; }

 private:
  struct Stream {
    double calm_rate_jps = 0.0;   // per-state release rates
    double burst_rate_jps = 0.0;  // == calm rate for Poisson
    bool burst = false;
    common::Time state_until = 0;  // next dwell-state change
    common::Rng rng{0};
    sim::EventHandle arrival_event;  // re-armed in place per arrival
  };

  void arm(int task_id);
  void fire(int task_id);
  /// Draws the next arrival time for the task, or -1 when the process has
  /// stopped (zero rate) or the draw lands past the horizon.
  common::Time next_arrival(Stream& s);
  /// Advances the task's MMPP state to `now` and returns the current rate.
  double current_rate(Stream& s, common::Time now);

  sim::Simulator& sim_;
  ReleaseFn release_;
  common::Time horizon_;
  OpenLoopConfig config_;
  std::vector<Stream> streams_;
  std::uint64_t arrivals_ = 0;
};

}  // namespace daris::workload
