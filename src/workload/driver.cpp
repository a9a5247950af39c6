#include "workload/driver.h"

#include <algorithm>

namespace daris::workload {

PeriodicDriver::PeriodicDriver(sim::Simulator& sim, rt::Scheduler& scheduler,
                               common::Time horizon)
    : sim_(sim),
      release_([&scheduler](int id) { scheduler.release_job(id); }),
      horizon_(horizon) {
  entries_.reserve(static_cast<std::size_t>(scheduler.task_count()));
  for (int i = 0; i < scheduler.task_count(); ++i) {
    const auto& spec = scheduler.spec(i);
    entries_.push_back({spec.period, spec.phase, {}});
  }
}

PeriodicDriver::PeriodicDriver(sim::Simulator& sim,
                               const TaskSetSpec& taskset, ReleaseFn release,
                               common::Time horizon)
    : sim_(sim), release_(std::move(release)), horizon_(horizon) {
  entries_.reserve(taskset.tasks.size());
  for (const auto& t : taskset.tasks) {
    entries_.push_back({t.period, t.phase, {}});
  }
}

void PeriodicDriver::start() {
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    arm(static_cast<int>(i), entries_[i].phase);
  }
}

void PeriodicDriver::arm(int task_id, common::Time when) {
  if (when > horizon_) return;
  entries_[static_cast<std::size_t>(task_id)].release_event =
      sim_.schedule_at(when, [this, task_id] { fire(task_id); });
}

void PeriodicDriver::fire(int task_id) {
  release_(task_id);
  // Re-arm the release event in place (now() is the release instant, so the
  // next period lands at phase + (k+1)*T); past the horizon it simply lapses.
  Entry& entry = entries_[static_cast<std::size_t>(task_id)];
  const common::Time next = sim_.now() + entry.period;
  if (next > horizon_) return;
  sim_.reschedule(entry.release_event, next);
}

OpenLoopDriver::OpenLoopDriver(sim::Simulator& sim,
                               const TaskSetSpec& taskset, ReleaseFn release,
                               common::Time horizon, OpenLoopConfig config)
    : sim_(sim),
      release_(std::move(release)),
      horizon_(horizon),
      config_(config) {
  common::Rng root(config_.seed);
  streams_.reserve(taskset.tasks.size());
  // Long-run mean rate: r_calm*(1-f_b) + kBurstFactor*r_calm*f_b, where f_b
  // is the fraction of time spent bursting. Solving for r_calm keeps the
  // mean at the task's nominal rate regardless of burst shape.
  const double f_burst = kMeanBurstS / (kMeanCalmS + kMeanBurstS);
  const double calm_share = (1.0 - f_burst) + kBurstFactor * f_burst;
  for (const auto& t : taskset.tasks) {
    Stream s;
    const double nominal_jps =
        config_.rate_scale * 1.0e9 / static_cast<double>(std::max<common::Duration>(t.period, 1));
    if (config_.process == ArrivalProcess::kPoisson) {
      s.calm_rate_jps = nominal_jps;
      s.burst_rate_jps = nominal_jps;
    } else {
      s.calm_rate_jps = nominal_jps / calm_share;
      s.burst_rate_jps = s.calm_rate_jps * kBurstFactor;
    }
    s.rng = root.fork();
    if (config_.process == ArrivalProcess::kBursty) {
      // Every task starts calm, with its first dwell drawn up front.
      s.state_until = common::from_sec(
          std::max(s.rng.exponential(kMeanCalmS), 1e-6));
    }
    streams_.push_back(s);
  }
}

void OpenLoopDriver::start() {
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    arm(static_cast<int>(i));
  }
}

double OpenLoopDriver::current_rate(Stream& s, common::Time now) {
  if (config_.process == ArrivalProcess::kPoisson) return s.calm_rate_jps;
  // Advance the two-state dwell chain past `now`. State changes are sampled
  // lazily at arming points, which keeps the chain deterministic and cheap;
  // dwell times are long relative to inter-arrival gaps, so the
  // approximation barely moves the realised burst fraction.
  while (now >= s.state_until) {
    s.burst = !s.burst;
    const double dwell_s =
        s.rng.exponential(s.burst ? kMeanBurstS : kMeanCalmS);
    s.state_until += common::from_sec(std::max(dwell_s, 1e-6));
  }
  return s.burst ? s.burst_rate_jps : s.calm_rate_jps;
}

common::Time OpenLoopDriver::next_arrival(Stream& s) {
  const double rate = current_rate(s, sim_.now());
  if (rate <= 0.0) return -1;
  const double gap_s = s.rng.exponential(1.0 / rate);
  const common::Time when = sim_.now() + common::from_sec(gap_s);
  return when > horizon_ ? -1 : when;
}

void OpenLoopDriver::arm(int task_id) {
  Stream& s = streams_[static_cast<std::size_t>(task_id)];
  const common::Time when = next_arrival(s);
  if (when < 0) return;
  s.arrival_event = sim_.schedule_at(when, [this, task_id] { fire(task_id); });
}

void OpenLoopDriver::fire(int task_id) {
  ++arrivals_;
  release_(task_id);
  Stream& s = streams_[static_cast<std::size_t>(task_id)];
  const common::Time when = next_arrival(s);
  if (when < 0) return;
  sim_.reschedule(s.arrival_event, when);  // re-arm the arrival in place
}

}  // namespace daris::workload
