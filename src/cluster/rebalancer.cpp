#include "cluster/rebalancer.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>

#include "daris/scheduler.h"
#include "metrics/eventlog.h"

namespace daris::cluster {

std::vector<int> pack_homes(const std::vector<double>& task_load,
                            const std::vector<int>& task_kind,
                            const std::vector<double>& device_scale) {
  const std::size_t tasks = task_load.size();
  std::vector<int> homes(tasks, 0);
  std::vector<int> avail;
  for (std::size_t g = 0; g < device_scale.size(); ++g) {
    if (device_scale[g] > 0.0) avail.push_back(static_cast<int>(g));
  }
  const int n = static_cast<int>(avail.size());
  if (n == 0) return homes;
  for (auto& h : homes) h = avail.front();
  if (n == 1) return homes;

  double total_load = 0.0;
  std::map<int, double> kind_load;
  for (std::size_t i = 0; i < tasks; ++i) {
    total_load += task_load[i];
    kind_load[task_kind[i]] += task_load[i];
  }
  if (total_load <= 0.0) return homes;

  double total_scale = 0.0;
  for (const int g : avail) total_scale += device_scale[static_cast<std::size_t>(g)];
  std::vector<double> fair(device_scale.size(), 1e-9);
  for (const int g : avail) {
    fair[static_cast<std::size_t>(g)] = std::max(
        1e-9, total_load * device_scale[static_cast<std::size_t>(g)] /
                  total_scale);
  }
  std::vector<double> assigned(device_scale.size(), 0.0);
  auto fill = [&](int g) {
    return assigned[static_cast<std::size_t>(g)] /
           fair[static_cast<std::size_t>(g)];
  };
  // Heaviest kinds claim their hosts first (deterministic tie-break on the
  // kind value the map already orders by).
  std::vector<int> kinds;
  kinds.reserve(kind_load.size());
  for (const auto& [kind, load] : kind_load) kinds.push_back(kind);
  std::stable_sort(kinds.begin(), kinds.end(), [&](int a, int b) {
    return kind_load.at(a) > kind_load.at(b);
  });
  for (const int kind : kinds) {
    const int host_count = std::clamp(
        static_cast<int>(std::ceil(kind_load.at(kind) * n / total_load)), 1,
        n);
    // The kind's hosts: the `host_count` least-filled available devices.
    std::vector<int> order = avail;
    std::stable_sort(order.begin(), order.end(),
                     [&](int a, int b) { return fill(a) < fill(b); });
    order.resize(static_cast<std::size_t>(host_count));
    for (std::size_t i = 0; i < tasks; ++i) {
      if (task_kind[i] != kind) continue;
      int best = order.front();
      for (const int g : order) {
        if (fill(g) < fill(best)) best = g;
      }
      homes[i] = best;
      assigned[static_cast<std::size_t>(best)] += task_load[i];
    }
  }
  return homes;
}

Rebalancer::Rebalancer(sim::Simulator& sim, Fleet& fleet, Router& router,
                       const RebalanceConfig& config,
                       metrics::Collector* collector)
    : sim_(sim),
      fleet_(fleet),
      router_(router),
      config_(config),
      collector_(collector) {
  assert(collector_ != nullptr);
}

void Rebalancer::start(common::Time horizon) {
  if (!config_.enabled) return;
  horizon_ = horizon;
  const int tasks = fleet_.task_count();
  if (config_.steal) {
    scan_pending_.assign(static_cast<std::size_t>(fleet_.size()), 0);
    router_.set_pressure_observer([this](int g) { on_pressure(g); });
  }
  if (config_.rehome) {
    release_count_.assign(static_cast<std::size_t>(tasks), 0);
    last_move_round_.assign(static_cast<std::size_t>(tasks),
                            -config_.min_dwell_rounds);
    router_.set_release_observer([this](int t) { note_release(t); });
    for (int t = 0; t < tasks; ++t) {
      demand_.add_track("task/releases", t, [this, t] {
        return static_cast<double>(
            release_count_[static_cast<std::size_t>(t)]);
      });
    }
    demand_.sample_now(sim_.now());  // window baseline at arm time
    if (sim_.now() + kRehomePeriod <= horizon_) {
      sim_.schedule_after(kRehomePeriod, [this] { rehome_tick(); });
    }
  }
}

void Rebalancer::note_release(int task_id) {
  const auto i = static_cast<std::size_t>(task_id);
  if (i < release_count_.size()) ++release_count_[i];
}

void Rebalancer::on_pressure(int gpu) {
  // One scan per GPU may be pending at a time: under saturation the guard
  // trips on every shed release, and a scan per trip would only re-walk an
  // unchanged queue.
  const auto i = static_cast<std::size_t>(gpu);
  if (i >= scan_pending_.size()) scan_pending_.resize(i + 1, 0);
  if (scan_pending_[i]) return;
  scan_pending_[i] = 1;
  // The scan runs as its own event right after the triggering release, not
  // inside it: the router is mid-release() when the observer fires, and
  // simulator-event granularity is what keeps the steal schedule replayable.
  sim_.schedule_after(0, [this, gpu] {
    scan_pending_[static_cast<std::size_t>(gpu)] = 0;
    steal_scan(gpu);
  });
}

void Rebalancer::steal_scan(int victim) {
  collector_->count(&metrics::FleetCounters::steal_scans);
  const auto jobs = fleet_.scheduler(victim).donatable_lp_jobs();
  if (jobs.empty()) return;
  const common::Time now = sim_.now();
  int taken = 0;
  for (const auto& j : jobs) {
    if (taken >= config_.max_steals_per_scan) break;
    // A job already past its deadline has no thief: a standing-start copy
    // finishes at now + from_us(mret) >= now on any peer, as MRET totals
    // are sums of measured (non-negative) times. Skipping it spares a test
    // of every placeable peer and leaves every other job's thief unchanged.
    // In a 64-GPU storm 91% of the jobs no peer can take are such jobs.
    if (j.absolute_deadline < now) continue;
    // Thief: best-scoring placeable peer that can still make the job's
    // original deadline from a standing start and holds the model hot
    // (steals never ship weights). The deadline test goes first: it is one
    // load, and it is the one that fails — model_hot held in 99.96% of a
    // 64-GPU storm's tests.
    const int thief = fleet_.best_placeable(victim, [&](int g) {
      const double mret_us = fleet_.scheduler(g).mret_total_us(j.task_id);
      return now + common::from_us(mret_us) <= j.absolute_deadline &&
             fleet_.model_hot(g, j.task_id);
    });
    if (thief < 0) continue;
    // Release-then-revoke: a failed admission on the thief has no side
    // effects (report=false), so the job simply stays on the victim. Both
    // halves run inside this one event, so the claim is atomic.
    if (!fleet_.scheduler(victim).job_stealable(j.job_id)) continue;
    if (!fleet_.scheduler(thief).release_job(j.task_id, /*report=*/false,
                                             j.release)) {
      continue;
    }
    fleet_.scheduler(victim).revoke_job(j.job_id);
    ++taken;
    collector_->record(now, metrics::EventKind::kSteal,
                       metrics::EventCause::kBacklogSteal, victim, thief,
                       j.task_id);
  }
}

void Rebalancer::rehome_tick() {
  const common::Time now = sim_.now();
  demand_.sample_now(now);
  ++round_;
  rehome_round(now);
  if (now + kRehomePeriod <= horizon_) {
    sim_.schedule_after(kRehomePeriod, [this] { rehome_tick(); });
  }
}

void Rebalancer::rehome_round(common::Time now) {
  const int n = fleet_.size();
  const int tasks = fleet_.task_count();
  const std::size_t samples = demand_.size();
  if (tasks == 0 || samples < 2) return;

  // Windowed demand: the oldest retained sample inside [now - window, now]
  // anchors the rate. Early rounds fall back to the full history so the
  // controller can act before a whole window has elapsed.
  std::size_t lo = 0;
  const common::Time window_start = now - kDemandWindow;
  while (lo + 1 < samples && demand_.stamp(lo) < window_start) ++lo;
  const double span_s = common::to_sec(now - demand_.stamp(lo));
  if (span_s <= 0.0) return;

  std::vector<double> load(static_cast<std::size_t>(tasks), 0.0);
  std::vector<int> kind(static_cast<std::size_t>(tasks), 0);
  double total = 0.0;
  for (int t = 0; t < tasks; ++t) {
    const double released =
        demand_.value(t, samples - 1) - demand_.value(t, lo);
    const double rate = released / span_s;  // jobs per second in the window
    load[static_cast<std::size_t>(t)] =
        rate * fleet_.model_of(t)->total_work();  // SM-us of work per second
    kind[static_cast<std::size_t>(t)] =
        static_cast<int>(fleet_.spec(t).model);
    total += load[static_cast<std::size_t>(t)];
  }
  if (total <= 0.0) return;

  std::vector<double> scale(static_cast<std::size_t>(n), 0.0);
  double total_scale = 0.0;
  int avail = 0;
  for (int g = 0; g < n; ++g) {
    if (!fleet_.placeable(g)) continue;
    scale[static_cast<std::size_t>(g)] = fleet_.compute_scale(g);
    total_scale += scale[static_cast<std::size_t>(g)];
    ++avail;
  }
  if (avail < 2 || total_scale <= 0.0) return;

  // Hysteresis gate: fill = windowed load homed on a device over its fair
  // share (1.0 = perfectly fair). Only act when some device is carrying
  // more than `hysteresis` times its share — small imbalances are noise the
  // router's spillover already absorbs.
  std::vector<double> homed(static_cast<std::size_t>(n), 0.0);
  for (int t = 0; t < tasks; ++t) {
    const int h = fleet_.home_gpu(t);
    if (h >= 0 && h < n) {
      homed[static_cast<std::size_t>(h)] += load[static_cast<std::size_t>(t)];
    }
  }
  double max_fill = 0.0;
  for (int g = 0; g < n; ++g) {
    if (scale[static_cast<std::size_t>(g)] <= 0.0) continue;
    const double fair =
        std::max(1e-9, total * scale[static_cast<std::size_t>(g)] /
                           total_scale);
    max_fill = std::max(max_fill, homed[static_cast<std::size_t>(g)] / fair);
  }
  if (max_fill <= config_.hysteresis) return;

  const std::vector<int> target = pack_homes(load, kind, scale);

  // Candidate moves toward the packed assignment, heaviest first (stable
  // sort over ascending task id breaks ties deterministically), capped per
  // round, skipping tasks still in their dwell window.
  std::vector<int> cand;
  for (int t = 0; t < tasks; ++t) {
    if (target[static_cast<std::size_t>(t)] == fleet_.home_gpu(t)) continue;
    if (round_ - last_move_round_[static_cast<std::size_t>(t)] <
        config_.min_dwell_rounds) {
      continue;
    }
    cand.push_back(t);
  }
  std::stable_sort(cand.begin(), cand.end(), [&](int a, int b) {
    return load[static_cast<std::size_t>(a)] >
           load[static_cast<std::size_t>(b)];
  });
  int moved = 0;
  for (const int t : cand) {
    if (moved >= config_.max_moves_per_round) break;
    fleet_.rehome_task(t, target[static_cast<std::size_t>(t)],
                       metrics::EventCause::kDemandShift);
    last_move_round_[static_cast<std::size_t>(t)] = round_;
    ++moved;
  }
  if (moved > 0) collector_->count(&metrics::FleetCounters::rehome_rounds);
}

}  // namespace daris::cluster
