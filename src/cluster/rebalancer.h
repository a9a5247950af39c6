// Self-healing fleet rebalancing: work stealing, demand-aware re-homing.
//
// The static home assignment (experiments/cluster_runner.cpp) and the
// router's per-job policies are open-loop: they act on the demand profile
// the run *started* with. When demand shifts — a flash crowd on one model
// kind, a drain piling three GPUs' tasks onto one survivor — the fleet
// keeps routing against a stale map until drops and deadline misses pile
// up. The Rebalancer closes the loop with two feedback mechanisms, both
// running as ordinary simulator events so a rebalanced run stays a pure
// function of (config, seed, fault schedule):
//
//  - Work stealing (reactive, per-event). When the router's fleet-wide
//    backlog guard sheds a job at a GPU, the rebalancer schedules one steal
//    scan there. The scan walks the victim's queued, not-yet-started LP
//    jobs (Scheduler::donatable_lp_jobs, ascending job id) and offers each
//    to the best-scoring peer that already holds the model hot and can
//    still meet the job's *original* deadline (now + the thief's MRET for
//    the task). A claim is release-then-revoke: the thief admits the job
//    backdated to its original release (Eq. 12 on the thief's contexts —
//    a failed admission has no side effects and the job stays put), then
//    the victim unwinds it. No weights move: thieves are warm by
//    construction, which is what makes stealing cheap enough to run per
//    backlog trip.
//
//  - Demand-aware re-homing (proactive, periodic). An event every
//    kRehomePeriod samples cumulative per-task release counts into a
//    private metrics::TimeSeries ring and converts the sliding
//    kDemandWindow into per-task load (release rate x SM-us per job — the
//    same unit the static packer balances). When some device carries more than
//    `hysteresis` times its fair share, the round replays the static
//    hybrid packer (pack_homes below) against the *windowed* demand and
//    moves at most `max_moves_per_round` homes toward the packed
//    assignment, heaviest tasks first, skipping tasks moved within
//    `min_dwell_rounds`. Hysteresis + dwell + the move cap keep the
//    controller from thrashing on noise; each executed move is
//    Fleet::rehome_task with EventCause::kDemandShift.
//
// Transfer coalescing, the third leg of the self-healing story, lives in
// the Router (RouterConfig::coalesce): run_cluster turns it on together
// with the rebalancer.
//
// Everything here is opt-in: a default RebalanceConfig{} (enabled=false)
// installs no observers and schedules no events, leaving runs byte-
// identical to a build without this file.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/fleet.h"
#include "cluster/router.h"
#include "common/time.h"
#include "metrics/collector.h"
#include "metrics/timeseries.h"
#include "sim/simulator.h"

namespace daris::cluster {

/// Re-homing cadence, also the demand sample period (simulated 0.25 s).
inline constexpr common::Duration kRehomePeriod = common::from_sec(0.25);
/// Sliding demand window the re-homer averages over (simulated 1 s).
inline constexpr common::Duration kDemandWindow = common::from_sec(1.0);

struct RebalanceConfig {
  /// Master switch. Off: the rebalancer is inert (no observers, no events).
  bool enabled = false;

  /// Backlog-triggered work stealing of queued LP jobs.
  bool steal = true;
  /// Cap on jobs claimed per steal scan (one scan per backlog trip).
  int max_steals_per_scan = 4;

  /// Periodic demand-aware re-homing, every kRehomePeriod over the last
  /// kDemandWindow of demand.
  bool rehome = true;
  /// Max homes moved per round; keeps each round a small correction.
  int max_moves_per_round = 2;
  /// Act only when some device carries more than this multiple of its fair
  /// demand share (1.0 = perfectly fair). Suppresses noise-driven moves.
  double hysteresis = 1.25;
  /// A task that moved must sit out this many rounds before moving again.
  int min_dwell_rounds = 4;

  /// Transfer coalescing (RouterConfig::coalesce) rides the same switch in
  /// run_cluster; kept here so one knob arms the whole self-healing layer.
  bool coalesce = true;
};

/// The demand-aware packer: the hybrid home-assignment algorithm (each model
/// kind gets the fewest hosts its load share needs, tasks least-fill
/// balanced across them, fair shares proportional to device scale),
/// factored out of the static assignment so the rebalancer replays the
/// exact same logic against windowed demand. `task_kind` is the task's
/// dnn::ModelKind cast to int (grouping + deterministic tie-break);
/// `device_scale` is the per-device compute scale with <= 0 marking devices
/// that must receive nothing (failed/draining). Returns one home per task.
std::vector<int> pack_homes(const std::vector<double>& task_load,
                            const std::vector<int>& task_kind,
                            const std::vector<double>& device_scale);

class Rebalancer {
 public:
  /// `collector` (required, the fleet's) receives the steal records and
  /// holds the counts steals() and rehomes() read.
  Rebalancer(sim::Simulator& sim, Fleet& fleet, Router& router,
             const RebalanceConfig& config, metrics::Collector* collector);

  Rebalancer(const Rebalancer&) = delete;
  Rebalancer& operator=(const Rebalancer&) = delete;

  /// Arms the rebalancer: installs the router observers and (when rehoming
  /// is on) schedules the periodic demand ticks up to `horizon`. A disabled
  /// config makes this a no-op. Call after every task is added and the
  /// fault schedule is posted, before the run starts.
  void start(common::Time horizon);

  /// Queued LP jobs claimed off a backlogged GPU by a peer.
  std::uint64_t steals() const { return collector_->fleet_counters().steals; }
  /// Steal scans executed (one per backlog trip, deduped while pending).
  std::uint64_t steal_scans() const { return steal_scans_; }
  /// Homes moved by demand-aware rounds.
  std::uint64_t rehomes() const {
    return collector_->fleet_counters().rehomes;
  }
  /// Rounds that executed at least one move.
  std::uint64_t rehome_rounds() const { return rehome_rounds_; }

 private:
  void note_release(int task_id);
  void on_pressure(int gpu);
  void steal_scan(int victim);
  void rehome_tick();
  void rehome_round(common::Time now);

  sim::Simulator& sim_;
  Fleet& fleet_;
  Router& router_;
  RebalanceConfig config_;
  metrics::Collector* collector_;
  common::Time horizon_ = 0;
  int round_ = 0;
  std::uint64_t steal_scans_ = 0;
  std::uint64_t rehome_rounds_ = 0;
  /// Cumulative releases per task (the demand probes read these).
  std::vector<std::uint64_t> release_count_;
  /// Round a task last moved in (dwell enforcement).
  std::vector<int> last_move_round_;
  /// Per-GPU flag: a steal scan is already scheduled there.
  std::vector<char> scan_pending_;
  /// Sliding demand window: one track per task over release_count_.
  metrics::TimeSeries demand_;
};

}  // namespace daris::cluster
