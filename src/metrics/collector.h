// Run-time metrics: per-priority throughput, deadline-miss rate, response
// times, and optional per-stage execution/MRET traces (Fig. 9).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/priority.h"
#include "common/stats.h"
#include "common/time.h"

namespace daris::metrics {

// Defined in metrics/eventlog.h; forward-declared here so the collector can
// own the log without an include cycle (eventlog.h needs RoutingCounters).
enum class EventKind : std::uint8_t;
enum class EventCause : std::uint8_t;
class EventLog;

using common::Duration;
using common::Priority;
using common::Time;

struct StageEvent {
  int task_id = 0;
  Priority priority = Priority::kHigh;  // the task's class
  std::size_t stage = 0;
  Time when = 0;
  double execution_us = 0.0;  // measured et_{i,j}
  double mret_us = 0.0;       // prediction in force when the stage started
  int context = -1;           // context the stage executed on
  int gpu = -1;               // device index in a cluster run (-1: single GPU)
  bool missed = false;        // finished past its Eq. 8 virtual deadline
};

/// Job counts of one priority class.
struct ClassCounts {
  std::uint64_t released = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;
  std::uint64_t missed = 0;

  ClassCounts& operator+=(const ClassCounts& o) {
    released += o.released;
    accepted += o.accepted;
    rejected += o.rejected;
    completed += o.completed;
    missed += o.missed;
    return *this;
  }
};

/// Summary over one priority class: its counts plus the response times.
struct ClassSummary : ClassCounts {
  common::Percentiles response_ms;

  /// Deadline-miss rate: misses over accepted jobs (paper Sec. VI),
  /// evaluated over jobs completing inside the measurement window.
  double dmr() const {
    return completed == 0
               ? 0.0
               : static_cast<double>(missed) / static_cast<double>(completed);
  }
  double rejection_rate() const {
    return released == 0
               ? 0.0
               : static_cast<double>(rejected) / static_cast<double>(released);
  }
};

/// Cluster-level routing outcomes for one GPU. Filled by
/// Collector::on_route and, through add_counts (metrics/eventlog.h),
/// Collector::record; zero in single-GPU runs.
struct RoutingCounters {
  std::uint64_t routed = 0;        // arrivals first offered to this GPU
  std::uint64_t home_admits = 0;   // admitted by the GPU they were routed to
  std::uint64_t migrated_in = 0;   // admitted here after a peer rejected them
  std::uint64_t migrated_out = 0;  // rejected here, admitted on a peer
  std::uint64_t dropped = 0;       // rejected here and by the offered peer
  std::uint64_t infeasible = 0;    // shed by the fleet admission controller
                                   // (charged to the task's home GPU)
  std::uint64_t transfers_in = 0;  // cross-GPU weight transfers landing here
  double transferred_mb = 0.0;     // MB shipped into this GPU by migrations
  std::uint64_t steals_in = 0;     // queued LP jobs claimed by this GPU
  std::uint64_t steals_out = 0;    // queued LP jobs claimed off this GPU
  std::uint64_t coalesced = 0;     // migrations here that attached to an
                                   // in-flight weight copy
  double coalesced_mb = 0.0;       // MB those attachments did NOT re-ship
};

/// Fleet-wide counters of a cluster run. The first group is implied by the
/// decisions Collector::record reports: each field by one record kind (and
/// cause) through add_counts (metrics/eventlog.h), the two MB totals adding
/// the records' values in report order.
struct FleetCounters {
  std::uint64_t cross_gpu_migrations = 0;      // kMigrate
  std::uint64_t drops = 0;                     // kReject, any cause
  std::uint64_t infeasible_rejects = 0;        // kReject / kInfeasible
  std::uint64_t transfers = 0;                 // kTransfer
  double transferred_mb = 0.0;                 //   + value
  std::uint64_t coalesced_transfers = 0;       // kCoalesce
  double coalesced_mb_saved = 0.0;             //   + value
  std::uint64_t steals = 0;                    // kSteal
  std::uint64_t rehomes = 0;                   // kRehome / kDemandShift
  std::uint64_t jobs_lost = 0;                 // kFault / kFailStop, + value
  std::uint64_t retries = 0;                   // kRetry / kBackoff
  std::uint64_t retry_abandoned_budget = 0;    // kRetry / kBudgetExhausted
  std::uint64_t retry_abandoned_expired = 0;   // kRetry / kExpired
  std::uint64_t retry_abandoned_attempts = 0;  // kRetry / kMaxAttempts
  std::uint64_t hedges = 0;                    // kHedge / kHedgeLaunch
  std::uint64_t hedge_wins = 0;                // kHedge / kHedgeWin
  std::uint64_t hedge_cancels = 0;             // kHedge / kHedgeCancel

  // Measured: no record implies these; the component named counts each at
  // its one site through Collector::count.
  std::uint64_t steal_scans = 0;       // Rebalancer: backlog-triggered scans
  std::uint64_t rehome_rounds = 0;     // Rebalancer: rounds moving a home
  std::uint64_t transfer_cancels = 0;  // Router: copies cancelled at a fault
  std::uint64_t first_attempts = 0;    // ResiliencePolicy: releases entering
  std::uint64_t retry_admits = 0;      // ResiliencePolicy: retries admitted
  std::uint64_t hedge_waste = 0;       // ResiliencePolicy: both copies ran
  /// ResiliencePolicy: recorded misses the client never saw (the hedge made
  /// the deadline, the unrevocable primary finished past it). A lower
  /// bound: revoked-before-start primaries are not counted.
  std::uint64_t hedge_rescued_misses = 0;
};

class Collector {
 public:
  Collector();
  ~Collector();
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  /// When true, stage events are stored (memory-heavy; off by default).
  void enable_stage_trace(bool on) { trace_stages_ = on; }

  /// Measurement window: jobs finishing before `start` are warm-up and only
  /// counted toward acceptance statistics.
  void set_measure_start(Time start) { measure_start_ = start; }

  /// One job of class `p` released, or rejected (shed).
  void on_release(Priority p);
  void on_reject(Priority p);
  /// One admitted job of class `p` left its device (`gpu`, -1 on a single
  /// GPU): released at `release`, done (or dropped) at `finish`, `missed`
  /// when late.
  void on_finish(int gpu, Priority p, Time release, Time finish, bool missed);
  void on_stage(const StageEvent& ev);

  // --- sharded-run lanes (sim::ShardedSimulator) -------------------------
  //
  // In a multi-lane fleet run, on_finish/on_stage fire from device-shard events
  // on pool worker threads; every other hook (release/reject from the
  // router, on_route, record) is control-phase-only and keeps
  // writing the shared state directly. Lanes give each device a private
  // append target so the worker-side hooks never share cache lines, let
  // alone race: a hook with gpu >= 0 writes lane[gpu], and exactly one
  // thread executes a given device's events in any window (control-phase
  // writers run while the pool is parked at the barrier).
  //
  // finalize_lanes() folds the lanes back into the flat summaries and stage
  // trace once the run ends: counters sum, response samples concatenate in
  // lane order (Percentiles queries are sort-insensitive), and the stage
  // trace merges into (when, gpu) order — per-lane streams are already
  // time-sorted, so a stable sort restores one canonical timeline whose
  // fold (metrics/trace_report.h tracks per-task consecutive stages, and a
  // task occupies one device at a time) matches the single-heap trace.

  /// Switches on per-device lanes for `devices` devices. Call before the
  /// run; events with gpu in [0, devices) then land in lanes.
  void enable_lanes(int devices);
  /// Widens the lane array mid-run (live GPU add); control phase only.
  void grow_lanes(int devices);
  /// Folds lanes into the flat summaries and trace; idempotent. Until this
  /// runs, summary()/stage_trace()/total_completed() exclude lane contents.
  void finalize_lanes();

  /// Counter-only class summary including un-finalized lane contents. Safe
  /// and cheap to call mid-run from the control phase (telemetry probes);
  /// identical to summary()'s counters when lanes are off or finalized.
  using ClassCounts = metrics::ClassCounts;
  ClassCounts class_counts(Priority p) const;

  /// Sizes the per-GPU routing counters (cluster runs only).
  void set_gpu_count(int n);
  /// Widens the per-GPU routing counters without wiping accumulated state
  /// (mid-run autoscaling: cluster::Fleet::add_gpu_now). Never shrinks.
  void grow_gpu_count(int n);
  /// Counts one arrival first offered to `gpu` (RoutingCounters::routed).
  /// Every other routing count comes from record().
  void on_route(int gpu);

  // --- fleet decisions and the structured event log (metrics/eventlog.h) --
  //
  // The router, the rebalancer, the fleet and the resilience layer report
  // every decision once, through record(): it adds the per-GPU and
  // fleet-wide counts the decision implies (add_counts, the one
  // record-to-count map), narrates it to the log (common/log.h: per-job
  // routing and retry records at debug, every other kind at info) and, when
  // the event log is on, appends the typed, timestamped record. The log is
  // off by default; until enable_event_log reserves its storage, a decision
  // costs only its counter update. EventLog::fold_counts replays the same
  // map over the records and reproduces both kinds of counters (tested),
  // making the log the queryable source of truth. record() runs in the
  // control phase only, so the counters need no lanes.

  /// Creates (or resets) the log with room for `capacity` records.
  void enable_event_log(std::size_t capacity);
  EventLog* event_log() { return event_log_.get(); }
  const EventLog* event_log() const { return event_log_.get(); }

  /// Reports one fleet decision. `gpu` is the primary device, `peer` the
  /// secondary (migration, rehome, steal or hedge target), `task` the
  /// logical task id, `value` the kind's payload (metrics/eventlog.h).
  void record(Time when, EventKind kind, EventCause cause, int gpu,
              int peer = -1, int task = -1, double value = 0.0);
  /// Counts one occurrence of a measured fleet counter (FleetCounters'
  /// second group), e.g. count(&FleetCounters::steal_scans). Control phase
  /// only, like record().
  void count(std::uint64_t FleetCounters::*field) { ++(fleet_.*field); }

  int gpu_count() const { return static_cast<int>(routing_.size()); }
  const RoutingCounters& routing(int gpu) const {
    return routing_[static_cast<std::size_t>(gpu)];
  }
  /// Fleet-wide decision totals (every record, whatever its device).
  const FleetCounters& fleet_counters() const { return fleet_; }

  const ClassSummary& summary(Priority p) const {
    return classes_[static_cast<std::size_t>(p)];
  }
  const std::vector<StageEvent>& stage_trace() const { return stage_trace_; }

  std::uint64_t total_completed() const;

  /// Aggregate throughput in jobs per second over [measure_start, horizon].
  double throughput_jps(Time horizon) const;

 private:
  struct Lane {
    ClassSummary cls[2];
    std::vector<StageEvent> stages;
  };

  ClassSummary classes_[2];
  std::vector<RoutingCounters> routing_;
  FleetCounters fleet_;
  std::vector<StageEvent> stage_trace_;
  std::vector<Lane> lanes_;
  bool trace_stages_ = false;
  Time measure_start_ = 0;
  std::unique_ptr<EventLog> event_log_;
};

}  // namespace daris::metrics
