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

struct JobEvent {
  int task_id = 0;
  Priority priority = Priority::kHigh;
  Time release = 0;
  Time finish = 0;
  Duration relative_deadline = 0;
  bool accepted = true;
  bool missed = false;
  int context = -1;
  int gpu = -1;  // device index in a cluster run (-1: single GPU)
};

struct StageEvent {
  int task_id = 0;
  std::size_t stage = 0;
  Time when = 0;
  double execution_us = 0.0;  // measured et_{i,j}
  double mret_us = 0.0;       // prediction in force when the stage started
  int context = -1;           // context the stage executed on
  int gpu = -1;               // device index in a cluster run (-1: single GPU)
};

/// Summary over one priority class.
struct ClassSummary {
  std::uint64_t released = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;
  std::uint64_t missed = 0;

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

/// Cluster-level routing outcomes for one GPU (also summed fleet-wide).
/// Filled by `cluster::Router`; zero in single-GPU runs.
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

  RoutingCounters& operator+=(const RoutingCounters& o) {
    routed += o.routed;
    home_admits += o.home_admits;
    migrated_in += o.migrated_in;
    migrated_out += o.migrated_out;
    dropped += o.dropped;
    infeasible += o.infeasible;
    transfers_in += o.transfers_in;
    transferred_mb += o.transferred_mb;
    steals_in += o.steals_in;
    steals_out += o.steals_out;
    coalesced += o.coalesced;
    coalesced_mb += o.coalesced_mb;
    return *this;
  }
};

class Collector {
 public:
  Collector();
  ~Collector();
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  /// When true, stage events are stored (memory-heavy; off by default).
  void enable_stage_trace(bool on) { trace_stages_ = on; }

  /// When true, every finished job event is stored (for timeline export).
  void enable_job_trace(bool on) { trace_jobs_ = on; }

  /// Measurement window: jobs finishing before `start` are warm-up and only
  /// counted toward acceptance statistics.
  void set_measure_start(Time start) { measure_start_ = start; }

  void on_release(const JobEvent& ev);
  void on_reject(const JobEvent& ev);
  void on_finish(const JobEvent& ev);
  void on_stage(const StageEvent& ev);

  // --- sharded-run lanes (sim::ShardedSimulator) -------------------------
  //
  // In a multi-lane fleet run, on_finish/on_stage fire from device-shard events
  // on pool worker threads; every other hook (release/reject from the
  // router, routing counters, the event log) is control-phase-only and keeps
  // writing the shared state directly. Lanes give each device a private
  // append target so the worker-side hooks never share cache lines, let
  // alone race: a hook with ev.gpu >= 0 writes lane[ev.gpu], and exactly one
  // thread executes a given device's events in any window (control-phase
  // writers run while the pool is parked at the barrier).
  //
  // finalize_lanes() folds the lanes back into the flat summaries/traces
  // once the run ends: counters sum, response samples concatenate in lane
  // order (Percentiles queries are sort-insensitive), and stage/job traces
  // merge into (when, gpu) order — per-lane streams are already
  // time-sorted, so a stable sort restores one canonical timeline whose
  // fold (metrics/trace_report.h tracks per-task consecutive stages, and a
  // task occupies one device at a time) matches the single-heap trace.

  /// Switches on per-device lanes for `devices` devices. Call before the
  /// run; events with ev.gpu in [0, devices) then land in lanes.
  void enable_lanes(int devices);
  /// Widens the lane array mid-run (live GPU add); control phase only.
  void grow_lanes(int devices);
  /// Folds lanes into the flat summaries and traces; idempotent. Until this
  /// runs, summary()/stage_trace()/total_completed() exclude lane contents.
  void finalize_lanes();

  /// Counter-only class summary including un-finalized lane contents. Safe
  /// and cheap to call mid-run from the control phase (telemetry probes);
  /// identical to summary()'s counters when lanes are off or finalized.
  struct ClassCounts {
    std::uint64_t released = 0;
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t completed = 0;
    std::uint64_t missed = 0;
  };
  ClassCounts class_counts(Priority p) const;

  /// Sizes the per-GPU routing counters (cluster runs only).
  void set_gpu_count(int n);
  /// Widens the per-GPU routing counters without wiping accumulated state
  /// (mid-run autoscaling: cluster::Fleet::add_gpu_now). Never shrinks.
  void grow_gpu_count(int n);
  void on_route(int gpu);
  void on_home_admit(int gpu);
  void on_cross_migration(int from_gpu, int to_gpu);
  void on_drop(int gpu);
  /// Fleet admission controller shed a job no device could host.
  void on_infeasible(int gpu);
  /// A migration shipped `mb` of model weights onto `to_gpu`.
  void on_transfer(int to_gpu, double mb);
  /// A queued LP job was claimed off `victim` by `thief` (work stealing).
  void on_steal(int victim, int thief);
  /// A migration to `to_gpu` attached to an in-flight weight copy instead of
  /// re-shipping `mb`.
  void on_coalesce(int to_gpu, double mb);

  // --- structured event log (metrics/eventlog.h) -------------------------
  //
  // Typed, timestamped records of the fleet's routing and lifecycle
  // decisions, appended by the router and the fleet next to the counter
  // hooks above. Disabled by default; every log_* call is a no-op until
  // enable_event_log reserves the storage, so the always-on counters stay
  // the only steady-state bookkeeping and telemetry-off runs do no extra
  // work. EventLog::fold_routing reproduces the RoutingCounters from the
  // records alone (tested), making the log the queryable source of truth.

  /// Creates (or resets) the log with room for `capacity` records.
  void enable_event_log(std::size_t capacity);
  EventLog* event_log() { return event_log_.get(); }
  const EventLog* event_log() const { return event_log_.get(); }

  void log_admit(Time when, int gpu, int task);
  void log_reject(Time when, int gpu, int task, EventCause cause);
  void log_migrate(Time when, int from_gpu, int to_gpu, int task);
  void log_transfer(Time when, int to_gpu, int task, double mb);
  void log_fault(Time when, int gpu, EventCause cause, double value);
  void log_rehome(Time when, int from_gpu, int to_gpu, int task);
  /// Rehome with an explicit cause (kDemandShift for the rebalancer's
  /// periodic moves; the overload above logs fault-driven rehomes as kNone).
  void log_rehome(Time when, int from_gpu, int to_gpu, int task,
                  EventCause cause);
  void log_drain(Time when, int gpu);
  void log_steal(Time when, int victim, int thief, int task);
  void log_coalesce(Time when, int to_gpu, int task, double mb);
  /// Resilience-layer records: a retry released or abandoned (value =
  /// attempt number), a hedge launched/won/cancelled (`gpu` = primary,
  /// `peer` = hedge device), a breaker transition (value = the window's
  /// miss+shed rate).
  void log_retry(Time when, int gpu, int task, EventCause cause, int attempt);
  void log_hedge(Time when, int gpu, int peer, int task, EventCause cause);
  void log_breaker(Time when, int gpu, EventCause cause, double rate);

  int gpu_count() const { return static_cast<int>(routing_.size()); }
  const RoutingCounters& routing(int gpu) const {
    return routing_[static_cast<std::size_t>(gpu)];
  }
  /// Sum of the per-GPU routing counters.
  RoutingCounters fleet_routing() const;

  const ClassSummary& summary(Priority p) const {
    return classes_[static_cast<std::size_t>(p)];
  }
  const std::vector<StageEvent>& stage_trace() const { return stage_trace_; }
  const std::vector<JobEvent>& job_trace() const { return job_trace_; }

  std::uint64_t total_completed() const;

  /// Aggregate throughput in jobs per second over [measure_start, horizon].
  double throughput_jps(Time horizon) const;

 private:
  struct Lane {
    ClassSummary cls[2];
    std::vector<StageEvent> stages;
    std::vector<JobEvent> jobs;
  };

  /// Shared tail of on_finish: counts into `cls`, traces into `jobs`.
  void record_finish(ClassSummary* cls, std::vector<JobEvent>& jobs,
                     const JobEvent& ev);

  ClassSummary classes_[2];
  std::vector<RoutingCounters> routing_;
  std::vector<StageEvent> stage_trace_;
  std::vector<JobEvent> job_trace_;
  std::vector<Lane> lanes_;
  bool trace_stages_ = false;
  bool trace_jobs_ = false;
  Time measure_start_ = 0;
  std::unique_ptr<EventLog> event_log_;
};

}  // namespace daris::metrics
