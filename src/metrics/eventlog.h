// Structured fleet event log: one typed, fixed-size record per routing /
// fault / lifecycle decision — admission, rejection, migration, weight
// transfer, fault, rehome, drain — stamped with the device id, the simulated
// time, and a cause code.
//
// Decisions reach the log through metrics::Collector::record, which also
// adds the counts each one implies (`add_counts`). The log is the queryable
// source of truth for the fleet's decisions: `fold_counts()` replays
// `add_counts` over the records alone and reconstructs the per-GPU
// `RoutingCounters` and every record-implied `FleetCounters` field (unit
// tests pin the fold against the live counters; the measured fields have no
// record and fold to zero), and the Perfetto export renders the
// records as instant events on the per-GPU lanes. Records are PODs appended
// into a pre-reserved vector, so steady-state logging performs no
// allocation (pinned in tests/test_sim_alloc.cpp) and — because nothing
// ever reads the log during the run — enabling it cannot perturb a single
// scheduling decision.
//
// Export formats: a JSON array (`append_json_array`, the telemetry
// artifact's "events") and the unified Perfetto trace via
// metrics::to_chrome_trace_json.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/time.h"
#include "metrics/collector.h"

namespace daris::metrics {

/// Record type. The set mirrors the fleet's observable decisions; kFault
/// covers fail-stop, straggler throttles, and scale-up (cause disambiguates).
enum class EventKind : std::uint8_t {
  kAdmit,     // job admitted (home GPU or single-GPU scheduler)
  kReject,    // job shed (cause: infeasible / backlog / peer rejection)
  kMigrate,   // job admitted on a peer after its routed GPU rejected it
  kTransfer,  // cold-model weight copy shipped to `gpu` (value = MB)
  kFault,     // device lifecycle change (fail / slow / scale-up)
  kRehome,    // task's home reservation moved from `gpu` to `peer`
  kDrain,     // device entered graceful scale-down
  kSteal,     // queued LP job claimed by `peer` off `gpu`'s ready queue
  kCoalesce,  // migration attached to an in-flight weight copy to `gpu`
              // (value = MB the coalesced transfer did NOT re-ship)
  kRetry,     // client resilience layer re-released (or abandoned) a shed
              // job (cause says which; value = attempt number)
  kHedge,     // hedged LP request lifecycle: launched on `peer` against the
              // primary copy on `gpu`, won, or was cancelled
};

/// Why the event happened; kinds use the subset that applies to them.
enum class EventCause : std::uint8_t {
  kNone,
  kHomeAdmit,   // kAdmit: admitted by the GPU the job was routed to
  kInfeasible,  // kReject: no device could ever host the job
  kBacklog,     // kReject: fleet-wide backlog guard fired
  kPeerReject,  // kReject: routed GPU and the offered peer both rejected
  kSpill,       // kMigrate: admitted by a peer after home rejection
  kColdModel,   // kTransfer: weights were cold on the migration target
  kFailStop,    // kFault: device died; value = in-flight jobs lost
  kStraggler,   // kFault: compute scale multiplied; value = factor
  kScaleUp,     // kFault: device joined the fleet mid-run
  kScaleDown,   // kDrain: graceful scale-down began
  kBacklogSteal,  // kSteal: victim's backlog guard tripped the scan
  kCoalesced,     // kCoalesce: duplicate copy attached to the in-flight one
  kDemandShift,   // kRehome: periodic demand-aware re-homing moved the task
  kRetarget,      // kTransfer/kReject: in-flight transfer's target became
                  // unplaceable; the job was re-migrated or dropped
  kBackoff,         // kRetry: shed job re-released after its backoff delay
  kBudgetExhausted, // kRetry: retry/hedge abandoned, token bucket empty
  kMaxAttempts,     // kRetry: retry abandoned, attempt cap reached
  kExpired,         // kRetry: retry abandoned, no deadline slack left
  kHedgeLaunch,     // kHedge: second copy admitted on `peer`
  kHedgeWin,        // kHedge: the hedge copy finished first
  kHedgeCancel,     // kHedge: losing copy revoked before it started
};

const char* event_kind_name(EventKind k);
const char* event_cause_name(EventCause c);

/// Adds the counts one record implies to the per-GPU counters of `gpu` and
/// `peer` and to the fleet-wide totals: the only map from a record to a
/// count (Collector::record and EventLog::fold_counts both run it). Devices
/// outside `per_gpu` get no per-GPU count; the fleet totals count every
/// record. `routed` is left alone: the live count comes from
/// Collector::on_route.
void add_counts(std::vector<RoutingCounters>& per_gpu, FleetCounters& fleet,
                EventKind kind, EventCause cause, int gpu, int peer,
                double value);

/// One fixed-size record. `gpu` is the primary device, `peer` the secondary
/// (migration/rehome target; -1 otherwise), `task` the logical task id (-1
/// for device-level events), `value` a kind-specific payload (transfer MB,
/// straggler factor, jobs lost).
struct FleetEvent {
  common::Time when = 0;
  EventKind kind = EventKind::kAdmit;
  EventCause cause = EventCause::kNone;
  std::int16_t gpu = -1;
  std::int16_t peer = -1;
  std::int32_t task = -1;
  double value = 0.0;
};

class EventLog {
 public:
  /// Pre-sizes the record storage; appends within the reservation are
  /// allocation-free.
  void reserve(std::size_t records) { events_.reserve(records); }

  void append(common::Time when, EventKind kind, EventCause cause, int gpu,
              int peer = -1, int task = -1, double value = 0.0) {
    FleetEvent ev;
    ev.when = when;
    ev.kind = kind;
    ev.cause = cause;
    ev.gpu = static_cast<std::int16_t>(gpu);
    ev.peer = static_cast<std::int16_t>(peer);
    ev.task = static_cast<std::int32_t>(task);
    ev.value = value;
    events_.push_back(ev);
  }

  const std::vector<FleetEvent>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }

  /// The counters the records imply, per GPU and fleet-wide.
  struct Counts {
    std::vector<RoutingCounters> per_gpu;
    FleetCounters fleet;
  };

  /// Reconstructs the counters from the records alone by replaying
  /// add_counts. With no transfers still in flight at the end of a run this
  /// equals the live `Collector` counters field for field, except the
  /// measured FleetCounters, which no record implies (zero here). `routed` is
  /// derived as the sum of per-GPU outcomes (every routed job ends in
  /// exactly one admit/migrate/reject record).
  Counts fold_counts(int gpu_count) const;

  /// Appends the records as one JSON array, in append order (fields ts_us,
  /// kind, cause, gpu, peer, task, value; deterministic %.17g numbers).
  void append_json_array(std::string* out) const;

 private:
  std::vector<FleetEvent> events_;
};

}  // namespace daris::metrics
