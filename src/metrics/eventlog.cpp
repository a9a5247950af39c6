#include "metrics/eventlog.h"

#include <cstdio>

namespace daris::metrics {

const char* event_kind_name(EventKind k) {
  switch (k) {
    case EventKind::kAdmit:
      return "admit";
    case EventKind::kReject:
      return "reject";
    case EventKind::kMigrate:
      return "migrate";
    case EventKind::kTransfer:
      return "transfer";
    case EventKind::kFault:
      return "fault";
    case EventKind::kRehome:
      return "rehome";
    case EventKind::kDrain:
      return "drain";
    case EventKind::kSteal:
      return "steal";
    case EventKind::kCoalesce:
      return "coalesce";
    case EventKind::kRetry:
      return "retry";
    case EventKind::kHedge:
      return "hedge";
    case EventKind::kBreaker:
      return "breaker";
  }
  return "?";
}

const char* event_cause_name(EventCause c) {
  switch (c) {
    case EventCause::kNone:
      return "none";
    case EventCause::kHomeAdmit:
      return "home-admit";
    case EventCause::kInfeasible:
      return "infeasible";
    case EventCause::kBacklog:
      return "backlog";
    case EventCause::kPeerReject:
      return "peer-reject";
    case EventCause::kSpill:
      return "spill";
    case EventCause::kColdModel:
      return "cold-model";
    case EventCause::kFailStop:
      return "fail-stop";
    case EventCause::kStraggler:
      return "straggler";
    case EventCause::kScaleUp:
      return "scale-up";
    case EventCause::kScaleDown:
      return "scale-down";
    case EventCause::kBacklogSteal:
      return "backlog-steal";
    case EventCause::kCoalesced:
      return "coalesced";
    case EventCause::kDemandShift:
      return "demand-shift";
    case EventCause::kRetarget:
      return "retarget";
    case EventCause::kBackoff:
      return "backoff";
    case EventCause::kBudgetExhausted:
      return "budget-exhausted";
    case EventCause::kMaxAttempts:
      return "max-attempts";
    case EventCause::kExpired:
      return "expired";
    case EventCause::kHedgeLaunch:
      return "hedge-launch";
    case EventCause::kHedgeWin:
      return "hedge-win";
    case EventCause::kHedgeCancel:
      return "hedge-cancel";
    case EventCause::kBreakerOpen:
      return "breaker-open";
    case EventCause::kBreakerHalfOpen:
      return "breaker-half-open";
    case EventCause::kBreakerClose:
      return "breaker-close";
  }
  return "?";
}

void add_counts(std::vector<RoutingCounters>& per_gpu, FleetCounters& fleet,
                EventKind kind, EventCause cause, int gpu, int peer,
                double value) {
  auto at = [&per_gpu](int g) -> RoutingCounters* {
    if (g < 0 || static_cast<std::size_t>(g) >= per_gpu.size()) return nullptr;
    return &per_gpu[static_cast<std::size_t>(g)];
  };
  switch (kind) {
    case EventKind::kAdmit:
      if (auto* c = at(gpu)) ++c->home_admits;
      break;
    case EventKind::kReject:
      // Infeasible sheds have their own column; guard, peer and retarget
      // rejections count as drops. Fleet-wide, every shed is a drop.
      ++fleet.drops;
      if (cause == EventCause::kInfeasible) ++fleet.infeasible;
      if (auto* c = at(gpu)) {
        if (cause == EventCause::kInfeasible) {
          ++c->infeasible;
        } else {
          ++c->dropped;
        }
      }
      break;
    case EventKind::kMigrate:
      // Routed to `gpu`, admitted on `peer`.
      ++fleet.migrations;
      if (auto* c = at(gpu)) ++c->migrated_out;
      if (auto* c = at(peer)) ++c->migrated_in;
      break;
    case EventKind::kTransfer:
      ++fleet.transfers;
      fleet.transferred_mb += value;
      if (auto* c = at(gpu)) {
        ++c->transfers_in;
        c->transferred_mb += value;
      }
      break;
    case EventKind::kSteal:
      // Claimed off `gpu` (the victim) by `peer` (the thief).
      ++fleet.steals;
      if (auto* c = at(gpu)) ++c->steals_out;
      if (auto* c = at(peer)) ++c->steals_in;
      break;
    case EventKind::kCoalesce:
      // A duplicate copy to `gpu` attached to the in-flight one; value is
      // the MB it did not re-ship.
      ++fleet.coalesced;
      fleet.coalesced_mb_saved += value;
      if (auto* c = at(gpu)) {
        ++c->coalesced;
        c->coalesced_mb += value;
      }
      break;
    case EventKind::kFault:
      if (cause == EventCause::kFailStop) {
        fleet.jobs_lost += static_cast<std::uint64_t>(value);
      }
      break;
    case EventKind::kRehome:
      // Fault-driven rehomes (kNone) are the fault's consequence, not a
      // rebalancing move.
      if (cause == EventCause::kDemandShift) ++fleet.rehomes;
      break;
    case EventKind::kRetry:
      // Resilience records carry no routing counts: a retry or hedge that
      // was actually released shows up as its own admit/reject/migrate
      // record.
      if (cause == EventCause::kBackoff) ++fleet.retries;
      if (cause == EventCause::kBudgetExhausted) ++fleet.retry_abandoned_budget;
      if (cause == EventCause::kExpired) ++fleet.retry_abandoned_expired;
      if (cause == EventCause::kMaxAttempts) ++fleet.retry_abandoned_attempts;
      break;
    case EventKind::kHedge:
      if (cause == EventCause::kHedgeLaunch) ++fleet.hedges;
      if (cause == EventCause::kHedgeWin) ++fleet.hedge_wins;
      if (cause == EventCause::kHedgeCancel) ++fleet.hedge_cancels;
      break;
    case EventKind::kBreaker:
      if (cause == EventCause::kBreakerOpen) ++fleet.breaker_opens;
      if (cause == EventCause::kBreakerClose) ++fleet.breaker_closes;
      break;
    case EventKind::kDrain:
      break;
  }
}

EventLog::Counts EventLog::fold_counts(int gpu_count) const {
  Counts out;
  out.per_gpu.resize(static_cast<std::size_t>(gpu_count < 0 ? 0 : gpu_count));
  for (const FleetEvent& ev : events_) {
    const bool outcome = ev.kind == EventKind::kAdmit ||
                         ev.kind == EventKind::kReject ||
                         ev.kind == EventKind::kMigrate;
    if (outcome && ev.gpu >= 0 &&
        static_cast<std::size_t>(ev.gpu) < out.per_gpu.size()) {
      ++out.per_gpu[static_cast<std::size_t>(ev.gpu)].routed;
    }
    add_counts(out.per_gpu, out.fleet, ev.kind, ev.cause, ev.gpu, ev.peer,
               ev.value);
  }
  return out;
}

void EventLog::append_json_array(std::string* out) const {
  *out += "[";
  char buf[192];
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const FleetEvent& ev = events_[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n    {\"ts_us\": %.17g, \"kind\": \"%s\", \"cause\": "
                  "\"%s\", \"gpu\": %d, \"peer\": %d, \"task\": %d, "
                  "\"value\": %.17g}",
                  i == 0 ? "" : ",", common::to_us(ev.when),
                  event_kind_name(ev.kind), event_cause_name(ev.cause),
                  static_cast<int>(ev.gpu), static_cast<int>(ev.peer),
                  static_cast<int>(ev.task), ev.value);
    *out += buf;
  }
  *out += events_.empty() ? "]" : "\n  ]";
}

}  // namespace daris::metrics
