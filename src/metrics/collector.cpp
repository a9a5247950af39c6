#include "metrics/collector.h"

#include <algorithm>
#include <cstdio>
#include <string>

#include "common/log.h"
#include "metrics/eventlog.h"

namespace daris::metrics {

namespace {

/// The record's log line; times to the nanosecond, never in exponent form.
std::string narration(Time when, EventKind kind, EventCause cause, int gpu,
                      int peer, int task, double value) {
  char line[192];
  std::snprintf(line, sizeof line,
                "t=%.3fus %s:%s gpu %d peer %d task %d value %g",
                common::to_us(when), event_kind_name(kind),
                event_cause_name(cause), gpu, peer, task, value);
  return line;
}

}  // namespace

Collector::Collector() = default;
Collector::~Collector() = default;

void Collector::enable_event_log(std::size_t capacity) {
  event_log_ = std::make_unique<EventLog>();
  event_log_->reserve(capacity);
}

void Collector::record(Time when, EventKind kind, EventCause cause, int gpu,
                       int peer, int task, double value) {
  add_counts(routing_, fleet_, kind, cause, gpu, peer, value);
  // Per-job routing and retry records narrate at debug; device lifecycle,
  // rebalancing, hedge and breaker transitions at info.
  const bool per_job =
      kind == EventKind::kAdmit || kind == EventKind::kReject ||
      kind == EventKind::kMigrate || kind == EventKind::kTransfer ||
      kind == EventKind::kCoalesce || kind == EventKind::kRetry;
  DARIS_LOG(per_job ? common::LogLevel::kDebug : common::LogLevel::kInfo)
      << narration(when, kind, cause, gpu, peer, task, value);
  if (event_log_) {
    event_log_->append(when, kind, cause, gpu, peer, task, value);
  }
}

void Collector::on_release(Priority p) {
  ++classes_[static_cast<std::size_t>(p)].released;
}

void Collector::on_reject(Priority p) {
  ++classes_[static_cast<std::size_t>(p)].rejected;
}

void Collector::on_finish(int gpu, Priority p, Time release, Time finish,
                          bool missed) {
  ClassSummary* cls = classes_;
  if (gpu >= 0 && gpu < static_cast<int>(lanes_.size())) {
    cls = lanes_[static_cast<std::size_t>(gpu)].cls;
  }
  auto& c = cls[static_cast<std::size_t>(p)];
  ++c.accepted;
  if (finish < measure_start_) return;  // warm-up
  ++c.completed;
  if (missed) ++c.missed;
  c.response_ms.add(common::to_ms(finish - release));
}

void Collector::on_stage(const StageEvent& ev) {
  if (!trace_stages_) return;
  if (!lanes_.empty() && ev.gpu >= 0 &&
      ev.gpu < static_cast<int>(lanes_.size())) {
    lanes_[static_cast<std::size_t>(ev.gpu)].stages.push_back(ev);
    return;
  }
  stage_trace_.push_back(ev);
}

void Collector::enable_lanes(int devices) {
  lanes_.assign(static_cast<std::size_t>(devices < 0 ? 0 : devices), Lane{});
}

void Collector::grow_lanes(int devices) {
  if (lanes_.empty()) return;  // lanes off: stay off (1-lane hand-wired run)
  if (devices > static_cast<int>(lanes_.size())) {
    lanes_.resize(static_cast<std::size_t>(devices));
  }
}

void Collector::finalize_lanes() {
  if (lanes_.empty()) return;
  std::size_t extra_stages = 0;
  for (const auto& lane : lanes_) extra_stages += lane.stages.size();
  stage_trace_.reserve(stage_trace_.size() + extra_stages);
  for (auto& lane : lanes_) {
    for (int p = 0; p < 2; ++p) {
      auto& src = lane.cls[p];
      auto& dst = classes_[p];
      dst.released += src.released;
      dst.accepted += src.accepted;
      dst.rejected += src.rejected;
      dst.completed += src.completed;
      dst.missed += src.missed;
      for (const double x : src.response_ms.samples()) dst.response_ms.add(x);
    }
    stage_trace_.insert(stage_trace_.end(), lane.stages.begin(),
                        lane.stages.end());
  }
  lanes_.clear();
  // Per-lane streams are time-sorted and appended in device order, so a
  // stable sort on time yields the canonical (when, gpu) timeline.
  std::stable_sort(stage_trace_.begin(), stage_trace_.end(),
                   [](const StageEvent& a, const StageEvent& b) {
                     return a.when < b.when;
                   });
}

Collector::ClassCounts Collector::class_counts(Priority p) const {
  const auto& base = classes_[static_cast<std::size_t>(p)];
  ClassCounts c{base.released, base.accepted, base.rejected, base.completed,
                base.missed};
  for (const auto& lane : lanes_) {
    const auto& l = lane.cls[static_cast<std::size_t>(p)];
    c.released += l.released;
    c.accepted += l.accepted;
    c.rejected += l.rejected;
    c.completed += l.completed;
    c.missed += l.missed;
  }
  return c;
}

void Collector::set_gpu_count(int n) {
  routing_.assign(static_cast<std::size_t>(n < 0 ? 0 : n), RoutingCounters{});
}

void Collector::grow_gpu_count(int n) {
  if (n > gpu_count()) routing_.resize(static_cast<std::size_t>(n));
}

void Collector::on_route(int gpu) {
  ++routing_[static_cast<std::size_t>(gpu)].routed;
}

RoutingCounters Collector::fleet_routing() const {
  RoutingCounters total;
  for (const auto& r : routing_) total += r;
  return total;
}

std::uint64_t Collector::total_completed() const {
  return classes_[0].completed + classes_[1].completed;
}

double Collector::throughput_jps(Time horizon) const {
  const Time span = horizon - measure_start_;
  if (span <= 0) return 0.0;
  return static_cast<double>(total_completed()) / common::to_sec(span);
}

}  // namespace daris::metrics
