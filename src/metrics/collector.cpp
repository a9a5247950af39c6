#include "metrics/collector.h"

#include <algorithm>

#include "metrics/eventlog.h"

namespace daris::metrics {

Collector::Collector() = default;
Collector::~Collector() = default;

void Collector::enable_event_log(std::size_t capacity) {
  event_log_ = std::make_unique<EventLog>();
  event_log_->reserve(capacity);
}

void Collector::log_admit(Time when, int gpu, int task) {
  if (event_log_) {
    event_log_->append(when, EventKind::kAdmit, EventCause::kHomeAdmit, gpu,
                       -1, task);
  }
}

void Collector::log_reject(Time when, int gpu, int task, EventCause cause) {
  if (event_log_) {
    event_log_->append(when, EventKind::kReject, cause, gpu, -1, task);
  }
}

void Collector::log_migrate(Time when, int from_gpu, int to_gpu, int task) {
  if (event_log_) {
    event_log_->append(when, EventKind::kMigrate, EventCause::kSpill,
                       from_gpu, to_gpu, task);
  }
}

void Collector::log_transfer(Time when, int to_gpu, int task, double mb) {
  if (event_log_) {
    event_log_->append(when, EventKind::kTransfer, EventCause::kColdModel,
                       to_gpu, -1, task, mb);
  }
}

void Collector::log_fault(Time when, int gpu, EventCause cause,
                          double value) {
  if (event_log_) {
    event_log_->append(when, EventKind::kFault, cause, gpu, -1, -1, value);
  }
}

void Collector::log_rehome(Time when, int from_gpu, int to_gpu, int task) {
  log_rehome(when, from_gpu, to_gpu, task, EventCause::kNone);
}

void Collector::log_rehome(Time when, int from_gpu, int to_gpu, int task,
                           EventCause cause) {
  if (event_log_) {
    event_log_->append(when, EventKind::kRehome, cause, from_gpu, to_gpu,
                       task);
  }
}

void Collector::log_steal(Time when, int victim, int thief, int task) {
  if (event_log_) {
    event_log_->append(when, EventKind::kSteal, EventCause::kBacklogSteal,
                       victim, thief, task);
  }
}

void Collector::log_coalesce(Time when, int to_gpu, int task, double mb) {
  if (event_log_) {
    event_log_->append(when, EventKind::kCoalesce, EventCause::kCoalesced,
                       to_gpu, -1, task, mb);
  }
}

void Collector::log_drain(Time when, int gpu) {
  if (event_log_) {
    event_log_->append(when, EventKind::kDrain, EventCause::kScaleDown, gpu);
  }
}

void Collector::log_retry(Time when, int gpu, int task, EventCause cause,
                          int attempt) {
  if (event_log_) {
    event_log_->append(when, EventKind::kRetry, cause, gpu, -1, task,
                       static_cast<double>(attempt));
  }
}

void Collector::log_hedge(Time when, int gpu, int peer, int task,
                          EventCause cause) {
  if (event_log_) {
    event_log_->append(when, EventKind::kHedge, cause, gpu, peer, task);
  }
}

void Collector::log_breaker(Time when, int gpu, EventCause cause,
                            double rate) {
  if (event_log_) {
    event_log_->append(when, EventKind::kBreaker, cause, gpu, -1, -1, rate);
  }
}

void Collector::on_release(const JobEvent& ev) {
  auto& c = classes_[static_cast<std::size_t>(ev.priority)];
  ++c.released;
}

void Collector::on_reject(const JobEvent& ev) {
  auto& c = classes_[static_cast<std::size_t>(ev.priority)];
  ++c.rejected;
}

void Collector::record_finish(ClassSummary* cls, std::vector<JobEvent>& jobs,
                              const JobEvent& ev) {
  auto& c = cls[static_cast<std::size_t>(ev.priority)];
  ++c.accepted;
  if (trace_jobs_) jobs.push_back(ev);
  if (ev.finish < measure_start_) return;  // warm-up
  ++c.completed;
  if (ev.missed) ++c.missed;
  c.response_ms.add(common::to_ms(ev.finish - ev.release));
}

void Collector::on_finish(const JobEvent& ev) {
  if (!lanes_.empty() && ev.gpu >= 0 &&
      ev.gpu < static_cast<int>(lanes_.size())) {
    auto& lane = lanes_[static_cast<std::size_t>(ev.gpu)];
    record_finish(lane.cls, lane.jobs, ev);
    return;
  }
  record_finish(classes_, job_trace_, ev);
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
  std::size_t extra_jobs = 0;
  for (const auto& lane : lanes_) {
    extra_stages += lane.stages.size();
    extra_jobs += lane.jobs.size();
  }
  stage_trace_.reserve(stage_trace_.size() + extra_stages);
  job_trace_.reserve(job_trace_.size() + extra_jobs);
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
    job_trace_.insert(job_trace_.end(), lane.jobs.begin(), lane.jobs.end());
  }
  lanes_.clear();
  // Per-lane streams are time-sorted and appended in device order, so a
  // stable sort on time yields the canonical (when, gpu) timeline.
  std::stable_sort(stage_trace_.begin(), stage_trace_.end(),
                   [](const StageEvent& a, const StageEvent& b) {
                     return a.when < b.when;
                   });
  std::stable_sort(job_trace_.begin(), job_trace_.end(),
                   [](const JobEvent& a, const JobEvent& b) {
                     return a.finish < b.finish;
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

void Collector::on_home_admit(int gpu) {
  ++routing_[static_cast<std::size_t>(gpu)].home_admits;
}

void Collector::on_cross_migration(int from_gpu, int to_gpu) {
  ++routing_[static_cast<std::size_t>(from_gpu)].migrated_out;
  ++routing_[static_cast<std::size_t>(to_gpu)].migrated_in;
}

void Collector::on_drop(int gpu) {
  ++routing_[static_cast<std::size_t>(gpu)].dropped;
}

void Collector::on_infeasible(int gpu) {
  ++routing_[static_cast<std::size_t>(gpu)].infeasible;
}

void Collector::on_transfer(int to_gpu, double mb) {
  auto& r = routing_[static_cast<std::size_t>(to_gpu)];
  ++r.transfers_in;
  r.transferred_mb += mb;
}

void Collector::on_steal(int victim, int thief) {
  ++routing_[static_cast<std::size_t>(victim)].steals_out;
  ++routing_[static_cast<std::size_t>(thief)].steals_in;
}

void Collector::on_coalesce(int to_gpu, double mb) {
  auto& r = routing_[static_cast<std::size_t>(to_gpu)];
  ++r.coalesced;
  r.coalesced_mb += mb;
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
