#include "daris/scheduler.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstring>
#include <limits>

#include "common/log.h"
#include "gpusim/partition.h"

namespace daris::rt {

Scheduler::Scheduler(sim::Simulator& sim, gpusim::Gpu& gpu,
                     SchedulerConfig config, metrics::Collector* collector)
    : sim_(sim), gpu_(gpu), config_(config.canonicalize()),
      collector_(collector) {
  const auto quotas =
      config_.policy == Policy::kStr
          ? std::vector<int>{gpu_.spec().sm_count}
          : gpusim::partition_quotas(gpu_.spec(), config_.num_contexts,
                                     config_.oversubscription);
  contexts_.resize(quotas.size());
  for (std::size_t c = 0; c < quotas.size(); ++c) {
    contexts_[c].gpu_ctx = gpu_.create_context(static_cast<double>(quotas[c]));
    contexts_[c].streams.reserve(
        static_cast<std::size_t>(config_.streams_per_context));
    for (int s = 0; s < config_.streams_per_context; ++s) {
      contexts_[c].streams.push_back(gpu_.create_stream(contexts_[c].gpu_ctx));
      contexts_[c].stream_busy.push_back(false);
    }
  }
}

int Scheduler::add_task(const TaskSpec& spec, const dnn::CompiledModel* model,
                        std::atomic<int>* fleet_active) {
  assert(model != nullptr && model->stage_count() > 0);
  const int id = static_cast<int>(tasks_.size());
  tasks_.emplace_back(id, spec, model,
                      static_cast<std::size_t>(config_.mret_window),
                      fleet_active);
  return id;
}

void Scheduler::count_active(Task& t, int delta) {
  t.active_jobs += delta;
  if (t.fleet_active_ != nullptr) {
    t.fleet_active_->fetch_add(delta, std::memory_order_relaxed);
  }
}

namespace {

std::uint64_t bits_of(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

}  // namespace

bool Scheduler::AfetLess::operator()(const std::vector<double>& a,
                                     const std::vector<double>& b) const {
  if (a.size() != b.size()) return a.size() < b.size();
  for (std::size_t i = 0; i < a.size(); ++i) {
    const std::uint64_t x = bits_of(a[i]);
    const std::uint64_t y = bits_of(b[i]);
    if (x != y) return x < y;
  }
  return false;
}

std::vector<std::string> Scheduler::audit() const {
  std::vector<std::string> findings;
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    const MretEstimator& m = tasks_[i].mret();
    const double cached = m.total_mret_us();
    const double sum = m.stage_sum_us();
    if (bits_of(cached) == bits_of(sum)) continue;
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "device %d task %zu: cached Eq. 2 total %.17g us, stage "
                  "sum %.17g us",
                  device_id_, i, cached, sum);
    findings.emplace_back(buf);
  }
  return findings;
}

void Scheduler::set_afet(int task_id, const std::vector<double>& per_stage_us) {
  Task& t = task(task_id);
  assert(per_stage_us.size() == t.num_stages());
  auto it = afet_pool_.find(per_stage_us);
  if (it == afet_pool_.end()) it = afet_pool_.insert(per_stage_us).first;
  t.mret().set_afet(it->data());
}

void Scheduler::publish_load(double* slot, double divisor) {
  load_slot_ = slot;
  load_divisor_ = divisor;
  refresh_load();
}

void Scheduler::run_offline_phase() {
  // Algorithm 1: HP tasks first, then LP tasks, each to the context with the
  // least total utilisation so far. Resident tasks are this device's real
  // load and are placed first; non-resident tasks (cluster mode: peers'
  // residents whose jobs only reach this device through routing or
  // migration) are spread over the resulting balance afterwards, so phantom
  // fleet-wide load cannot bunch the resident HP tasks onto few contexts.
  std::vector<double> ctx_util(contexts_.size(), 0.0);
  auto assign_all = [&](Priority p, bool resident) {
    for (std::size_t i = 0; i < tasks_.size(); ++i) {
      const Task& t = tasks_[i];
      if (t.spec().priority != p || t.resident() != resident) continue;
      const auto it = std::min_element(ctx_util.begin(), ctx_util.end());
      const int ctx = static_cast<int>(it - ctx_util.begin());
      set_task_context(t.id(), ctx);
      ctx_util[static_cast<std::size_t>(ctx)] += t.utilization();
    }
  };
  assign_all(Priority::kHigh, /*resident=*/true);
  assign_all(Priority::kLow, /*resident=*/true);
  assign_all(Priority::kHigh, /*resident=*/false);
  assign_all(Priority::kLow, /*resident=*/false);
}

void Scheduler::hp_member_remove(const Task& t) {
  if (t.context() < 0 || !t.resident() ||
      t.spec().priority != Priority::kHigh) {
    return;
  }
  auto& members =
      contexts_[static_cast<std::size_t>(t.context())].resident_hp;
  const auto it = std::lower_bound(members.begin(), members.end(), t.id());
  assert(it != members.end() && *it == t.id());
  members.erase(it);
}

void Scheduler::hp_member_add(const Task& t) {
  if (t.context() < 0 || !t.resident() ||
      t.spec().priority != Priority::kHigh) {
    return;
  }
  auto& members =
      contexts_[static_cast<std::size_t>(t.context())].resident_hp;
  members.insert(std::lower_bound(members.begin(), members.end(), t.id()),
                 t.id());
}

void Scheduler::set_task_context(int task_id, int ctx) {
  Task& t = task(task_id);
  if (t.context_ == ctx) return;
  hp_member_remove(t);
  t.context_ = ctx;
  hp_member_add(t);
}

void Scheduler::set_task_resident(int task_id, bool resident) {
  Task& t = task(task_id);
  if (t.resident_ == resident) return;
  hp_member_remove(t);
  t.resident_ = resident;
  hp_member_add(t);
}

double Scheduler::hp_utilization(int ctx) const {
  // Fold over the cached membership in ascending id order — the same visit
  // order (and therefore the same floating-point sum) as the historical
  // scan over every task, at O(members) per call.
  double u = 0.0;
  for (const int id : contexts_[static_cast<std::size_t>(ctx)].resident_hp) {
    u += task(id).utilization();
  }
  return u;
}

double Scheduler::active_utilization() const {
  double u = 0.0;
  for (const auto& rec : contexts_) {
    u += rec.active_hp_util + rec.active_lp_util;
  }
  return u;
}

double Scheduler::active_lp_utilization(int ctx) const {
  return contexts_[static_cast<std::size_t>(ctx)].active_lp_util;
}

double Scheduler::remaining_utilization(int ctx) const {
  return static_cast<double>(config_.streams_per_context) -
         hp_utilization(ctx);
}

bool Scheduler::passes_admission(const Task& task, int ctx,
                                 double util) const {
  // Eq. 12: U^{l,a}_k(t) + u_j(t) < U^r_k(t). For HP jobs under
  // Overload+HPA the job's own class utilisation already sits inside
  // U^{h,t}_k, so charge the active-LP side with zero and test headroom.
  const auto& rec = contexts_[static_cast<std::size_t>(ctx)];
  if (task.spec().priority == Priority::kLow) {
    // Migrated-in HP work consumes capacity the resident-only U^{h,t}_k
    // term cannot see; charge it alongside the active LP utilisation.
    return rec.active_lp_util + rec.migrated_hp_util + util <
           remaining_utilization(ctx);
  }
  // HPA: admit while the *currently active* admitted utilisation leaves
  // room, so excess HP jobs are shed instead of queueing into lateness.
  return rec.active_hp_util + rec.active_lp_util + util <=
         static_cast<double>(config_.streams_per_context) + 1e-9;
}

double Scheduler::predicted_backlog_us(int ctx) const {
  const auto& rec = contexts_[static_cast<std::size_t>(ctx)];
  return rec.outstanding_work_us /
         static_cast<double>(config_.streams_per_context);
}

bool Scheduler::release_job(int task_id, bool report, Time released_at,
                            std::uint64_t* job_id_out) {
  Task& t = task(task_id);
  // Backdated release (cluster migration after a weight transfer): deadlines
  // and response times anchor at the original release, not the delivery.
  const Time release = released_at >= 0 ? released_at : sim_.now();

  const Priority cls = t.spec().priority;
  if (report && collector_) collector_->on_release(cls);

  // A failed device admits nothing: releases that race the failure (e.g. a
  // migrated job whose weight transfer was in flight when the GPU died) are
  // shed like any other rejection.
  if (failed_) {
    if (report && collector_) collector_->on_reject(cls);
    return false;
  }

  // Late assignment for tasks added after the offline phase.
  if (t.context() < 0) set_task_context(task_id, 0);

  // Backlog guard (rt::backlog_cap).
  if (t.active_jobs >= backlog_cap(cls)) {
    if (report && collector_) collector_->on_reject(cls);
    return false;
  }

  const double util = t.utilization();
  const bool needs_test = t.spec().priority == Priority::kLow
                              ? config_.lp_admission
                              : config_.hp_admission;
  int target_ctx = t.context();

  if (needs_test && !passes_admission(t, target_ctx, util)) {
    if (t.spec().priority == Priority::kLow) {
      // Migration candidates: every other context that passes Eq. 12,
      // earliest predicted finish first.
      int best = -1;
      double best_backlog = std::numeric_limits<double>::infinity();
      for (int c = 0; c < num_contexts(); ++c) {
        if (c == target_ctx) continue;
        if (!passes_admission(t, c, util)) continue;
        const double backlog = predicted_backlog_us(c);
        if (backlog < best_backlog) {
          best_backlog = backlog;
          best = c;
        }
      }
      if (best < 0) {
        if (report && collector_) collector_->on_reject(cls);
        return false;
      }
      ++migrations_;
      set_task_context(task_id, best);  // ctx_i(t) moves with the task
      target_ctx = best;
    } else {
      if (report && collector_) collector_->on_reject(cls);
      return false;
    }
  }

  auto jr = std::make_unique<JobRuntime>();
  jr->job.task = &t;
  jr->job.job_id = next_job_id_++;
  jr->job.release = release;
  jr->job.absolute_deadline = release + t.spec().relative_deadline;
  jr->job.context = target_ctx;
  jr->job.admitted_utilization = util;

  // Freeze virtual deadlines from the current MRET shares (Eq. 8). The last
  // stage absorbs rounding so it lands exactly on the job deadline. A
  // backdated job's early virtual deadlines may already lie in the past —
  // its stages then enter the queues miss-boosted, which is exactly the
  // behind-schedule treatment the transfer delay earned it.
  const auto shares =
      t.mret().virtual_deadlines(t.spec().relative_deadline);
  jr->job.stage_deadlines.resize(shares.size());
  Time acc = release;
  for (std::size_t j = 0; j + 1 < shares.size(); ++j) {
    acc += shares[j];
    jr->job.stage_deadlines[j] = acc;
  }
  jr->job.stage_deadlines.back() = jr->job.absolute_deadline;

  if (job_id_out != nullptr) *job_id_out = jr->job.job_id;
  admit(t, target_ctx, std::move(jr));
  return true;
}

void Scheduler::admit(Task& t, int ctx, std::unique_ptr<JobRuntime> jr) {
  auto& rec = contexts_[static_cast<std::size_t>(ctx)];
  if (t.spec().priority == Priority::kLow) {
    rec.active_lp_util += jr->job.admitted_utilization;
  } else {
    rec.active_hp_util += jr->job.admitted_utilization;
    if (!t.resident()) {
      rec.migrated_hp_util += jr->job.admitted_utilization;
    }
  }
  rec.outstanding_work_us += t.mret().total_mret_us();
  count_active(t, +1);
  ++cls_[static_cast<std::size_t>(t.spec().priority)].admitted;
  refresh_load();

  Job* job = &jr->job;
  jobs_.emplace(jr->job.job_id, std::move(jr));
  if (!config_.staging) {
    // "No Staging" (Fig. 8): without synchronisation points the host never
    // learns when the GPU finishes a job, so it cannot hold work in a ready
    // queue — every admitted job is enqueued eagerly into a stream FIFO at
    // release time and priorities cannot reorder it afterwards.
    dispatch_eager(ctx, job);
    return;
  }
  enqueue_stage(job, 0, /*prev_missed=*/false);
  try_dispatch(ctx);
}

void Scheduler::dispatch_eager(int ctx, Job* job) {
  job->started = true;
  auto& rec = contexts_[static_cast<std::size_t>(ctx)];
  // FIFO into the shallowest stream of the context.
  std::size_t best = 0;
  for (std::size_t s = 1; s < rec.streams.size(); ++s) {
    if (gpu_.stream_depth(rec.streams[s]) <
        gpu_.stream_depth(rec.streams[best])) {
      best = s;
    }
  }
  const gpusim::StreamId stream = rec.streams[best];
  Task& t = *job->task;
  const std::uint64_t id = job->job_id;
  // Without syncs the host only observes completion callbacks, so stage
  // execution "measurements" are callback-to-callback deltas; the first one
  // absorbs the whole FIFO queueing delay (degraded MRET quality is part of
  // what staging buys back).
  auto last_done = std::make_shared<Time>(sim_.now());
  for (std::size_t j = 0; j < t.num_stages(); ++j) {
    const double mret_pred = t.mret().stage_mret_us(j);
    for (const auto& k : t.model().stages[j].kernels) {
      gpu_.launch_kernel(stream, k);
    }
    gpu_.enqueue_callback(stream, [this, ctx, id, j, last_done, mret_pred] {
      const Time begin = *last_done;
      *last_done = sim_.now();
      on_stage_complete(ctx, /*stream_idx=*/0, id, j, begin, mret_pred,
                        /*frees_stream=*/false);
    });
  }
}

void Scheduler::enqueue_stage(Job* job, std::size_t stage, bool prev_missed) {
  Task& t = *job->task;
  const std::size_t n = t.num_stages();
  ReadyStage rs;
  rs.job = job;
  rs.stage = stage;
  const bool is_last =
      config_.staging ? (stage == n - 1) : true;  // whole job acts as last
  rs.level = stage_level(config_, t.spec().priority, is_last, prev_missed);
  rs.deadline = config_.staging ? job->stage_deadlines[stage]
                                : job->absolute_deadline;
  contexts_[static_cast<std::size_t>(job->context)].ready.push(rs);
  ++ready_stages_[static_cast<std::size_t>(t.spec().priority)];
}

void Scheduler::try_dispatch(int ctx) {
  auto& rec = contexts_[static_cast<std::size_t>(ctx)];
  while (!rec.ready.empty()) {
    int idle = -1;
    for (std::size_t s = 0; s < rec.stream_busy.size(); ++s) {
      if (!rec.stream_busy[s]) {
        idle = static_cast<int>(s);
        break;
      }
    }
    if (idle < 0) return;
    const ReadyStage next = rec.ready.pop();
    --ready_stages_[static_cast<std::size_t>(next.job->task->spec().priority)];
    dispatch(ctx, idle, next);
  }
}

void Scheduler::dispatch(int ctx, int stream_idx, const ReadyStage& ready) {
  auto& rec = contexts_[static_cast<std::size_t>(ctx)];
  rec.stream_busy[static_cast<std::size_t>(stream_idx)] = true;
  Job* job = ready.job;
  job->started = true;
  Task& t = *job->task;
  const gpusim::StreamId stream =
      rec.streams[static_cast<std::size_t>(stream_idx)];
  const Time dispatch_time = sim_.now();

  // One stage per dispatch; the trailing callback is the synchronisation
  // point that lets a higher-priority stage take the stream.
  const std::size_t j = ready.stage;
  const double mret_pred = t.mret().stage_mret_us(j);
  for (const auto& k : t.model().stages[j].kernels) {
    gpu_.launch_kernel(stream, k);
  }
  const std::uint64_t id = job->job_id;
  gpu_.enqueue_callback(stream, [this, ctx, stream_idx, id, j, dispatch_time,
                                 mret_pred] {
    on_stage_complete(ctx, stream_idx, id, j, dispatch_time, mret_pred,
                      /*frees_stream=*/true);
  });
}

void Scheduler::on_stage_complete(int ctx, int stream_idx,
                                  std::uint64_t job_id, std::size_t stage,
                                  Time dispatch_time, double mret_at_dispatch,
                                  bool frees_stream) {
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) return;
  JobRuntime& jr = *it->second;
  Job& job = jr.job;
  Task& t = *job.task;
  const Time now = sim_.now();
  auto& rec = contexts_[static_cast<std::size_t>(ctx)];

  // Record et_{i,j} into the MRET window (Eq. 1).
  const double et_us = common::to_us(now - dispatch_time);
  t.mret().record(stage, et_us);
  const bool missed_virtual = now > job.stage_deadlines[stage];
  if (collector_) {
    metrics::StageEvent sev;
    sev.task_id = t.id();
    sev.priority = t.spec().priority;
    sev.stage = stage;
    sev.when = now;
    sev.execution_us = et_us;
    sev.mret_us = mret_at_dispatch;
    sev.context = ctx;
    sev.gpu = device_id_;
    sev.missed = missed_virtual;
    collector_->on_stage(sev);
  }

  rec.outstanding_work_us = std::max(
      0.0, rec.outstanding_work_us - t.mret().stage_mret_us(stage));

  job.next_stage = stage + 1;
  job.prev_stage_missed = missed_virtual;

  const bool job_done = stage + 1 >= t.num_stages();
  // HP jobs keep their stream across the sync gap so a ready LP stage
  // cannot interpose a whole stage between two HP stages.
  const bool hold_stream = frees_stream && !job_done && config_.staging &&
                           config_.hp_stream_hold &&
                           t.spec().priority == Priority::kHigh;

  if (frees_stream && !hold_stream) {
    rec.stream_busy[static_cast<std::size_t>(stream_idx)] = false;
  }

  if (job_done) {
    finish_job(job);
    jobs_.erase(it);
  } else if (config_.staging) {
    // The next stage becomes ready after the host sync wake-up.
    Job* jp = &job;
    sim_.schedule_after(
        common::from_us(gpu_.spec().sync_overhead_us),
        [this, job_id, jp, ctx, stream_idx, stage, missed_virtual,
         hold_stream] {
          if (jobs_.find(job_id) == jobs_.end()) return;
          if (hold_stream) {
            // The held stream is *contested*: the HP job's next stage keeps
            // it unless the context queue's head outranks it under the same
            // level/EDF order (so an HP job finishing its boosted last
            // stage, or a miss-boosted stage, can still take over — which
            // is what the No Last / No Prior ablations remove).
            auto& ctx_rec = contexts_[static_cast<std::size_t>(ctx)];
            Task& task = *jp->task;
            const bool is_last = stage + 2 >= task.num_stages();
            const int level = stage_level(config_, task.spec().priority,
                                          is_last, missed_virtual);
            const Time deadline = jp->stage_deadlines[stage + 1];
            const bool preempted =
                !ctx_rec.ready.empty() &&
                (ctx_rec.ready.peek().level < level ||
                 (ctx_rec.ready.peek().level == level &&
                  ctx_rec.ready.peek().deadline < deadline));
            if (!preempted) {
              ReadyStage rs;
              rs.job = jp;
              rs.stage = stage + 1;
              ctx_rec.stream_busy[static_cast<std::size_t>(stream_idx)] =
                  false;
              dispatch(ctx, stream_idx, rs);
              return;
            }
            ctx_rec.stream_busy[static_cast<std::size_t>(stream_idx)] = false;
          }
          enqueue_stage(jp, stage + 1, missed_virtual);
          try_dispatch(jp->context);
        });
  }

  if (frees_stream && !hold_stream) try_dispatch(ctx);
}

void Scheduler::leave_active(const Job& job) {
  Task& t = *job.task;
  auto& rec = contexts_[static_cast<std::size_t>(job.context)];
  if (t.spec().priority == Priority::kLow) {
    rec.active_lp_util =
        std::max(0.0, rec.active_lp_util - job.admitted_utilization);
  } else {
    rec.active_hp_util =
        std::max(0.0, rec.active_hp_util - job.admitted_utilization);
    if (!t.resident()) {
      rec.migrated_hp_util =
          std::max(0.0, rec.migrated_hp_util - job.admitted_utilization);
    }
  }
  count_active(t, -1);
  refresh_load();
}

void Scheduler::finish_job(const Job& job) {
  const Time now = sim_.now();
  leave_active(job);

  const Priority p = job.task->spec().priority;
  const std::size_t cls = static_cast<std::size_t>(p);
  ++cls_[cls].completed;
  const bool missed = now > job.absolute_deadline;
  if (missed) ++jobs_missed_;
  resp_ring_[cls][resp_count_[cls] % kRespRing] =
      common::to_us(now - job.release);
  ++resp_count_[cls];

  if (collector_) {
    collector_->on_finish(device_id_, p, job.release, now, missed);
  }
}

std::uint64_t Scheduler::jobs_in_flight_of(common::Priority p) const {
  std::uint64_t n = 0;
  for (const auto& [id, jr] : jobs_) {
    if (jr->job.task->spec().priority == p) ++n;
  }
  return n;
}

double Scheduler::response_percentile_us(common::Priority p, double q) const {
  const std::size_t cls = static_cast<std::size_t>(p);
  const std::uint32_t n = std::min<std::uint32_t>(resp_count_[cls], kRespRing);
  if (n == 0) return 0.0;
  double sorted[kRespRing];
  std::copy(resp_ring_[cls], resp_ring_[cls] + n, sorted);
  std::sort(sorted, sorted + n);
  const double clamped = std::min(100.0, std::max(0.0, q));
  const auto idx = static_cast<std::size_t>(clamped / 100.0 *
                                            static_cast<double>(n - 1));
  return sorted[idx];
}

std::vector<Scheduler::StealableJob> Scheduler::donatable_lp_jobs() const {
  std::vector<StealableJob> out;
  if (!config_.staging) return out;  // eager dispatch: everything started
  for (const auto& [id, jr] : jobs_) {
    const Job& job = jr->job;
    if (job.started || job.task->spec().priority != Priority::kLow) continue;
    StealableJob s;
    s.job_id = id;
    s.task_id = job.task->id();
    s.release = job.release;
    s.absolute_deadline = job.absolute_deadline;
    out.push_back(s);
  }
  // unordered_map iteration order is unspecified; thieves scan in ascending
  // job-id order so the steal schedule is deterministic.
  std::sort(out.begin(), out.end(),
            [](const StealableJob& a, const StealableJob& b) {
              return a.job_id < b.job_id;
            });
  return out;
}

bool Scheduler::job_stealable(std::uint64_t job_id) const {
  const auto it = jobs_.find(job_id);
  if (it == jobs_.end()) return false;
  const Job& job = it->second->job;
  return !job.started && job.task->spec().priority == Priority::kLow;
}

bool Scheduler::revoke_job(std::uint64_t job_id) {
  const auto it = jobs_.find(job_id);
  if (it == jobs_.end()) return false;
  Job& job = it->second->job;
  if (job.started) return false;  // GPU-side state: too late to donate
  Task& t = *job.task;
  auto& rec = contexts_[static_cast<std::size_t>(job.context)];

  // The job leaves the active set as on a finish, but with no finish event
  // and no completion count: it is not done, it moved to a peer scheduler.
  leave_active(job);
  rec.outstanding_work_us =
      std::max(0.0, rec.outstanding_work_us - t.mret().total_mret_us());

  const std::size_t removed = rec.ready.remove_job(&job);
  ready_stages_[static_cast<std::size_t>(t.spec().priority)] -=
      static_cast<int>(removed);
  ++cls_[static_cast<std::size_t>(t.spec().priority)].revoked;
  jobs_.erase(it);
  return true;
}

std::size_t Scheduler::fail_all_jobs() {
  failed_ = true;
  // unordered_map iteration order is unspecified; unwind in ascending job-id
  // order so the collector's event sequence (and with it every downstream
  // report) is deterministic.
  std::vector<std::uint64_t> ids;
  ids.reserve(jobs_.size());
  for (const auto& [id, jr] : jobs_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());

  const Time now = sim_.now();
  for (const std::uint64_t id : ids) {
    const auto it = jobs_.find(id);
    const Job& job = it->second->job;
    // The job leaves the active set as on a finish, but it counts as failed,
    // not completed, and its finish is forced missed: a request lost to a
    // dead GPU is a deadline miss from the client's point of view even if
    // its deadline lay ahead.
    leave_active(job);
    const Priority p = job.task->spec().priority;
    ++cls_[static_cast<std::size_t>(p)].failed;
    if (collector_) {
      collector_->on_finish(device_id_, p, job.release, now, /*missed=*/true);
    }
    jobs_.erase(it);
  }
  for (auto& rec : contexts_) {
    rec.ready.clear();  // queued ReadyStages point at the jobs just erased
    std::fill(rec.stream_busy.begin(), rec.stream_busy.end(), false);
    rec.outstanding_work_us = 0.0;
  }
  ready_stages_[0] = 0;
  ready_stages_[1] = 0;
  return ids.size();
}

}  // namespace daris::rt
