#include "daris/scheduler.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "common/log.h"
#include "gpusim/partition.h"

namespace daris::rt {

namespace {

std::uint64_t bits_of(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

}  // namespace

const Scheduler::TaskSlot Scheduler::kFreshSlot{};

Scheduler::Scheduler(sim::Simulator& sim, gpusim::Gpu& gpu,
                     SchedulerConfig config, metrics::Collector* collector,
                     TaskTable* tasks)
    : sim_(sim), gpu_(gpu), config_(config.canonicalize()),
      collector_(collector),
      own_table_(tasks == nullptr ? std::make_unique<TaskTable>() : nullptr),
      table_(tasks == nullptr ? own_table_.get() : tasks) {
  if (config_.num_contexts > kMaxContexts) {
    throw std::length_error("rt::Scheduler: more than 32767 contexts");
  }
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

int Scheduler::add_task(const TaskSpec& spec, const dnn::CompiledModel* model) {
  assert(model != nullptr && model->stage_count() > 0);
  const int id = table_->add(spec, model);
  set_task_resident(id, true);
  return id;
}

Task& Scheduler::task(int id) {
  TaskSlot& s = slot_mut(id);
  if (s.record == kNoRecord) {
    s.record = static_cast<std::uint32_t>(records_.size());
    Task& t = records_.emplace_back(
        id, (*table_)[id], static_cast<std::size_t>(config_.mret_window),
        &table_->active(id));
    if (s.seed != TaskTable::kNoSeed) {
      t.mret().set_afet(table_->seed(s.seed).per_stage_us.data());
    }
    return t;
  }
  return records_[s.record];
}

void Scheduler::count_active(Task& t, int delta) {
  t.active_jobs += delta;
  t.fleet_active_->fetch_add(delta, std::memory_order_relaxed);
}

std::vector<std::string> Scheduler::audit() const {
  std::vector<std::string> findings;
  char buf[200];
  for (std::size_t r = 0; r < records_.size(); ++r) {
    const Task& t = records_[r];
    if (slot(t.id()).record != r) {
      std::snprintf(buf, sizeof buf,
                    "device %d task %d: record %zu is not the one its slot "
                    "names",
                    device_id_, t.id(), r);
      findings.emplace_back(buf);
    }
    const double cached = t.mret().total_mret_us();
    const double sum = t.mret().stage_sum_us();
    if (bits_of(cached) != bits_of(sum)) {
      std::snprintf(buf, sizeof buf,
                    "device %d task %d: cached Eq. 2 total %.17g us, stage "
                    "sum %.17g us",
                    device_id_, t.id(), cached, sum);
      findings.emplace_back(buf);
    }
  }
  std::vector<std::vector<int>> members(contexts_.size());
  for (int id = 0; id < task_count(); ++id) {
    const TaskSlot& s = slot(id);
    if (s.context < -1 || s.context >= num_contexts()) {
      std::snprintf(buf, sizeof buf,
                    "device %d task %d: context %d outside [-1, %d)",
                    device_id_, id, static_cast<int>(s.context),
                    num_contexts());
      findings.emplace_back(buf);
    } else if (s.context >= 0 && resident(id) &&
               spec(id).priority == Priority::kHigh) {
      members[static_cast<std::size_t>(s.context)].push_back(id);
    }
    if (s.record != kNoRecord) continue;
    // A pair without a record reads its seed's cached total.
    if (s.seed >= table_->seed_count()) {
      std::snprintf(buf, sizeof buf,
                    "device %d task %d: AFET seed %d outside the table",
                    device_id_, id, static_cast<int>(s.seed));
      findings.emplace_back(buf);
      continue;
    }
    const AfetSeed& seed = table_->seed(s.seed);
    const double sum = MretEstimator::afet_sum_us(seed.per_stage_us.data(),
                                                  seed.per_stage_us.size());
    if (bits_of(seed.total_us) != bits_of(sum)) {
      std::snprintf(buf, sizeof buf,
                    "device %d task %d: seed %d total %.17g us, stage sum "
                    "%.17g us",
                    device_id_, id, static_cast<int>(s.seed), seed.total_us,
                    sum);
      findings.emplace_back(buf);
    }
  }
  for (std::size_t c = 0; c < contexts_.size(); ++c) {
    if (members[c] != contexts_[c].resident_hp) {
      std::snprintf(buf, sizeof buf,
                    "device %d context %zu: resident-HP membership lists "
                    "%zu tasks, the slots %zu",
                    device_id_, c, contexts_[c].resident_hp.size(),
                    members[c].size());
      findings.emplace_back(buf);
    }
  }
  return findings;
}

void Scheduler::set_afet(int task_id, const std::vector<double>& per_stage_us) {
  assert(per_stage_us.size() == model(task_id).stage_count());
  // Execution times: every MRET total stays >= 0 (cluster::Rebalancer
  // relies on it).
  assert(std::all_of(per_stage_us.begin(), per_stage_us.end(),
                     [](double us) { return us >= 0.0; }));
  TaskSlot& s = slot_mut(task_id);
  s.seed = table_->intern(task_id, per_stage_us);
  if (s.record != kNoRecord) {
    records_[s.record].mret().set_afet(
        table_->seed(s.seed).per_stage_us.data());
  }
}

void Scheduler::set_afet_seeds(const std::vector<std::uint16_t>& seeds) {
  assert(seeds.size() == static_cast<std::size_t>(task_count()));
  if (slots_.size() < seeds.size()) slots_.resize(seeds.size());
  for (std::size_t id = 0; id < seeds.size(); ++id) {
    TaskSlot& s = slots_[id];
    assert(table_->seed(seeds[id]).per_stage_us.size() ==
           model(static_cast<int>(id)).stage_count());
    s.seed = seeds[id];
    if (s.record != kNoRecord) {
      records_[s.record].mret().set_afet(
          table_->seed(s.seed).per_stage_us.data());
    }
  }
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
  // Every task is visited once per device, so the loops below read the
  // table and the slots in id order and pick the context without branches.
  const int n = task_count();
  if (slots_.size() < static_cast<std::size_t>(n)) {
    slots_.resize(static_cast<std::size_t>(n));
  }
  std::vector<double> ctx_util(contexts_.size(), 0.0);
  auto least_utilised = [&ctx_util] {
    // The first minimum, as std::min_element picks it; the running minimum
    // stays in a register.
    std::size_t best = 0;
    double least = ctx_util[0];
    for (std::size_t c = 1; c < ctx_util.size(); ++c) {
      const double u = ctx_util[c];
      const bool lower = u < least;
      best = lower ? c : best;
      least = lower ? u : least;
    }
    return best;
  };
  for (const Priority p : {Priority::kHigh, Priority::kLow}) {
    for (const int id : resident_) {
      if (spec(id).priority != p) continue;
      const std::size_t ctx = least_utilised();
      set_task_context(id, static_cast<int>(ctx));
      ctx_util[ctx] += utilization(id);
    }
  }
  // A non-resident task is in no context's resident-HP membership, so its
  // slot takes the context directly.
  for (const Priority p : {Priority::kHigh, Priority::kLow}) {
    auto home = resident_.begin();
    for (int id = 0; id < n; ++id) {
      if (home != resident_.end() && *home == id) {
        ++home;
        continue;
      }
      if ((*table_)[id].spec.priority != p) continue;
      const std::size_t ctx = least_utilised();
      slots_[static_cast<std::size_t>(id)].context =
          static_cast<std::int16_t>(ctx);
      ctx_util[ctx] += utilization(id);
    }
  }
}

void Scheduler::hp_member_remove(int task_id) {
  const int ctx = context(task_id);
  if (ctx < 0 || !resident(task_id) ||
      spec(task_id).priority != Priority::kHigh) {
    return;
  }
  auto& members = contexts_[static_cast<std::size_t>(ctx)].resident_hp;
  const auto it = std::lower_bound(members.begin(), members.end(), task_id);
  assert(it != members.end() && *it == task_id);
  members.erase(it);
}

void Scheduler::hp_member_add(int task_id) {
  const int ctx = context(task_id);
  if (ctx < 0 || !resident(task_id) ||
      spec(task_id).priority != Priority::kHigh) {
    return;
  }
  auto& members = contexts_[static_cast<std::size_t>(ctx)].resident_hp;
  members.insert(std::lower_bound(members.begin(), members.end(), task_id),
                 task_id);
}

void Scheduler::set_task_context(int task_id, int ctx) {
  if (context(task_id) == ctx) return;
  hp_member_remove(task_id);
  slot_mut(task_id).context = static_cast<std::int16_t>(ctx);
  hp_member_add(task_id);
}

void Scheduler::set_task_resident(int task_id, bool resident) {
  if (this->resident(task_id) == resident) return;
  hp_member_remove(task_id);
  const auto it =
      std::lower_bound(resident_.begin(), resident_.end(), task_id);
  if (resident) {
    resident_.insert(it, task_id);
  } else {
    resident_.erase(it);
  }
  hp_member_add(task_id);
}

double Scheduler::hp_utilization(int ctx) const {
  // Fold over the cached membership in ascending id order — the same visit
  // order (and therefore the same floating-point sum) as the historical
  // scan over every task, at O(members) per call.
  double u = 0.0;
  for (const int id : contexts_[static_cast<std::size_t>(ctx)].resident_hp) {
    u += utilization(id);
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

bool Scheduler::passes_admission(Priority p, int ctx, double util) const {
  // Eq. 12: U^{l,a}_k(t) + u_j(t) < U^r_k(t). For HP jobs under
  // Overload+HPA the job's own class utilisation already sits inside
  // U^{h,t}_k, so charge the active-LP side with zero and test headroom.
  const auto& rec = contexts_[static_cast<std::size_t>(ctx)];
  if (p == Priority::kLow) {
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
  const TaskSpec& spec = this->spec(task_id);
  // Backdated release (cluster migration after a weight transfer): deadlines
  // and response times anchor at the original release, not the delivery.
  const Time release = released_at >= 0 ? released_at : sim_.now();

  const Priority cls = spec.priority;
  if (report && collector_) collector_->on_release(cls);

  // A failed device admits nothing: releases that race the failure (e.g. a
  // migrated job whose weight transfer was in flight when the GPU died) are
  // shed like any other rejection.
  if (failed_) {
    if (report && collector_) collector_->on_reject(cls);
    return false;
  }

  // Late assignment for tasks added after the offline phase.
  if (context(task_id) < 0) set_task_context(task_id, 0);

  // Backlog guard (rt::backlog_cap).
  if (active_jobs(task_id) >= backlog_cap(cls)) {
    if (report && collector_) collector_->on_reject(cls);
    return false;
  }

  const double util = utilization(task_id);
  const bool needs_test =
      cls == Priority::kLow ? config_.lp_admission : config_.hp_admission;
  int target_ctx = context(task_id);

  if (needs_test && !passes_admission(cls, target_ctx, util)) {
    if (cls == Priority::kLow) {
      // Migration candidates: every other context that passes Eq. 12,
      // earliest predicted finish first.
      int best = -1;
      double best_backlog = std::numeric_limits<double>::infinity();
      for (int c = 0; c < num_contexts(); ++c) {
        if (c == target_ctx) continue;
        if (!passes_admission(cls, c, util)) continue;
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

  // The first job admitted here creates the task's record on this device.
  Task& t = task(task_id);
  Job job;
  job.task = &t;
  job.job_id = next_job_id_++;
  job.release = release;
  job.absolute_deadline = release + spec.relative_deadline;
  job.context = target_ctx;
  job.admitted_utilization = util;

  // Freeze virtual deadlines from the current MRET shares (Eq. 8). The last
  // stage absorbs rounding so it lands exactly on the job deadline. A
  // backdated job's early virtual deadlines may already lie in the past —
  // its stages then enter the queues miss-boosted, which is exactly the
  // behind-schedule treatment the transfer delay earned it.
  const auto shares = t.mret().virtual_deadlines(spec.relative_deadline);
  job.stage_deadlines.resize(shares.size());
  Time acc = release;
  for (std::size_t j = 0; j + 1 < shares.size(); ++j) {
    acc += shares[j];
    job.stage_deadlines[j] = acc;
  }
  job.stage_deadlines.back() = job.absolute_deadline;

  if (job_id_out != nullptr) *job_id_out = job.job_id;
  admit(t, target_ctx, std::move(job));
  return true;
}

void Scheduler::admit(Task& t, int ctx, Job job) {
  auto& rec = contexts_[static_cast<std::size_t>(ctx)];
  if (t.spec().priority == Priority::kLow) {
    rec.active_lp_util += job.admitted_utilization;
  } else {
    rec.active_hp_util += job.admitted_utilization;
    if (!resident(t.id())) {
      rec.migrated_hp_util += job.admitted_utilization;
    }
  }
  rec.outstanding_work_us += t.mret().total_mret_us();
  count_active(t, +1);
  ++cls_[static_cast<std::size_t>(t.spec().priority)].admitted;
  refresh_load();

  // Ids ascend, so the new job always goes last.
  const std::uint64_t id = job.job_id;
  Job* stored = &jobs_.emplace_hint(jobs_.end(), id, std::move(job))->second;
  if (!config_.staging) {
    // "No Staging" (Fig. 8): without synchronisation points the host never
    // learns when the GPU finishes a job, so it cannot hold work in a ready
    // queue — every admitted job is enqueued eagerly into a stream FIFO at
    // release time and priorities cannot reorder it afterwards.
    dispatch_eager(ctx, stored);
    return;
  }
  enqueue_stage(stored, 0, /*prev_missed=*/false);
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
  Job& job = it->second;
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
    if (!resident(t.id())) {
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
  resp_ring_[cls][resp_count_[cls] % kRespRing] =
      common::to_us(now - job.release);
  ++resp_count_[cls];

  if (collector_) {
    collector_->on_finish(device_id_, p, job.release, now, missed);
  }
}

std::uint64_t Scheduler::jobs_in_flight_of(common::Priority p) const {
  std::uint64_t n = 0;
  for (const auto& [id, job] : jobs_) {
    if (job.task->spec().priority == p) ++n;
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
  for (const auto& [id, job] : jobs_) {
    if (job.started || job.task->spec().priority != Priority::kLow) continue;
    StealableJob s;
    s.job_id = id;
    s.task_id = job.task->id();
    s.release = job.release;
    s.absolute_deadline = job.absolute_deadline;
    out.push_back(s);
  }
  return out;
}

bool Scheduler::job_stealable(std::uint64_t job_id) const {
  const auto it = jobs_.find(job_id);
  if (it == jobs_.end()) return false;
  const Job& job = it->second;
  return !job.started && job.task->spec().priority == Priority::kLow;
}

bool Scheduler::revoke_job(std::uint64_t job_id) {
  const auto it = jobs_.find(job_id);
  if (it == jobs_.end()) return false;
  Job& job = it->second;
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
  const std::size_t dropped = jobs_.size();
  const Time now = sim_.now();
  for (auto it = jobs_.begin(); it != jobs_.end(); it = jobs_.erase(it)) {
    const Job& job = it->second;
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
  }
  for (auto& rec : contexts_) {
    rec.ready.clear();  // queued ReadyStages point at the jobs just erased
    std::fill(rec.stream_busy.begin(), rec.stream_busy.end(), false);
    rec.outstanding_work_us = 0.0;
  }
  ready_stages_[0] = 0;
  ready_stages_[1] = 0;
  return dropped;
}

}  // namespace daris::rt
