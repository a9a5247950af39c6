// The DARIS real-time scheduler (Sec. IV).
//
// Offline phase: AFET-seeded utilisations are balanced across contexts with
// Algorithm 1 (HP tasks first, then LP tasks, each to the least-utilised
// context). HP tasks keep fixed contexts; LP tasks may migrate.
//
// Online phase: each released LP job takes the utilisation-based admission
// test (Eq. 11-12) against its context; failing that, other contexts are
// tried as migration targets (earliest predicted finish first) and the job
// is rejected if none passes. Admitted jobs execute stage by stage: a ready
// stage enters its context's 8-level EDF queue and is dispatched to the
// first idle stream; the synchronisation point at each stage boundary is the
// paper's coarse-grained preemption mechanism ("staging").
//
// Task state is pay-as-you-go. The task itself (spec, model) sits in a
// TaskTable, shared by every scheduler of a fleet. Per task, a scheduler
// keeps an 8-byte slot (its Algorithm 1 context and which interned AFET
// seed it reads) and, from the first job of the task it admits on, a full
// rt::Task record (MRET windows, cached Eq. 2 total, active-job count);
// besides, the ids of the tasks homed here. Reads that need only a spec, a
// utilisation or an MRET total go through queries that create nothing.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "daris/config.h"
#include "daris/stage_queue.h"
#include "daris/task.h"
#include "gpusim/gpu.h"
#include "metrics/collector.h"
#include "sim/simulator.h"

namespace daris::rt {

class Scheduler {
 public:
  /// Most contexts a scheduler holds: a task's context is an int16_t.
  static constexpr int kMaxContexts = 32767;

  /// Creates contexts/streams on `gpu` according to `config` (Eq. 9 quotas);
  /// throws std::length_error for more than kMaxContexts contexts. `tasks`
  /// (cluster mode, may be null) is the fleet's shared task table, which
  /// must outlive the scheduler; a scheduler without one keeps its own.
  Scheduler(sim::Simulator& sim, gpusim::Gpu& gpu, SchedulerConfig config,
            metrics::Collector* collector, TaskTable* tasks = nullptr);

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  const SchedulerConfig& config() const { return config_; }

  /// Registers a task in the task table, resident here (this is its home
  /// device); the compiled model must outlive the scheduler. Returns the
  /// task id. Every other scheduler sharing the table sees the task too,
  /// non-resident.
  int add_task(const TaskSpec& spec, const dnn::CompiledModel* model);

  /// Seeds the task's MRET estimate on this device with offline AFET values
  /// (Eq. 10), one per stage of the task's model. The task table keeps one
  /// copy of each distinct vector (TaskTable::intern), so the caller's
  /// vector need not outlive the call.
  void set_afet(int task_id, const std::vector<double>& per_stage_us);

  /// Seeds every task from seeds the table has already interned: task id
  /// reads seed `seeds[id]` (TaskTable::intern's result), as set_afet with
  /// that seed's vector leaves it. Only reads the table, so devices sharing
  /// one may run it concurrently (cluster::Fleet::run_offline_phase).
  void set_afet_seeds(const std::vector<std::uint16_t>& seeds);

  /// Algorithm 1: initial context assignment balancing utilisation.
  void run_offline_phase();

  /// Releases one job of the task (called by the release drivers). Returns
  /// true when the job was admitted. With `report` false the release/reject
  /// collector events are suppressed — the cluster router retries rejected
  /// jobs on peer GPUs and owns the fleet-level accounting. `released_at`
  /// (>= 0) backdates the job's release: the cluster router delivers a
  /// migrated job after its weight transfer with the *original* release
  /// time, so the copy consumes deadline slack (and shows up in response
  /// times) instead of resetting the job's clock.
  /// `job_id_out` (non-null) receives the admitted job's id — the handle the
  /// resilience layer needs to poll (`job_in_flight`) and cancel
  /// (`revoke_job`) hedge copies.
  bool release_job(int task_id, bool report = true, Time released_at = -1,
                   std::uint64_t* job_id_out = nullptr);

  // --- per-task queries: none of them creates a record -------------------

  int task_count() const { return table_->size(); }
  const TaskSpec& spec(int id) const { return (*table_)[id].spec; }
  const dnn::CompiledModel& model(int id) const {
    return *(*table_)[id].model;
  }
  /// mret_i(t) on this device (Eq. 2): the record's cached total, or the
  /// AFET seed's sum while the device has admitted no job of the task.
  double mret_total_us(int id) const {
    const TaskSlot& s = slot(id);
    return s.record != kNoRecord ? records_[s.record].mret().total_mret_us()
                                 : table_->seed(s.seed).total_us;
  }
  /// u_i(t) = mret_i(t) / T_i on this device (Eq. 3 / Eq. 10).
  double utilization(int id) const {
    return utilization_of(spec(id), mret_total_us(id));
  }
  /// ctx_i(t) on this device; -1 before Algorithm 1 or late assignment.
  int context(int id) const { return slot(id).context; }
  /// Whether this scheduler is the task's home device. In a cluster every
  /// device can run any task (so migrated jobs can run anywhere), but the
  /// task's static HP reservation (Eq. 4 term of Eq. 11) is charged only on
  /// its home GPU; add_task makes the registering scheduler the home.
  bool resident(int id) const {
    return std::binary_search(resident_.begin(), resident_.end(), id);
  }
  /// This device's admitted-but-unfinished jobs of the task.
  int active_jobs(int id) const {
    const TaskSlot& s = slot(id);
    return s.record != kNoRecord ? records_[s.record].active_jobs : 0;
  }
  /// The task's record here, or null while this device has admitted no job
  /// of it.
  const Task* find_task(int id) const {
    const TaskSlot& s = slot(id);
    return s.record != kNoRecord ? &records_[s.record] : nullptr;
  }
  /// Records created so far, in creation order (record(i), i < records()).
  std::size_t records() const { return records_.size(); }
  const Task& record(std::size_t i) const { return records_[i]; }

  /// The task's record here, created on first use exactly as registration
  /// and seeding would have left it (MRET seeded from the pair's AFET seed,
  /// no samples, no active jobs). release_job creates it for the first job
  /// it admits; tests call it to inspect or drive a task's MRET.
  Task& task(int id);

  int num_contexts() const { return static_cast<int>(contexts_.size()); }

  /// Moves a task to a context, keeping the per-context resident-HP
  /// membership (the cached Eq. 4 aggregate) coherent. All placement
  /// changes — offline assignment, late assignment, LP migration, external
  /// pinning in tests — go through here.
  void set_task_context(int task_id, int ctx);

  /// Marks/unmarks this scheduler as the task's home device (cluster mode),
  /// with the same membership bookkeeping as set_task_context.
  void set_task_resident(int task_id, bool resident);

  /// Total HP utilisation U^{h,t}_k(t) of a context (Eq. 4), counting only
  /// resident tasks (see resident()).
  double hp_utilization(int ctx) const;

  /// Active LP utilisation U^{l,a}_k(t) (Sec. III-B3).
  double active_lp_utilization(int ctx) const;

  /// Sum of the admitted (active) HP+LP utilisation across all contexts —
  /// the load signal the cluster router balances on.
  double active_utilization() const;

  /// Cluster mode: keeps `*slot` equal to active_utilization() / divisor,
  /// written at once and again on every admit, finish, revoke and
  /// fail_all_jobs — the only changes to the active utilisation — so the
  /// fleet's placement table (cluster::Fleet::placement_score) is a plain
  /// read. Call again to move the slot or change the divisor; nullptr stops
  /// the writes. The slot is written from this device's shard.
  void publish_load(double* slot, double divisor);

  /// Remaining utilisation U^r_k(t) = Ns - U^{h,t}_k(t) (Eq. 11).
  double remaining_utilization(int ctx) const;

  /// Jobs currently admitted but unfinished.
  std::size_t jobs_in_flight() const { return jobs_.size(); }

  /// Stages sitting in the ready queues (all contexts) for one priority
  /// class — a telemetry gauge of host-side queueing pressure. Always 0 in
  /// "No Staging" mode, where admitted jobs bypass the ready queues.
  int ready_stages(common::Priority p) const {
    return ready_stages_[static_cast<std::size_t>(p)];
  }

  /// Completed-job counter (all priorities, includes warm-up).
  std::uint64_t jobs_completed() const {
    return cls_[0].completed + cls_[1].completed;
  }

  /// True while `job_id` is admitted here and unfinished (started or not).
  bool job_in_flight(std::uint64_t job_id) const {
    return jobs_.find(job_id) != jobs_.end();
  }

  /// Admitted-but-unfinished jobs of one priority class (O(in-flight) scan;
  /// end-of-run conservation accounting, not a hot path).
  std::uint64_t jobs_in_flight_of(common::Priority p) const;

  /// Per-class lifecycle counters. Every admitted job ends in exactly one of
  /// completed / failed / revoked or is still in flight, so
  ///   admitted == completed + failed + revoked + jobs_in_flight_of(p)
  /// holds at any instant — the per-device half of the fleet's
  /// job-conservation invariant (cluster::Fleet::check_conservation).
  struct ClassCounters {
    std::uint64_t admitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;    // dropped by fail_all_jobs
    std::uint64_t revoked = 0;   // moved away (steal) or cancelled (hedge)
  };
  const ClassCounters& class_counters(common::Priority p) const {
    return cls_[static_cast<std::size_t>(p)];
  }

  /// q-th percentile (0..100) of the last <=64 response times (us) of the
  /// class, or 0 when no sample has been recorded yet — the hedging
  /// trigger's latency signal. Device-local: the ring is written on the
  /// finish path (this device's shard) and read from control-shard events,
  /// which the sharded barrier orders.
  double response_percentile_us(common::Priority p, double q) const;

  /// Samples currently in the class's response ring (<= 64) — callers gate
  /// the percentile on a warm-up count.
  int response_samples(common::Priority p) const {
    const std::uint32_t n = resp_count_[static_cast<std::size_t>(p)];
    const auto cap = static_cast<std::uint32_t>(kRespRing);
    return static_cast<int>(n < cap ? n : cap);
  }

  /// Migration counter (LP jobs admitted to a context other than ctx_i).
  std::uint64_t migrations() const { return migrations_; }

  /// Test-facing audit of the cached task state; returns one line per
  /// finding, empty when everything holds:
  ///  - every record's cached Eq. 2 total equals, in every bit, the sum
  ///    recomputed from its windows and AFET seed
  ///    (MretEstimator::stage_sum_us), and its slot points back at it;
  ///  - every pair without a record reads a seed in the table whose total
  ///    equals its recomputed sum (MretEstimator::afet_sum_us);
  ///  - every slot's context is -1 or a context of this scheduler;
  ///  - each context's resident-HP membership (the Eq. 4 aggregate) lists
  ///    exactly the resident HP tasks assigned there, ascending.
  /// O(tasks x stages), so no run path calls it.
  std::vector<std::string> audit() const;

  /// Fail-stop injection (cluster::Fleet::fail_gpu): drops every in-flight
  /// job — each is reported to the collector as a *missed* finish at the
  /// failure instant, so lost work lands in the deadline-miss rate instead
  /// of vanishing — clears the ready queues and stream-busy flags, zeroes
  /// the backlog proxy, and marks the scheduler failed (all later releases
  /// are rejected). Jobs are unwound in ascending job-id order so the
  /// collector event sequence is deterministic. Pending sync wake-ups and
  /// stage callbacks for the dropped jobs no-op through the existing
  /// jobs_.find guard. Returns the number of jobs dropped.
  std::size_t fail_all_jobs();

  /// True once fail_all_jobs ran; a failed scheduler admits nothing.
  bool failed() const { return failed_; }

  // --- stage donation / claim (cluster work stealing) ---------------------
  //
  // A queued LP job whose first stage has not yet been handed to a stream is
  // *donatable*: it holds no GPU-side state, so a peer scheduler can claim
  // it by re-releasing the task with the job's original release time and the
  // victim revoking its copy. cluster::Rebalancer drives this; both halves
  // run inside one simulator callback, so the steal schedule inherits the
  // (when, seq) determinism contract.

  /// Snapshot of one donatable job (identity + the deadline the thief must
  /// still be able to meet).
  struct StealableJob {
    std::uint64_t job_id = 0;
    int task_id = -1;
    Time release = 0;
    Time absolute_deadline = 0;
  };

  /// Admitted LP jobs still waiting for their first stage to start, in
  /// ascending job-id order (deterministic scan order for thieves). Empty in
  /// "No Staging" mode, where admission dispatches eagerly.
  std::vector<StealableJob> donatable_lp_jobs() const;

  /// True while `job_id` is admitted here and still donatable.
  bool job_stealable(std::uint64_t job_id) const;

  /// Revokes a donatable job: unwinds the admission accounting (the same
  /// utilisation unwind as a finish, with no finish event — the job is not
  /// done, it moved), removes its ready-queue entry, and erases it. The
  /// caller must have re-released the job elsewhere first; a started or
  /// unknown job is refused. Returns true when the job was revoked.
  bool revoke_job(std::uint64_t job_id);

  /// Device index stamped into job/stage events (cluster runs; default -1).
  void set_device_id(int id) { device_id_ = id; }

 private:
  struct ContextRec {
    gpusim::ContextId gpu_ctx = -1;
    std::vector<gpusim::StreamId> streams;
    std::vector<bool> stream_busy;
    StageQueue ready;
    /// Resident HP task ids assigned here, ascending — the membership behind
    /// hp_utilization(). Kept sorted so the on-demand fold visits tasks in
    /// exactly the order the historical all-task scan did (id order), which
    /// keeps the Eq. 4 sum bit-identical while costing O(members) instead of
    /// O(all tasks) per admission test. A running double would drift (MRET
    /// updates move each member's utilisation every stage completion) and
    /// change admission decisions at the boundary.
    std::vector<int> resident_hp;
    double active_lp_util = 0.0;
    double active_hp_util = 0.0;  // used by the Overload+HPA admission test
    /// Active utilisation of non-resident HP jobs (cluster mode: HP work
    /// migrated in from peers). Invisible to the static Eq. 4 reservation,
    /// so the LP admission test must charge it explicitly; always 0 in
    /// single-GPU runs.
    double migrated_hp_util = 0.0;
    double outstanding_work_us = 0.0;  // predicted-finish proxy
  };

  /// The one entry to the active set: charges the job's utilisation to its
  /// context's running sums (Eq. 12), counts it active and stores it.
  void admit(Task& task, int ctx, Job job);
  /// The one exit, shared by finish, revoke and failure: undoes admit's
  /// utilisation charge and active count, and rewrites the load slot.
  void leave_active(const Job& job);
  /// Rewrites the publish_load slot, if any, after an active-set change.
  void refresh_load() {
    if (load_slot_ != nullptr) {
      *load_slot_ = active_utilization() / load_divisor_;
    }
  }
  /// Moves one of the task's jobs into (+1) or out of (-1) the active set:
  /// Task::active_jobs and the shared count TaskTable::active.
  static void count_active(Task& t, int delta);
  bool passes_admission(Priority p, int ctx, double util) const;
  /// Membership maintenance around a placement-field change: call remove
  /// before mutating the task's context/resident, add after.
  void hp_member_remove(int task_id);
  void hp_member_add(int task_id);
  /// Predicted completion of the context's backlog (migration tie-break).
  double predicted_backlog_us(int ctx) const;

  void enqueue_stage(Job* job, std::size_t stage, bool prev_missed);
  /// "No Staging" path: whole job straight into a stream FIFO at release.
  void dispatch_eager(int ctx, Job* job);
  void try_dispatch(int ctx);
  void dispatch(int ctx, int stream_idx, const ReadyStage& ready);
  void on_stage_complete(int ctx, int stream_idx, std::uint64_t job_id,
                         std::size_t stage, Time dispatch_time,
                         double mret_at_dispatch, bool frees_stream);
  void finish_job(const Job& job);

  static constexpr std::uint32_t kNoRecord = 0xFFFFFFFFu;
  /// What this scheduler keeps per task before (and besides) a record.
  struct TaskSlot {
    std::uint32_t record = kNoRecord;          // index into records_
    std::int16_t context = -1;                 // ctx_i(t)
    std::uint16_t seed = TaskTable::kNoSeed;  // TaskTable seed it reads
  };
  // A fleet holds one slot per (task, device) pair: fleet-256-poisson has
  // 2,097,152 of them, so each byte of a slot costs 2 MB there, and the
  // slot replaced a 104-byte rt::Task per pair. A new member must pay for
  // itself there.
  static_assert(sizeof(TaskSlot) <= 8,
                "TaskSlot grew: each byte costs 2 MB in a 256-GPU fleet");

  /// A slot for reading: tasks the table gained since this scheduler last
  /// wrote a slot read as a fresh one (no record, no context, no seed).
  const TaskSlot& slot(int id) const {
    const auto i = static_cast<std::size_t>(id);
    return i < slots_.size() ? slots_[i] : kFreshSlot;
  }
  /// A slot for writing; first catches the slots up with the table.
  TaskSlot& slot_mut(int id) {
    const auto i = static_cast<std::size_t>(id);
    if (i >= slots_.size()) {
      slots_.resize(static_cast<std::size_t>(table_->size()));
    }
    return slots_[i];
  }
  static const TaskSlot kFreshSlot;

  sim::Simulator& sim_;
  gpusim::Gpu& gpu_;
  SchedulerConfig config_;
  metrics::Collector* collector_;

  /// The table this scheduler owns when it has no fleet to share one with.
  std::unique_ptr<TaskTable> own_table_;
  TaskTable* table_;
  /// One slot per task of the table, grown on write (slot_mut).
  std::vector<TaskSlot> slots_;
  /// Ids of the tasks homed here (resident()), ascending: a fleet homes a
  /// few of its tasks on each device.
  std::vector<int> resident_;
  /// Records in creation order; a deque never moves one as it grows, so
  /// Job::task stays valid.
  std::deque<Task> records_;
  double* load_slot_ = nullptr;  // publish_load
  double load_divisor_ = 1.0;
  std::vector<ContextRec> contexts_;
  /// Admitted, unfinished jobs by id. Ids ascend with admission, so every
  /// scan runs in admission order; a node never moves, so ReadyStage::job
  /// stays valid.
  std::map<std::uint64_t, Job> jobs_;
  std::uint64_t next_job_id_ = 1;
  std::uint64_t migrations_ = 0;
  ClassCounters cls_[2];
  // Rolling response-time ring per class (response_percentile_us).
  static constexpr int kRespRing = 64;
  double resp_ring_[2][kRespRing] = {};
  std::uint32_t resp_count_[2] = {0, 0};
  int ready_stages_[2] = {0, 0};  // queued ready stages per priority class
  int device_id_ = -1;
  bool failed_ = false;
};

}  // namespace daris::rt
