// Task and job model (Sec. III-A).
//
// A task tau_i(T_i, D_i, mret_i(t), p_i, ctx_i(t)) is a periodic DNN with
// n_i sequential stages. A job is one release of the task; each job walks
// the task's stages in order, with per-stage virtual deadlines (Eq. 8)
// frozen at admission time.
//
// What a task is (T_i, D_i, p_i, its model) is registered once, in a
// TaskTable every device of a fleet shares. What a device has learned about
// it (its MRET windows, mret_i(t)) lives in a per-device rt::Task record,
// which a scheduler creates on the first job of the task it admits: most
// (task, device) pairs of a large fleet never run a job, and until one does
// the pair's MRET is its AFET seed (rt::Scheduler keeps the rest, ctx_i(t)
// and which seed the pair reads, in an 8-byte slot).
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <deque>
#include <stdexcept>
#include <vector>

#include "common/priority.h"
#include "common/time.h"
#include "daris/mret.h"
#include "dnn/model.h"
#include "dnn/zoo.h"

namespace daris::rt {

using common::Duration;
using common::Priority;
using common::Time;

struct TaskSpec {
  dnn::ModelKind model = dnn::ModelKind::kResNet18;
  Duration period = 0;             // T_i
  Duration relative_deadline = 0;  // D_i (= T_i in the paper)
  Priority priority = Priority::kHigh;
  /// Release phase offset in [0, T_i); staggers periodic task sets.
  Duration phase = 0;
};

/// Utilisation u_i(t) = mret_i(t) / T_i (Eq. 3 / Eq. 10) of a task whose
/// Eq. 2 total is `mret_total_us`.
inline double utilization_of(const TaskSpec& spec, double mret_total_us) {
  return mret_total_us / common::to_us(spec.period > 0 ? spec.period : 1);
}

class Task;

/// One release of a task.
struct Job {
  Task* task = nullptr;
  std::uint64_t job_id = 0;
  Time release = 0;
  Time absolute_deadline = 0;
  /// Absolute virtual deadline per stage, frozen at admission (Eq. 8).
  std::vector<Time> stage_deadlines;
  /// Set when the job's first stage is handed to a stream. A started job has
  /// GPU-side state and can no longer be donated to a peer scheduler
  /// (Scheduler::donatable_lp_jobs / revoke_job).
  bool started = false;
  /// Utilisation u_i(t) charged by the admission test while active.
  double admitted_utilization = 0.0;
  int context = -1;
};

/// One logical task, as every device sees it.
struct TaskInfo {
  TaskSpec spec;
  const dnn::CompiledModel* model = nullptr;
};

/// An interned per-stage AFET vector (Eq. 10) and its Eq. 2 sum.
struct AfetSeed {
  std::vector<double> per_stage_us;
  /// MretEstimator::afet_sum_us of the vector: what total_mret_us() reads
  /// on an estimator seeded with it that has recorded nothing.
  double total_us = 0.0;
};

/// The tasks one scheduler, or every scheduler of a fleet, runs: one
/// TaskInfo and one active-job count per logical task, and one copy of each
/// distinct AFET vector the schedulers were seeded with. The TaskInfo
/// entries are contiguous, so a per-device pass over every task (Algorithm
/// 1, seeding) streams through them; the counts and seeds never move, so a
/// Task record and an MRET estimator point into them. Grows only on the
/// calling thread (setup, or a control-phase event), never on a lane: lanes
/// only read it, and intern() writes its per-task hint even when it finds
/// the vector.
class TaskTable {
 public:
  /// Seed id of "no AFET profile yet": an empty vector reading as zeros.
  static constexpr std::uint16_t kNoSeed = 0;
  /// Seed ids fit 16 bits (the scheduler keeps one per (task, device)).
  static constexpr std::size_t kMaxSeeds = std::size_t{1} << 16;

  TaskTable() { seeds_.emplace_back(); }

  TaskTable(const TaskTable&) = delete;
  TaskTable& operator=(const TaskTable&) = delete;

  /// Registers a task; the compiled model must outlive the table. Returns
  /// its id, the index of its entry.
  int add(const TaskSpec& spec, const dnn::CompiledModel* model) {
    tasks_.push_back({spec, model});
    active_.emplace_back(0);
    last_seed_.push_back(kNoSeed);
    return static_cast<int>(tasks_.size()) - 1;
  }

  int size() const { return static_cast<int>(tasks_.size()); }
  const TaskInfo& operator[](int id) const {
    return tasks_[static_cast<std::size_t>(id)];
  }

  /// Admitted-but-unfinished jobs of the task on every device that shares
  /// the table (cluster::Fleet::active_jobs). Each device's scheduler adds
  /// one per admit and subtracts one per finish, revoke and failure; those
  /// run on the device's shard, concurrently with other devices', so the
  /// count is a relaxed atomic, read in the serial control phase.
  std::atomic<int>& active(int id) {
    return active_[static_cast<std::size_t>(id)];
  }
  const std::atomic<int>& active(int id) const {
    return active_[static_cast<std::size_t>(id)];
  }

  /// The seed id of `per_stage_us` (compared bit for bit), added to the
  /// pool when new; throws std::length_error past kMaxSeeds. The task's
  /// previous seed is tried first, so seeding one task on every device of
  /// a fleet searches the pool (a few profiles: one per model and device
  /// spec) once.
  std::uint16_t intern(int task_id, const std::vector<double>& per_stage_us) {
    std::uint16_t& last = last_seed_[static_cast<std::size_t>(task_id)];
    if (last != kNoSeed && same_bits(seeds_[last].per_stage_us, per_stage_us)) {
      return last;
    }
    std::size_t id = 1;
    while (id < seeds_.size() &&
           !same_bits(seeds_[id].per_stage_us, per_stage_us)) {
      ++id;
    }
    if (id == seeds_.size()) {
      if (id == kMaxSeeds) {
        throw std::length_error("rt::TaskTable: more than 65535 AFET seeds");
      }
      AfetSeed& seed = seeds_.emplace_back();
      seed.per_stage_us = per_stage_us;
      seed.total_us = MretEstimator::afet_sum_us(per_stage_us.data(),
                                                 per_stage_us.size());
    }
    last = static_cast<std::uint16_t>(id);
    return last;
  }

  const AfetSeed& seed(std::uint16_t id) const { return seeds_[id]; }
  std::size_t seed_count() const { return seeds_.size(); }

 private:
  /// Exact identity of two non-empty AFET vectors, whatever they hold.
  static bool same_bits(const std::vector<double>& a,
                        const std::vector<double>& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
  }

  std::vector<TaskInfo> tasks_;
  /// A deque: a count never moves (a Task record points at it).
  std::deque<std::atomic<int>> active_;
  /// Per task, the seed its last intern() returned.
  std::vector<std::uint16_t> last_seed_;
  std::deque<AfetSeed> seeds_;
};

/// What one device keeps about one task once it has admitted a job of it:
/// the MRET windows (Eqs. 1-2) and the active-job count, beside a copy of
/// the task's spec, so the job paths read one object. Created by
/// rt::Scheduler::task, seeded from the pair's AFET seed, and never moved
/// afterwards (Job::task points at it).
class Task {
  friend class Scheduler;  // counts the task's jobs in fleet_active_ too

  TaskSpec spec_;
  const dnn::CompiledModel* model_;
  MretEstimator mret_;
  std::atomic<int>* fleet_active_;
  int id_;

 public:
  Task(int id, const TaskInfo& info, std::size_t mret_window,
       std::atomic<int>* fleet_active)
      : spec_(info.spec),
        model_(info.model),
        mret_(info.model->stage_count(), mret_window),
        fleet_active_(fleet_active),
        id_(id) {}

  int id() const { return id_; }
  const TaskSpec& spec() const { return spec_; }
  const dnn::CompiledModel& model() const { return *model_; }
  std::size_t num_stages() const { return model_->stage_count(); }

  MretEstimator& mret() { return mret_; }
  const MretEstimator& mret() const { return mret_; }

  /// Utilisation u_i(t) = mret_i(t) / T_i (Eq. 3 / Eq. 10).
  double utilization() const {
    return utilization_of(spec(), mret_.total_mret_us());
  }

  /// Number of this task's jobs currently admitted but unfinished on this
  /// scheduler (the fleet-wide sum is TaskTable::active).
  int active_jobs = 0;
};

// A fleet holds one record per (task, device) pair that admitted a job:
// fleet-256-poisson creates 52,639 of them, so each byte of a record costs
// about 53 kB there, besides its MRET block. A new member must pay for
// itself there.
static_assert(sizeof(Task) <= 96,
              "rt::Task grew: each byte costs ~53 kB in a 256-GPU fleet");

}  // namespace daris::rt
