// Task and job model (Sec. III-A).
//
// A task tau_i(T_i, D_i, mret_i(t), p_i, ctx_i(t)) is a periodic DNN with
// n_i sequential stages. A job is one release of the task; each job walks
// the task's stages in order, with per-stage virtual deadlines (Eq. 8)
// frozen at admission time.
#pragma once

#include <atomic>
#include <cstdint>
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

class Task;

/// One release of a task.
struct Job {
  Task* task = nullptr;
  std::uint64_t job_id = 0;
  Time release = 0;
  Time absolute_deadline = 0;
  /// Absolute virtual deadline per stage, frozen at admission (Eq. 8).
  std::vector<Time> stage_deadlines;
  std::size_t next_stage = 0;
  /// Virtual-deadline miss of the previous stage (drives priority boost).
  bool prev_stage_missed = false;
  /// Set when the job's first stage is handed to a stream. A started job has
  /// GPU-side state and can no longer be donated to a peer scheduler
  /// (Scheduler::donatable_lp_jobs / revoke_job).
  bool started = false;
  /// Utilisation u_i(t) charged by the admission test while active.
  double admitted_utilization = 0.0;
  int context = -1;
};

class Task {
  // Data first, widest first, so the public active_jobs count packs into the
  // tail: a fleet holds one Task per (task, device) pair.
  friend class Scheduler;  // placement fields feed its cached aggregates

  TaskSpec spec_;
  const dnn::CompiledModel* model_;
  MretEstimator mret_;
  std::atomic<int>* fleet_active_;
  int id_;
  int context_ = -1;
  bool resident_ = true;

 public:
  /// `fleet_active` (cluster mode, may be null) is the logical task's
  /// fleet-wide active-job count, shared by its Task on every device; see
  /// Scheduler::add_task.
  Task(int id, TaskSpec spec, const dnn::CompiledModel* model,
       std::size_t mret_window, std::atomic<int>* fleet_active)
      : spec_(spec),
        model_(model),
        mret_(model->stage_count(), mret_window),
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
    return mret_.total_mret_us() /
           common::to_us(spec_.period > 0 ? spec_.period : 1);
  }

  /// Current context assignment ctx_i(t). Mutations go through
  /// Scheduler::set_task_context so the scheduler's per-context resident-HP
  /// membership (the Eq. 4 aggregate) stays coherent.
  int context() const { return context_; }

  /// Whether this scheduler is the task's home device. In a cluster the task
  /// is registered on every GPU (so migrated jobs can run anywhere) but its
  /// static HP reservation (Eq. 4 term of Eq. 11) is charged only on the home
  /// GPU; single-GPU runs leave this true everywhere. Mutations go through
  /// Scheduler::set_task_resident (membership coherence, as above).
  bool resident() const { return resident_; }

  /// Number of this task's jobs currently admitted but unfinished on this
  /// scheduler (the fleet-wide sum is cluster::Fleet::active_jobs).
  int active_jobs = 0;
};

}  // namespace daris::rt
