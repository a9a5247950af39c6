// Online-phase behaviour of the DARIS scheduler: staging, priorities,
// migration, stream holding, and the ablation switches.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "dnn/calibration.h"
#include "scheduler_harness.h"
#include "workload/driver.h"
#include "workload/taskset.h"

namespace daris::rt {
namespace {

using common::from_ms;
using common::from_sec;

SchedulerConfig mps_config(int contexts, double os) {
  SchedulerConfig c;
  c.policy = Policy::kMps;
  c.num_contexts = contexts;
  c.oversubscription = os;
  return c;
}

TEST(Scheduler, SingleJobRunsToCompletion) {
  Harness h(mps_config(2, 2.0));
  const int id = h.add_task(Priority::kHigh, 50.0);
  h.sched->run_offline_phase();
  h.sched->release_job(id);
  h.sim.run();
  EXPECT_EQ(h.sched->jobs_completed(), 1u);
  EXPECT_EQ(h.collector.summary(Priority::kHigh).completed, 1u);
  EXPECT_EQ(h.collector.summary(Priority::kHigh).missed, 0u);
  EXPECT_EQ(h.sched->jobs_in_flight(), 0u);
}

TEST(Scheduler, TasksAddedWhileJobsAreInFlightLeaveThoseJobsIntact) {
  // Jobs reach their task through the scheduler's task storage; growing it
  // past several storage blocks mid-run must not move a task under a job.
  Harness h(mps_config(2, 2.0));
  const int hp = h.add_task(Priority::kHigh, 50.0);
  const int lp = h.add_task(Priority::kLow, 50.0);
  h.sched->run_offline_phase();
  ASSERT_TRUE(h.sched->release_job(hp));
  ASSERT_TRUE(h.sched->release_job(lp));
  h.sim.run_until(h.sim.now() + common::from_us(300.0));  // mid-stage
  ASSERT_EQ(h.sched->jobs_in_flight(), 2u);
  for (int i = 0; i < 600; ++i) h.add_task(Priority::kLow, 50.0);
  h.sim.run();
  EXPECT_EQ(h.sched->jobs_completed(), 2u);
  EXPECT_EQ(h.sched->active_jobs(hp), 0);
  EXPECT_EQ(h.sched->active_jobs(lp), 0);
  EXPECT_EQ(h.sched->task_count(), 602);
}

TEST(Scheduler, AuditChecksTasksThatNeverRan) {
  // A task that never ran here has no record, only its slot; the audit
  // still checks the slot's context and seed and the resident-HP membership
  // the slots imply.
  Harness h(mps_config(2, 2.0));
  const int hp = h.add_task(Priority::kHigh, 50.0);
  const int lp = h.add_task(Priority::kLow, 50.0);
  h.sched->run_offline_phase();
  EXPECT_EQ(h.sched->records(), 0u);
  EXPECT_TRUE(h.sched->audit().empty());
  h.sched->set_task_context(hp, 1 - h.sched->context(hp));  // membership moves
  EXPECT_TRUE(h.sched->audit().empty());

  h.sched->set_task_context(lp, 7);  // no such context on this scheduler
  const std::vector<std::string> findings = h.sched->audit();
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].find("task 1: context 7 outside [-1, 2)"),
            std::string::npos)
      << findings[0];
  EXPECT_EQ(h.sched->records(), 0u);  // auditing created nothing
}

TEST(Scheduler, JobScansFollowAdmissionOrder) {
  // One context with one stream: the first job starts and the others queue
  // behind it with ascending ids. The steal scan and the failure unwind
  // both walk the job table; each must visit jobs in ascending id order.
  Harness h(mps_config(1, 1.0));
  std::vector<int> tasks;
  for (int i = 0; i < 5; ++i) {
    tasks.push_back(h.add_task(Priority::kLow, 100.0));
  }
  h.sched->run_offline_phase();
  std::vector<std::uint64_t> ids(tasks.size(), 0);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    h.sim.schedule_at(common::from_us(10.0 * static_cast<double>(i)),
                      [&h, &tasks, &ids, i] {
                        EXPECT_TRUE(h.sched->release_job(tasks[i], true, -1,
                                                         &ids[i]));
                      });
  }
  h.sim.run_until(common::from_us(100.0));  // job 0's first stage runs
  ASSERT_TRUE(std::is_sorted(ids.begin(), ids.end()));
  ASSERT_EQ(h.sched->jobs_in_flight(), 5u);
  EXPECT_FALSE(h.sched->job_stealable(ids[0]));
  ASSERT_TRUE(h.sched->revoke_job(ids[2]));

  const auto queued = h.sched->donatable_lp_jobs();
  ASSERT_EQ(queued.size(), 3u);
  EXPECT_EQ(queued[0].job_id, ids[1]);
  EXPECT_EQ(queued[1].job_id, ids[3]);
  EXPECT_EQ(queued[2].job_id, ids[4]);
  EXPECT_EQ(queued[1].task_id, tasks[3]);

  const Time now = h.sim.now();
  const std::size_t in_flight = h.sched->jobs_in_flight();
  EXPECT_EQ(h.sched->fail_all_jobs(), in_flight);
  EXPECT_EQ(h.sched->jobs_in_flight(), 0u);
  // Each dropped job is reported as a finish at the failure instant, in
  // the order the unwind visits it. Read before any percentile query,
  // which sorts the samples.
  std::vector<double> expected;
  for (const double i : {0.0, 1.0, 3.0, 4.0}) {
    expected.push_back(common::to_ms(now - common::from_us(10.0 * i)));
  }
  EXPECT_EQ(h.collector.summary(Priority::kLow).response_ms.samples(),
            expected);
  h.sim.run();  // the running stage's callback finds its job gone
  EXPECT_EQ(h.sched->jobs_completed(), 0u);
}

TEST(Scheduler, PeriodicTaskCompletesEveryPeriod) {
  Harness h(mps_config(2, 2.0));
  const int id = h.add_task(Priority::kHigh, 20.0);
  h.sched->run_offline_phase();
  workload::PeriodicDriver driver(h.sim, *h.sched, from_ms(99.0));
  (void)id;
  driver.start();
  h.sim.run();
  EXPECT_EQ(h.sched->jobs_completed(), 5u);  // releases at 0,20,...,80
}

TEST(Scheduler, ResponseTimeMatchesAnalyticWhenAlone) {
  Harness h(mps_config(1, 1.0));
  const int id = h.add_task(Priority::kHigh, 100.0);
  h.sched->run_offline_phase();
  h.sched->release_job(id);
  h.sim.run();
  const double resp_ms =
      h.collector.summary(Priority::kHigh).response_ms.max();
  // Response = exec + (n_stages - 1) host syncs at stage boundaries.
  const double expected_ms =
      dnn::analytic_sequential_latency_us(*h.model, h.spec) / 1e3 +
      (h.model->stage_count() - 1) * h.spec.sync_overhead_us / 1e3;
  EXPECT_NEAR(resp_ms, expected_ms, 0.10);
}

TEST(Scheduler, HpStagePreemptsQueuedLpAtBoundary) {
  // One context, one stream. A long LP job is running; an HP job released
  // mid-flight must be served at the next stage boundary, ahead of the LP
  // job's remaining stages.
  Harness h(mps_config(1, 1.0));
  const int lp = h.add_task(Priority::kLow, 100.0);
  const int hp = h.add_task(Priority::kHigh, 100.0);
  h.sched->run_offline_phase();
  h.sched->release_job(lp);
  h.sim.schedule_at(from_ms(0.2), [&] { h.sched->release_job(hp); });
  h.sim.run();
  const double hp_resp = h.collector.summary(Priority::kHigh).response_ms.max();
  const double lp_resp = h.collector.summary(Priority::kLow).response_ms.max();
  EXPECT_LT(hp_resp, lp_resp);
}

TEST(Scheduler, NoStagingRunsJobsAsUnits) {
  SchedulerConfig cfg = mps_config(1, 1.0);
  cfg.staging = false;
  Harness h(cfg);
  const int lp = h.add_task(Priority::kLow, 100.0);
  const int hp = h.add_task(Priority::kHigh, 100.0);
  h.sched->run_offline_phase();
  h.sched->release_job(lp);
  h.sim.schedule_at(from_ms(0.2), [&] { h.sched->release_job(hp); });
  h.sim.run();
  // Without staging the HP job waits for the LP job's full execution:
  // response ~ LP remaining + HP exec, i.e. roughly double the staged case.
  const double hp_resp = h.collector.summary(Priority::kHigh).response_ms.max();
  EXPECT_GT(hp_resp, 2.5);  // full LP job (~1.6ms) + own exec (~1.6ms)
  EXPECT_EQ(h.sched->jobs_completed(), 2u);
}

TEST(Scheduler, MigrationMovesLpToFreeContext) {
  // Two contexts; context of the LP task is saturated by an HP task with
  // huge utilisation, so the LP job must migrate.
  Harness h(mps_config(2, 2.0));
  const int hp = h.add_task(Priority::kHigh, 10.0, 2400.0);  // u ~ 0.96
  const int lp = h.add_task(Priority::kLow, 10.0, 500.0);
  h.sched->run_offline_phase();
  // Force both onto context 0 to create the conflict.
  h.sched->set_task_context(hp, 0);
  h.sched->set_task_context(lp, 0);
  h.sched->release_job(lp);
  h.sim.run();
  EXPECT_EQ(h.sched->migrations(), 1u);
  EXPECT_EQ(h.sched->context(lp), 1);
  EXPECT_EQ(h.collector.summary(Priority::kLow).completed, 1u);
}

TEST(Scheduler, LpRejectedWhenNoContextPasses) {
  Harness h(mps_config(2, 2.0));
  // Both contexts saturated by HP reservations.
  const int hp0 = h.add_task(Priority::kHigh, 10.0, 2500.0);
  const int hp1 = h.add_task(Priority::kHigh, 10.0, 2500.0);
  const int lp = h.add_task(Priority::kLow, 10.0, 500.0);
  (void)hp0;
  (void)hp1;
  h.sched->run_offline_phase();
  h.sched->release_job(lp);
  h.sim.run();
  EXPECT_EQ(h.collector.summary(Priority::kLow).rejected, 1u);
  EXPECT_EQ(h.collector.summary(Priority::kLow).completed, 0u);
}

TEST(Scheduler, HpBypassesAdmissionByDefault) {
  Harness h(mps_config(1, 1.0));
  // Two HP tasks sum to utilisation > 1; both still admitted.
  const int a = h.add_task(Priority::kHigh, 10.0, 2000.0);
  const int b = h.add_task(Priority::kHigh, 10.0, 2000.0);
  h.sched->run_offline_phase();
  h.sched->release_job(a);
  h.sched->release_job(b);
  h.sim.run();
  EXPECT_EQ(h.collector.summary(Priority::kHigh).completed, 2u);
  EXPECT_EQ(h.collector.summary(Priority::kHigh).rejected, 0u);
}

TEST(Scheduler, HpaShedsExcessHpJobs) {
  SchedulerConfig cfg = mps_config(1, 1.0);
  cfg.hp_admission = true;
  Harness h(cfg);
  std::vector<int> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(h.add_task(Priority::kHigh, 10.0, 1200.0));  // u ~ 0.48
  }
  h.sched->run_offline_phase();
  for (int id : ids) h.sched->release_job(id);
  h.sim.run();
  const auto& hp = h.collector.summary(Priority::kHigh);
  EXPECT_GT(hp.rejected, 0u);  // at least one shed
  EXPECT_GT(hp.completed, 0u);
  EXPECT_EQ(hp.missed, 0u);  // the admitted ones meet their deadlines
}

TEST(Scheduler, BacklogGuardShedsBurst) {
  SchedulerConfig cfg = mps_config(1, 1.0);
  Harness h(cfg);
  const int id = h.add_task(Priority::kHigh, 100.0);
  h.sched->run_offline_phase();
  for (int i = 0; i < 5; ++i) h.sched->release_job(id);
  h.sim.run();
  const auto& hp = h.collector.summary(Priority::kHigh);
  EXPECT_EQ(hp.completed, 2u);
  EXPECT_EQ(hp.rejected, 3u);
}

TEST(Scheduler, DeadlineMissDetected) {
  Harness h(mps_config(1, 1.0));
  // Period/deadline of 1 ms against ~1.6 ms execution: must miss.
  const int id = h.add_task(Priority::kHigh, 1.0);
  h.sched->run_offline_phase();
  h.sched->release_job(id);
  h.sim.run();
  EXPECT_EQ(h.collector.summary(Priority::kHigh).missed, 1u);
}

TEST(Scheduler, StageEventsCarryTheTaskClass) {
  Harness h(mps_config(1, 1.0));
  h.collector.enable_stage_trace(true);
  const int lp = h.add_task(Priority::kLow, 50.0);
  h.sched->run_offline_phase();
  h.sched->release_job(lp);
  h.sim.run();
  ASSERT_EQ(h.collector.stage_trace().size(), h.model->stage_count());
  for (const auto& ev : h.collector.stage_trace()) {
    EXPECT_EQ(ev.priority, Priority::kLow);
    EXPECT_FALSE(ev.missed);  // 50 ms of slack for ~1.6 ms of work
  }
}

TEST(Scheduler, StageEventsFlagVirtualDeadlineMisses) {
  Harness h(mps_config(1, 1.0));
  h.collector.enable_stage_trace(true);
  // Period/deadline of 1 ms against ~1.6 ms execution: stages run late.
  const int hp = h.add_task(Priority::kHigh, 1.0);
  h.sched->run_offline_phase();
  h.sched->release_job(hp);
  h.sim.run();
  bool any_missed = false;
  for (const auto& ev : h.collector.stage_trace()) {
    EXPECT_EQ(ev.priority, Priority::kHigh);
    any_missed = any_missed || ev.missed;
  }
  EXPECT_TRUE(any_missed);
  EXPECT_TRUE(h.collector.stage_trace().back().missed);  // the job is late
}

TEST(Scheduler, StageEventsRecordedForMret) {
  Harness h(mps_config(1, 1.0));
  h.collector.enable_stage_trace(true);
  const int id = h.add_task(Priority::kHigh, 50.0);
  h.sched->run_offline_phase();
  h.sched->release_job(id);
  h.sim.run();
  ASSERT_EQ(h.collector.stage_trace().size(), h.model->stage_count());
  for (const auto& ev : h.collector.stage_trace()) {
    EXPECT_GT(ev.execution_us, 0.0);
    EXPECT_GT(ev.mret_us, 0.0);  // AFET seed was in force
  }
  // MRET updated from the measured execution times.
  const auto& mret = h.sched->task(id).mret();
  EXPECT_EQ(mret.observations(0), 1u);
}

TEST(Scheduler, MultiStreamContextRunsJobsConcurrently) {
  SchedulerConfig cfg;
  cfg.policy = Policy::kStr;
  cfg.streams_per_context = 2;
  Harness h(cfg);
  const int a = h.add_task(Priority::kLow, 100.0);
  const int b = h.add_task(Priority::kLow, 100.0);
  h.sched->run_offline_phase();
  h.sched->release_job(a);
  h.sched->release_job(b);
  h.sim.run();
  // Two concurrent jobs sharing the device finish well before 2x the
  // serialised latency.
  const double max_resp = h.collector.summary(Priority::kLow).response_ms.max();
  const double serial_ms =
      2.0 * dnn::analytic_sequential_latency_us(*h.model, h.spec) / 1e3;
  EXPECT_LT(max_resp, serial_ms * 0.95);
}

TEST(Scheduler, UtilizationAccountingReturnsToZero) {
  Harness h(mps_config(2, 2.0));
  const int lp = h.add_task(Priority::kLow, 50.0);
  h.sched->run_offline_phase();
  h.sched->release_job(lp);
  EXPECT_GT(h.sched->active_lp_utilization(h.sched->context(lp)), 0.0);
  h.sim.run();
  for (int c = 0; c < 2; ++c) {
    EXPECT_DOUBLE_EQ(h.sched->active_lp_utilization(c), 0.0);
  }
}

TEST(Scheduler, RemainingUtilizationReflectsHpReservation) {
  Harness h(mps_config(1, 1.0));
  h.add_task(Priority::kHigh, 10.0, 1000.0);  // u = 0.4
  h.sched->run_offline_phase();
  EXPECT_NEAR(h.sched->remaining_utilization(0), 1.0 - 0.4, 1e-9);
}

}  // namespace
}  // namespace daris::rt
