// The utilisation-based admission test (Eq. 11-12) in isolation.
#include <gtest/gtest.h>

#include "scheduler_harness.h"

namespace daris::rt {
namespace {

// Admission cases state a task's total AFET and pin its context.
struct AdmissionHarness : Harness {
  using Harness::Harness;

  int add(Priority p, double period_ms, double total_afet_us, int ctx) {
    const int id =
        add_task(p, period_ms, total_afet_us / model->stage_count());
    sched->set_task_context(id, ctx);
    return id;
  }
};

SchedulerConfig cfg_mps(int nc, int ns = 1) {
  SchedulerConfig c;
  c.policy = ns > 1 ? Policy::kMpsStr : Policy::kMps;
  c.num_contexts = nc;
  c.streams_per_context = ns;
  c.oversubscription = nc;
  return c;
}

TEST(Admission, Equation11RemainingUtilization) {
  AdmissionHarness h(cfg_mps(1));
  h.add(Priority::kHigh, 10.0, 3000.0, 0);  // u = 0.3
  h.add(Priority::kHigh, 10.0, 2000.0, 0);  // u = 0.2
  EXPECT_NEAR(h.sched->remaining_utilization(0), 1.0 - 0.5, 1e-9);
}

TEST(Admission, MultiStreamCapacityIsNs) {
  AdmissionHarness h(cfg_mps(1, 3));
  h.add(Priority::kHigh, 10.0, 5000.0, 0);  // u = 0.5
  // U^r = Ns - U^h = 3 - 0.5.
  EXPECT_NEAR(h.sched->remaining_utilization(0), 2.5, 1e-9);
}

TEST(Admission, LpAdmittedWithinRemainingUtilization) {
  AdmissionHarness h(cfg_mps(1));
  h.add(Priority::kHigh, 10.0, 4000.0, 0);           // reserves 0.4
  const int lp = h.add(Priority::kLow, 10.0, 3000.0, 0);  // u = 0.3 < 0.6
  h.sched->release_job(lp);
  EXPECT_EQ(h.collector.summary(Priority::kLow).rejected, 0u);
  EXPECT_NEAR(h.sched->active_lp_utilization(0), 0.3, 1e-9);
  h.sim.run();
}

TEST(Admission, LpRejectedBeyondRemainingUtilization) {
  AdmissionHarness h(cfg_mps(1));
  h.add(Priority::kHigh, 10.0, 8000.0, 0);                  // reserves 0.8
  const int lp = h.add(Priority::kLow, 10.0, 3000.0, 0);    // 0.3 > 0.2
  h.sched->release_job(lp);
  EXPECT_EQ(h.collector.summary(Priority::kLow).rejected, 1u);
  h.sim.run();
}

TEST(Admission, StrictInequalityAtExactBoundary) {
  AdmissionHarness h(cfg_mps(1));
  h.add(Priority::kHigh, 10.0, 5000.0, 0);                // 0.5 reserved
  const int lp = h.add(Priority::kLow, 10.0, 5000.0, 0);  // 0.5 !< 0.5
  h.sched->release_job(lp);
  EXPECT_EQ(h.collector.summary(Priority::kLow).rejected, 1u);
  h.sim.run();
}

TEST(Admission, ActiveLpUtilizationCountsOnlyUnfinishedJobs) {
  AdmissionHarness h(cfg_mps(1));
  const int lp = h.add(Priority::kLow, 50.0, 2000.0, 0);
  h.sched->release_job(lp);
  EXPECT_GT(h.sched->active_lp_utilization(0), 0.0);
  h.sim.run();  // job finishes
  EXPECT_DOUBLE_EQ(h.sched->active_lp_utilization(0), 0.0);
  // A later release is admitted again.
  h.sched->release_job(lp);
  h.sim.run();
  EXPECT_EQ(h.collector.summary(Priority::kLow).completed, 2u);
}

TEST(Admission, MigrationPrefersLeastBackloggedContext) {
  AdmissionHarness h(cfg_mps(3));
  h.add(Priority::kHigh, 10.0, 9900.0, 0);  // home context full
  // Context 1 busy with an admitted LP job; context 2 idle.
  const int filler = h.add(Priority::kLow, 100.0, 3000.0, 1);
  h.sched->release_job(filler);
  const int lp = h.add(Priority::kLow, 100.0, 3000.0, 0);
  h.sched->release_job(lp);
  EXPECT_EQ(h.sched->context(lp), 2);  // earliest predicted finish
  EXPECT_EQ(h.sched->migrations(), 1u);
  h.sim.run();
}

TEST(Admission, MigrationSkipsFullContexts) {
  AdmissionHarness h(cfg_mps(2));
  h.add(Priority::kHigh, 10.0, 9900.0, 0);
  h.add(Priority::kHigh, 10.0, 9900.0, 1);
  const int lp = h.add(Priority::kLow, 10.0, 1000.0, 0);
  h.sched->release_job(lp);
  EXPECT_EQ(h.collector.summary(Priority::kLow).rejected, 1u);
  EXPECT_EQ(h.sched->migrations(), 0u);
  h.sim.run();
}

TEST(Admission, DisabledLpAdmissionAcceptsEverything) {
  SchedulerConfig cfg = cfg_mps(1);
  cfg.lp_admission = false;
  AdmissionHarness h(cfg);
  h.add(Priority::kHigh, 10.0, 9000.0, 0);
  const int lp = h.add(Priority::kLow, 10.0, 5000.0, 0);
  h.sched->release_job(lp);
  EXPECT_EQ(h.collector.summary(Priority::kLow).rejected, 0u);
  h.sim.run();
}

TEST(Admission, UtilizationUpdatesWithMret) {
  // After a job runs, utilisation reflects measured MRET, not AFET.
  AdmissionHarness h(cfg_mps(1));
  const int lp = h.add(Priority::kLow, 50.0, 50000.0, 0);  // huge AFET
  const double before = h.sched->utilization(lp);
  h.sched->release_job(lp);  // admitted: 1.0 !< ... wait, u = 1.0 -> rejected
  // The AFET says u = 1.0 which fails Eq. 12; confirm rejection first.
  EXPECT_EQ(h.collector.summary(Priority::kLow).rejected, 1u);
  // Manually record fast observations and verify utilisation adapts.
  for (std::size_t j = 0; j < h.model->stage_count(); ++j) {
    h.sched->task(lp).mret().record(j, 400.0);
  }
  EXPECT_LT(h.sched->utilization(lp), before);
  h.sched->release_job(lp);
  EXPECT_EQ(h.collector.summary(Priority::kLow).rejected, 1u);  // now admitted
  h.sim.run();
  EXPECT_EQ(h.collector.summary(Priority::kLow).completed, 1u);
}

}  // namespace
}  // namespace daris::rt
