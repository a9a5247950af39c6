// HP stream holding across stage-sync gaps, its contested handover, and
// the LP predecessor-shedding rule.
#include <gtest/gtest.h>

#include "dnn/calibration.h"
#include "scheduler_harness.h"

namespace daris::rt {
namespace {

SchedulerConfig one_stream() {
  SchedulerConfig c;
  c.policy = Policy::kMps;
  c.num_contexts = 1;
  c.oversubscription = 1.0;
  return c;
}

TEST(StreamHold, HpNotInterposedByLpAtSyncGap) {
  // HP job running; LP job ready in the queue. With holding, the HP job's
  // stages run back to back and the LP job only starts afterwards.
  Harness h(one_stream());
  const int hp = h.add_task(Priority::kHigh, 100.0);
  const int lp = h.add_task(Priority::kLow, 100.0);
  h.sched->run_offline_phase();
  h.sched->release_job(hp);
  h.sim.schedule_after(common::from_us(100.0),
                       [&] { h.sched->release_job(lp); });
  h.sim.run();
  const double hp_resp = h.collector.summary(Priority::kHigh).response_ms.max();
  // HP response ~ its own exec + syncs, with no LP stage in between.
  const double alone_ms =
      dnn::analytic_sequential_latency_us(*h.model, h.spec) / 1e3 +
      3.0 * h.spec.sync_overhead_us / 1e3;
  EXPECT_NEAR(hp_resp, alone_ms, 0.15);
}

TEST(StreamHold, DisabledHoldLetsLpInterpose) {
  SchedulerConfig cfg = one_stream();
  cfg.hp_stream_hold = false;
  Harness h(cfg);
  const int hp = h.add_task(Priority::kHigh, 100.0);
  const int lp = h.add_task(Priority::kLow, 100.0);
  h.sched->run_offline_phase();
  h.sched->release_job(hp);
  h.sim.schedule_after(common::from_us(100.0),
                       [&] { h.sched->release_job(lp); });
  h.sim.run();
  const double hp_resp = h.collector.summary(Priority::kHigh).response_ms.max();
  const double alone_ms =
      dnn::analytic_sequential_latency_us(*h.model, h.spec) / 1e3 +
      3.0 * h.spec.sync_overhead_us / 1e3;
  // At least one LP stage interposes at a sync gap: visibly slower.
  EXPECT_GT(hp_resp, alone_ms + 0.2);
}

TEST(StreamHold, LastStageBoostPreemptsHeldStream) {
  // Job A (HP) holds the stream mid-job. Job B (HP) has only its *last*
  // stage pending with an earlier deadline-class level: the contested hold
  // must hand the stream to B's boosted last stage.
  Harness h(one_stream());
  const int a = h.add_task(Priority::kHigh, 100.0);
  const int b = h.add_task(Priority::kHigh, 50.0);
  h.sched->run_offline_phase();
  h.sched->release_job(a);
  h.sched->release_job(b);
  h.sim.run();
  // Both complete; with the boost, B (later release, earlier deadline and
  // eventually a boosted last stage) does not wait for all of A.
  const auto& hp = h.collector.summary(Priority::kHigh);
  EXPECT_EQ(hp.completed, 2u);
  // The interleaving property itself: the later finisher's response stays
  // within the two serialised executions plus both jobs' sync overheads.
  const double serial_ms =
      2.0 * (dnn::analytic_sequential_latency_us(*h.model, h.spec) / 1e3) +
      6.0 * h.spec.sync_overhead_us / 1e3;
  EXPECT_LT(hp.response_ms.max(), serial_ms + 0.3);
}

TEST(Backlog, LpShedsWhenPredecessorActive) {
  Harness h(one_stream());
  const int lp = h.add_task(Priority::kLow, 100.0);
  h.sched->run_offline_phase();
  h.sched->release_job(lp);
  h.sched->release_job(lp);  // predecessor still running -> shed
  h.sim.run();
  const auto& s = h.collector.summary(Priority::kLow);
  EXPECT_EQ(s.completed, 1u);
  EXPECT_EQ(s.rejected, 1u);
}

TEST(Backlog, HpToleratesConfiguredBacklog) {
  SchedulerConfig cfg = one_stream();
  Harness h(cfg);
  const int hp = h.add_task(Priority::kHigh, 100.0);
  h.sched->run_offline_phase();
  h.sched->release_job(hp);
  h.sched->release_job(hp);  // queues (backlog 2)
  h.sched->release_job(hp);  // shed
  h.sim.run();
  const auto& s = h.collector.summary(Priority::kHigh);
  EXPECT_EQ(s.completed, 2u);
  EXPECT_EQ(s.rejected, 1u);
}

}  // namespace
}  // namespace daris::rt
