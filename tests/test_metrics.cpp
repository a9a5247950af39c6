#include <gtest/gtest.h>

#include "common/time.h"
#include "metrics/collector.h"

namespace daris::metrics {
namespace {

using common::from_ms;
using common::from_sec;
using common::Priority;

/// Reports one finished single-GPU job, missed when it finished past its
/// release plus the relative deadline.
void finish_job(Collector& c, Priority p, double release_ms, double finish_ms,
                double deadline_ms) {
  const auto release = from_ms(release_ms);
  const auto finish = from_ms(finish_ms);
  c.on_finish(/*gpu=*/-1, p, release, finish,
              finish > release + from_ms(deadline_ms));
}

TEST(Collector, CountsPerPriorityClass) {
  Collector c;
  c.on_release(Priority::kHigh);
  c.on_release(Priority::kLow);
  c.on_release(Priority::kLow);
  EXPECT_EQ(c.summary(Priority::kHigh).released, 1u);
  EXPECT_EQ(c.summary(Priority::kLow).released, 2u);
}

TEST(Collector, DmrMissedOverCompleted) {
  Collector c;
  finish_job(c, Priority::kLow, 0, 5, 10);    // hit
  finish_job(c, Priority::kLow, 0, 15, 10);   // miss
  finish_job(c, Priority::kLow, 0, 8, 10);    // hit
  finish_job(c, Priority::kLow, 0, 20, 10);   // miss
  EXPECT_DOUBLE_EQ(c.summary(Priority::kLow).dmr(), 0.5);
  EXPECT_DOUBLE_EQ(c.summary(Priority::kHigh).dmr(), 0.0);
}

TEST(Collector, WarmupJobsExcludedFromWindow) {
  Collector c;
  c.set_measure_start(from_ms(100.0));
  finish_job(c, Priority::kHigh, 0, 50, 10);   // warm-up miss
  finish_job(c, Priority::kHigh, 100, 105, 10);  // counted hit
  const auto& s = c.summary(Priority::kHigh);
  EXPECT_EQ(s.completed, 1u);
  EXPECT_EQ(s.missed, 0u);
  EXPECT_EQ(s.response_ms.count(), 1u);
}

TEST(Collector, ResponseTimesInMilliseconds) {
  Collector c;
  finish_job(c, Priority::kHigh, 10, 14, 100);
  finish_job(c, Priority::kHigh, 20, 32, 100);
  const auto& r = c.summary(Priority::kHigh).response_ms;
  EXPECT_DOUBLE_EQ(r.percentile(0), 4.0);
  EXPECT_DOUBLE_EQ(r.max(), 12.0);
}

TEST(Collector, RejectionRate) {
  Collector c;
  for (int i = 0; i < 4; ++i) c.on_release(Priority::kLow);
  c.on_reject(Priority::kLow);
  EXPECT_DOUBLE_EQ(c.summary(Priority::kLow).rejection_rate(), 0.25);
}

TEST(Collector, ThroughputOverMeasureWindow) {
  Collector c;
  c.set_measure_start(from_sec(1.0));
  for (int i = 0; i < 30; ++i) {
    finish_job(c, Priority::kLow, 1000 + i, 1100 + i, 1000);
  }
  // 30 jobs over [1s, 4s] = 10 JPS.
  EXPECT_NEAR(c.throughput_jps(from_sec(4.0)), 10.0, 1e-9);
  EXPECT_EQ(c.total_completed(), 30u);
}

TEST(Collector, ThroughputZeroOnEmptyWindow) {
  Collector c;
  c.set_measure_start(from_sec(2.0));
  EXPECT_EQ(c.throughput_jps(from_sec(1.0)), 0.0);
}

TEST(Collector, StageTraceGating) {
  Collector c;
  StageEvent ev;
  ev.execution_us = 5.0;
  c.on_stage(ev);
  EXPECT_TRUE(c.stage_trace().empty());  // disabled by default
  c.enable_stage_trace(true);
  c.on_stage(ev);
  ASSERT_EQ(c.stage_trace().size(), 1u);
  EXPECT_EQ(c.stage_trace()[0].execution_us, 5.0);
}

TEST(ClassSummary, EmptyIsZero) {
  ClassSummary s;
  EXPECT_EQ(s.dmr(), 0.0);
  EXPECT_EQ(s.rejection_rate(), 0.0);
}

}  // namespace
}  // namespace daris::metrics
