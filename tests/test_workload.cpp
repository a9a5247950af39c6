// Task-set construction (Table II) and the periodic driver.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "daris/scheduler.h"
#include "dnn/zoo.h"
#include "gpusim/gpu.h"
#include "sim/simulator.h"
#include "workload/driver.h"
#include "workload/taskset.h"

namespace daris::workload {
namespace {

using common::Priority;

TEST(TaskSet, Table2ResNet18Counts) {
  const TaskSetSpec set = table2_taskset(dnn::ModelKind::kResNet18);
  EXPECT_EQ(set.count(Priority::kHigh), 17);
  EXPECT_EQ(set.count(Priority::kLow), 34);
  // 51 tasks x 30 JPS = 1530 JPS ~ 150% of the 1025-JPS upper baseline.
  EXPECT_NEAR(set.demand_jps(), 1530.0, 2.0);
}

TEST(TaskSet, Table2UNetCounts) {
  const TaskSetSpec set = table2_taskset(dnn::ModelKind::kUNet);
  EXPECT_EQ(set.count(Priority::kHigh), 5);
  EXPECT_EQ(set.count(Priority::kLow), 10);
  EXPECT_NEAR(set.demand_jps(), 15 * 24.0, 1.0);
}

TEST(TaskSet, Table2InceptionCounts) {
  const TaskSetSpec set = table2_taskset(dnn::ModelKind::kInceptionV3);
  EXPECT_EQ(set.count(Priority::kHigh), 9);
  EXPECT_EQ(set.count(Priority::kLow), 18);
  EXPECT_NEAR(set.demand_jps(), 27 * 24.0, 1.0);
}

TEST(TaskSet, DeadlinesEqualPeriods) {
  const TaskSetSpec set = table2_taskset(dnn::ModelKind::kResNet18);
  for (const auto& t : set.tasks) {
    EXPECT_EQ(t.period, t.relative_deadline);
    EXPECT_EQ(t.period, common::period_for_jps(30.0));
  }
}

TEST(TaskSet, PhasesAreWithinPeriodAndVaried) {
  const TaskSetSpec set = table2_taskset(dnn::ModelKind::kResNet18);
  std::set<common::Duration> phases;
  for (const auto& t : set.tasks) {
    EXPECT_GE(t.phase, 0);
    EXPECT_LT(t.phase, t.period);
    phases.insert(t.phase);
  }
  EXPECT_GT(phases.size(), set.tasks.size() / 2);  // not all identical
}

TEST(TaskSet, DeterministicFromSeed) {
  const TaskSetSpec a = table2_taskset(dnn::ModelKind::kUNet, 3);
  const TaskSetSpec b = table2_taskset(dnn::ModelKind::kUNet, 3);
  ASSERT_EQ(a.tasks.size(), b.tasks.size());
  for (std::size_t i = 0; i < a.tasks.size(); ++i) {
    EXPECT_EQ(a.tasks[i].phase, b.tasks[i].phase);
  }
}

TEST(TaskSet, ScaledLoadFactor) {
  const TaskSetSpec full = scaled_taskset(dnn::ModelKind::kResNet18, 1.0, 1.0 / 3.0);
  const TaskSetSpec half = scaled_taskset(dnn::ModelKind::kResNet18, 0.5, 1.0 / 3.0);
  EXPECT_NEAR(half.demand_jps(), full.demand_jps() / 2.0, 40.0);
}

TEST(TaskSet, ScaledHpFraction) {
  const TaskSetSpec set = scaled_taskset(dnn::ModelKind::kResNet18, 1.0, 0.5);
  const int total = static_cast<int>(set.tasks.size());
  EXPECT_NEAR(set.count(Priority::kHigh), total / 2, 1);
}

TEST(TaskSet, ScaledExtremesDegradeGracefully) {
  const TaskSetSpec all_hp = scaled_taskset(dnn::ModelKind::kUNet, 1.0, 1.0);
  EXPECT_EQ(all_hp.count(Priority::kLow), 0);
  const TaskSetSpec all_lp = scaled_taskset(dnn::ModelKind::kUNet, 1.0, 0.0);
  EXPECT_EQ(all_lp.count(Priority::kHigh), 0);
  const TaskSetSpec tiny = scaled_taskset(dnn::ModelKind::kUNet, 0.01, 0.5);
  EXPECT_GE(tiny.tasks.size(), 1u);
}

TEST(TaskSet, MixedContainsAllThreeModels) {
  const TaskSetSpec set = mixed_taskset();
  std::set<dnn::ModelKind> kinds;
  for (const auto& t : set.tasks) kinds.insert(t.model);
  EXPECT_EQ(kinds.size(), 3u);
  EXPECT_TRUE(kinds.count(dnn::ModelKind::kResNet18));
  EXPECT_TRUE(kinds.count(dnn::ModelKind::kUNet));
  EXPECT_TRUE(kinds.count(dnn::ModelKind::kInceptionV3));
  // 2:1 LP-to-HP overall.
  EXPECT_NEAR(static_cast<double>(set.count(Priority::kLow)) /
                  set.count(Priority::kHigh),
              2.0, 0.35);
}

TEST(TaskSet, ReplicatedScalesDemandAndRedrawsPhases) {
  const TaskSetSpec base = table2_taskset(dnn::ModelKind::kUNet);
  const TaskSetSpec x3 = replicated_taskset(base, 3);
  EXPECT_EQ(x3.tasks.size(), 3 * base.tasks.size());
  EXPECT_NEAR(x3.demand_jps(), 3.0 * base.demand_jps(), 1.0);
  EXPECT_EQ(x3.count(Priority::kHigh), 3 * base.count(Priority::kHigh));
  // Phases are re-drawn per copy, not repeated.
  std::set<common::Duration> phases;
  for (const auto& t : x3.tasks) phases.insert(t.phase);
  EXPECT_GT(phases.size(), x3.tasks.size() / 2);
}

/// One-task spec for driving the open-loop generator without a scheduler.
TaskSetSpec single_task_spec(double jps) {
  TaskSetSpec set;
  rt::TaskSpec t;
  t.model = dnn::ModelKind::kResNet18;
  t.period = common::period_for_jps(jps);
  t.relative_deadline = t.period;
  t.priority = Priority::kLow;
  set.tasks.push_back(t);
  return set;
}

TEST(OpenLoopDriver, PoissonArrivalCountMatchesRate) {
  sim::Simulator sim;
  const TaskSetSpec set = single_task_spec(100.0);
  OpenLoopConfig cfg;
  cfg.process = ArrivalProcess::kPoisson;
  std::uint64_t released = 0;
  OpenLoopDriver driver(sim, set, [&](int) { ++released; },
                        common::from_sec(10.0), cfg);
  driver.start();
  sim.run();
  // 100 JPS over 10 s => ~1000 arrivals; +-4 sigma of a Poisson(1000).
  EXPECT_NEAR(static_cast<double>(driver.arrivals()), 1000.0, 130.0);
  EXPECT_EQ(driver.arrivals(), released);
}

TEST(OpenLoopDriver, RateScaleDrivesOverload) {
  sim::Simulator sim;
  const TaskSetSpec set = single_task_spec(100.0);
  OpenLoopConfig cfg;
  cfg.rate_scale = 2.0;
  OpenLoopDriver driver(sim, set, [](int) {}, common::from_sec(10.0), cfg);
  driver.start();
  sim.run();
  EXPECT_NEAR(static_cast<double>(driver.arrivals()), 2000.0, 200.0);
}

TEST(OpenLoopDriver, BurstyPreservesLongRunMeanRate) {
  sim::Simulator sim;
  const TaskSetSpec set = single_task_spec(100.0);
  OpenLoopConfig cfg;
  cfg.process = ArrivalProcess::kBursty;
  OpenLoopDriver driver(sim, set, [](int) {}, common::from_sec(20.0), cfg);
  driver.start();
  sim.run();
  // Mean rate is constructed to stay at the nominal 100 JPS; the dwell
  // randomness is slow, so allow a wider band than the Poisson test.
  EXPECT_NEAR(static_cast<double>(driver.arrivals()), 2000.0, 500.0);
}

TEST(OpenLoopDriver, DeterministicFromSeed) {
  auto arrival_times = [](std::uint64_t seed) {
    sim::Simulator sim;
    const TaskSetSpec set = single_task_spec(200.0);
    OpenLoopConfig cfg;
    cfg.process = ArrivalProcess::kBursty;
    cfg.seed = seed;
    std::vector<common::Time> times;
    OpenLoopDriver driver(sim, set, [&](int) { times.push_back(sim.now()); },
                          common::from_sec(2.0), cfg);
    driver.start();
    sim.run();
    return times;
  };
  const auto a = arrival_times(11);
  const auto b = arrival_times(11);
  const auto c = arrival_times(12);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(OpenLoopDriver, DrivesSchedulerReleases) {
  sim::Simulator sim;
  gpusim::GpuSpec spec;
  spec.jitter_cv = 0.0;
  gpusim::Gpu gpu(sim, spec);
  const auto model = dnn::compiled_model(dnn::ModelKind::kResNet18, 1, spec);
  rt::SchedulerConfig cfg;
  cfg.policy = rt::Policy::kMps;
  cfg.num_contexts = 1;
  metrics::Collector collector;
  rt::Scheduler sched(sim, gpu, cfg, &collector);
  rt::TaskSpec t;
  t.model = dnn::ModelKind::kResNet18;
  t.period = common::from_ms(10.0);
  t.relative_deadline = t.period;
  t.priority = Priority::kHigh;
  const int id = sched.add_task(t, &model);
  sched.set_afet(id, std::vector<double>(model.stage_count(), 400.0));
  sched.run_offline_phase();

  TaskSetSpec set;
  set.tasks.push_back(t);
  OpenLoopDriver driver(sim, set,
                        [&sched](int task) { sched.release_job(task); },
                        common::from_sec(1.0));
  driver.start();
  sim.run();
  EXPECT_GT(collector.summary(Priority::kHigh).released, 50u);
}

TEST(Driver, ReleasesAtPhaseThenEveryPeriod) {
  sim::Simulator sim;
  gpusim::GpuSpec spec;
  spec.jitter_cv = 0.0;
  gpusim::Gpu gpu(sim, spec);
  const auto model = dnn::compiled_model(dnn::ModelKind::kResNet18, 1, spec);
  rt::SchedulerConfig cfg;
  cfg.policy = rt::Policy::kMps;
  cfg.num_contexts = 1;
  metrics::Collector collector;
  rt::Scheduler sched(sim, gpu, cfg, &collector);
  rt::TaskSpec t;
  t.model = dnn::ModelKind::kResNet18;
  t.period = common::from_ms(10.0);
  t.relative_deadline = t.period;
  t.priority = Priority::kHigh;
  t.phase = common::from_ms(3.0);
  const int id = sched.add_task(t, &model);
  sched.set_afet(id, std::vector<double>(model.stage_count(), 400.0));
  sched.run_offline_phase();

  PeriodicDriver driver(sim, sched, common::from_ms(35.0));
  driver.start();
  sim.run();
  // Releases at 3, 13, 23, 33 ms.
  EXPECT_EQ(collector.summary(Priority::kHigh).released, 4u);
}

TEST(Driver, HonorsHorizon) {
  sim::Simulator sim;
  gpusim::GpuSpec spec;
  spec.jitter_cv = 0.0;
  gpusim::Gpu gpu(sim, spec);
  const auto model = dnn::compiled_model(dnn::ModelKind::kResNet18, 1, spec);
  rt::SchedulerConfig cfg;
  metrics::Collector collector;
  rt::Scheduler sched(sim, gpu, cfg, &collector);
  rt::TaskSpec t;
  t.model = dnn::ModelKind::kResNet18;
  t.period = common::from_ms(10.0);
  t.relative_deadline = t.period;
  t.priority = Priority::kHigh;
  t.phase = common::from_ms(50.0);  // phase beyond horizon
  const int id = sched.add_task(t, &model);
  sched.set_afet(id, std::vector<double>(model.stage_count(), 400.0));
  sched.run_offline_phase();
  PeriodicDriver driver(sim, sched, common::from_ms(35.0));
  driver.start();
  sim.run();
  EXPECT_EQ(collector.summary(Priority::kHigh).released, 0u);
}

}  // namespace
}  // namespace daris::workload
