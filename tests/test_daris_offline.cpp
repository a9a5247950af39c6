// Offline AFET profiling and Algorithm 1 context population.
#include <gtest/gtest.h>

#include "daris/offline.h"
#include "dnn/calibration.h"
#include "daris/scheduler.h"
#include "dnn/zoo.h"
#include "gpusim/gpu.h"
#include "sim/simulator.h"

namespace daris::rt {
namespace {

TEST(OfflineAfet, ProfilesEveryModelAndStage) {
  const gpusim::GpuSpec spec;
  SchedulerConfig cfg;
  cfg.policy = Policy::kMps;
  cfg.num_contexts = 4;
  cfg.oversubscription = 4.0;
  const auto r18 = dnn::compiled_model(dnn::ModelKind::kResNet18, 1, spec);
  const auto unet = dnn::compiled_model(dnn::ModelKind::kUNet, 1, spec);
  const AfetResult afet = profile_afet(spec, cfg, {&r18, &unet}, 8);
  const auto& a = afet.for_model(&r18);
  const auto& b = afet.for_model(&unet);
  ASSERT_EQ(a.size(), r18.stage_count());
  ASSERT_EQ(b.size(), unet.stage_count());
  for (double v : a) EXPECT_GT(v, 0.0);
  for (double v : b) EXPECT_GT(v, 0.0);
}

TEST(OfflineAfet, FullLoadIsSlowerThanAlone) {
  // AFET is a *pessimistic* initial estimate: under full colocation, a
  // stage takes longer than the single-tenant analytic latency would say.
  gpusim::GpuSpec spec;
  spec.jitter_cv = 0.0;
  SchedulerConfig cfg;
  cfg.policy = Policy::kMps;
  cfg.num_contexts = 6;
  cfg.oversubscription = 6.0;
  const auto r18 = dnn::compiled_model(dnn::ModelKind::kResNet18, 1, spec);
  const AfetResult afet = profile_afet(spec, cfg, {&r18}, 8);
  double afet_total = 0.0;
  for (double v : afet.for_model(&r18)) afet_total += v;
  const double alone = dnn::analytic_sequential_latency_us(r18, spec);
  EXPECT_GT(afet_total, 1.5 * alone);
}

TEST(OfflineAfet, DeterministicAcrossRuns) {
  const gpusim::GpuSpec spec;
  SchedulerConfig cfg;
  cfg.policy = Policy::kStr;
  cfg.streams_per_context = 3;
  const auto m = dnn::compiled_model(dnn::ModelKind::kResNet18, 1, spec);
  const AfetResult a = profile_afet(spec, cfg, {&m}, 8, 99);
  const AfetResult b = profile_afet(spec, cfg, {&m}, 8, 99);
  EXPECT_EQ(a.for_model(&m), b.for_model(&m));
}

class Algorithm1Test : public ::testing::Test {
 protected:
  void make_scheduler(int contexts) {
    gpu_ = std::make_unique<gpusim::Gpu>(sim_, spec_);
    SchedulerConfig cfg;
    cfg.policy = Policy::kMps;
    cfg.num_contexts = contexts;
    cfg.oversubscription = contexts;
    sched_ = std::make_unique<Scheduler>(sim_, *gpu_, cfg, nullptr);
  }

  int add_task(Priority p, double period_ms,
               const std::vector<double>& afet_us) {
    TaskSpec spec;
    spec.model = dnn::ModelKind::kResNet18;
    spec.period = common::from_ms(period_ms);
    spec.relative_deadline = spec.period;
    spec.priority = p;
    const int id = sched_->add_task(spec, model_.get());
    sched_->set_afet(id, afet_us);
    return id;
  }

  void SetUp() override {
    model_ = std::make_unique<dnn::CompiledModel>(
        dnn::compiled_model(dnn::ModelKind::kResNet18, 1, spec_));
  }

  sim::Simulator sim_;
  gpusim::GpuSpec spec_;
  std::unique_ptr<gpusim::Gpu> gpu_;
  std::unique_ptr<Scheduler> sched_;
  std::unique_ptr<dnn::CompiledModel> model_;
};

TEST_F(Algorithm1Test, BalancesUtilizationAcrossContexts) {
  make_scheduler(3);
  // Six identical HP tasks across three contexts -> two per context.
  for (int i = 0; i < 6; ++i) {
    add_task(Priority::kHigh, 33.3, {500, 500, 500, 500});
  }
  sched_->run_offline_phase();
  for (int c = 0; c < 3; ++c) {
    EXPECT_NEAR(sched_->hp_utilization(c), 2.0 * 2000.0 / 33300.0, 1e-6);
  }
}

TEST_F(Algorithm1Test, HpAssignedBeforeLp) {
  make_scheduler(2);
  // One heavy HP task and one light LP task: both land on the least-
  // utilised context in order HP first, so they end up separated.
  const int hp = add_task(Priority::kHigh, 33.3, {4000, 4000, 4000, 4000});
  const int lp = add_task(Priority::kLow, 33.3, {100, 100, 100, 100});
  sched_->run_offline_phase();
  EXPECT_NE(sched_->context(hp), sched_->context(lp));
}

TEST_F(Algorithm1Test, HeavyTasksSpreadOut) {
  make_scheduler(2);
  add_task(Priority::kHigh, 33.3, {3000, 3000, 3000, 3000});
  add_task(Priority::kHigh, 33.3, {3000, 3000, 3000, 3000});
  add_task(Priority::kLow, 33.3, {1000, 1000, 1000, 1000});
  add_task(Priority::kLow, 33.3, {1000, 1000, 1000, 1000});
  sched_->run_offline_phase();
  // Each context gets one HP and one LP task.
  EXPECT_NEAR(sched_->hp_utilization(0), sched_->hp_utilization(1), 1e-9);
}

TEST_F(Algorithm1Test, UtilizationUsesAfetBeforeMeasurements) {
  make_scheduler(1);
  const int id = add_task(Priority::kHigh, 10.0, {250, 250, 250, 250});
  // u = 1000us / 10000us = 0.1 (Eq. 10 with t = 0).
  EXPECT_NEAR(sched_->utilization(id), 0.1, 1e-9);
}

}  // namespace
}  // namespace daris::rt
