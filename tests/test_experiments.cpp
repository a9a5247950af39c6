// Integration tests through the shared experiment runner: the headline
// qualitative claims of the paper, at reduced duration so the suite stays
// fast. Exact figures are regenerated by the bench binaries.
#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "baselines/batching_server.h"
#include "experiments/cluster_runner.h"
#include "experiments/grid.h"
#include "experiments/runner.h"

namespace daris::exp {
namespace {

RunConfig base_config(dnn::ModelKind kind) {
  RunConfig cfg;
  cfg.taskset = workload::table2_taskset(kind);
  cfg.duration_s = 2.5;
  cfg.warmup_s = 0.8;
  return cfg;
}

RunResult run_mps(dnn::ModelKind kind, int nc, double os) {
  RunConfig cfg = base_config(kind);
  cfg.sched.policy = rt::Policy::kMps;
  cfg.sched.num_contexts = nc;
  cfg.sched.oversubscription = os;
  return run_daris(cfg);
}

TEST(Experiments, ASchedulerConfigErrorIsRefusedWithoutSimulating) {
  // The one SchedulerConfig check, run by both runners before anything is
  // built: a window above the bound, and a NaN or infinite OS that
  // canonicalize()'s clamp would pass on to Eq. 9.
  rt::SchedulerConfig window;
  window.mret_window = 65;
  rt::SchedulerConfig nan_os;
  nan_os.oversubscription = std::numeric_limits<double>::quiet_NaN();
  rt::SchedulerConfig inf_os;
  inf_os.oversubscription = std::numeric_limits<double>::infinity();
  const std::vector<std::pair<rt::SchedulerConfig, std::string>> refused = {
      {window, "MRET window 65"},
      {nan_os, "oversubscription nan"},
      {inf_os, "oversubscription inf"}};
  RunConfig cfg = base_config(dnn::ModelKind::kResNet18);
  for (const auto& [sched, want] : refused) {
    cfg.sched = sched;
    const RunResult r = run_daris(cfg);
    EXPECT_NE(r.error.find(want), std::string::npos) << r.error;
    EXPECT_EQ(r.hp.released + r.lp.released, 0u);
    EXPECT_EQ(r.profile.events_executed, 0u);

    ClusterConfig cluster;
    cluster.taskset = cfg.taskset;
    cluster.sched = sched;
    const ClusterResult c = run_cluster(cluster);
    EXPECT_NE(c.error.find("scheduler: " + want), std::string::npos)
        << c.error;
    EXPECT_TRUE(c.per_gpu.empty());
  }

  cfg.sched = rt::SchedulerConfig{};
  cfg.sched.mret_window = 64;
  cfg.duration_s = 0.3;
  cfg.warmup_s = 0.1;
  const RunResult ok = run_daris(cfg);
  EXPECT_TRUE(ok.error.empty()) << ok.error;
  EXPECT_GT(ok.hp.completed, 0u);
}

TEST(Experiments, NoHpDeadlineMissesInMainScenario) {
  for (auto kind : {dnn::ModelKind::kResNet18, dnn::ModelKind::kUNet}) {
    const RunResult r = run_mps(kind, 6, 6.0);
    EXPECT_EQ(r.hp.missed, 0u) << dnn::model_name(kind);
  }
}

TEST(Experiments, MpsPeakExceedsBatchingForResNet18) {
  // Sec. VI: 1158 JPS vs the 1025-JPS batching baseline, without batching.
  const RunResult r = run_mps(dnn::ModelKind::kResNet18, 6, 6.0);
  const auto batching =
      baselines::best_batched_jps(dnn::ModelKind::kResNet18,
                                  gpusim::GpuSpec::rtx2080ti(), 1.5);
  EXPECT_GT(r.total_jps, batching.jps * 1.02);
}

TEST(Experiments, InceptionStaysBelowItsUpperBaseline) {
  // Sec. VI: InceptionV3 reaches only ~87% of its batching upper baseline.
  const RunResult r = run_mps(dnn::ModelKind::kInceptionV3, 8, 8.0);
  const auto batching =
      baselines::best_batched_jps(dnn::ModelKind::kInceptionV3,
                                  gpusim::GpuSpec::rtx2080ti(), 1.5);
  EXPECT_LT(r.total_jps, batching.jps);
  EXPECT_GT(r.total_jps, batching.jps * 0.75);
}

TEST(Experiments, OversubscriptionBoostsThroughput) {
  // Sec. VI-E: OS = 1 leads to a sharp throughput drop.
  const RunResult isolated = run_mps(dnn::ModelKind::kResNet18, 6, 1.0);
  const RunResult shared = run_mps(dnn::ModelKind::kResNet18, 6, 6.0);
  EXPECT_GT(shared.total_jps, isolated.total_jps * 1.08);
}

TEST(Experiments, StrHasBestTimelinessMpsBestThroughput) {
  RunConfig str_cfg = base_config(dnn::ModelKind::kResNet18);
  str_cfg.sched.policy = rt::Policy::kStr;
  str_cfg.sched.streams_per_context = 6;
  const RunResult str = run_daris(str_cfg);
  const RunResult mps = run_mps(dnn::ModelKind::kResNet18, 6, 6.0);
  EXPECT_GT(mps.total_jps, str.total_jps);
  EXPECT_LE(str.lp.dmr(), 0.02);  // "ideal DMR" for STR
  EXPECT_EQ(str.hp.missed, 0u);
}

TEST(Experiments, HpRespondsFasterThanLp) {
  // Sec. VI-F: HP tasks finish roughly 2.5x faster than LP tasks.
  const RunResult r = run_mps(dnn::ModelKind::kResNet18, 6, 6.0);
  const double hp_p50 = r.hp.response_ms.percentile(50);
  const double lp_p50 = r.lp.response_ms.percentile(50);
  EXPECT_LT(hp_p50 * 1.5, lp_p50);
}

TEST(Experiments, NoStagingAblationDegradesEverything) {
  RunConfig cfg = base_config(dnn::ModelKind::kResNet18);
  cfg.sched.policy = rt::Policy::kMps;
  cfg.sched.num_contexts = 6;
  cfg.sched.oversubscription = 6.0;
  const RunResult with = run_daris(cfg);
  cfg.sched.staging = false;
  const RunResult without = run_daris(cfg);
  // Fig. 8: response times rise without preemption points.
  EXPECT_GT(without.hp.response_ms.percentile(90),
            with.hp.response_ms.percentile(90));
}

TEST(Experiments, LpAdmissionKeepsOverloadBounded) {
  const RunResult r = run_mps(dnn::ModelKind::kResNet18, 6, 6.0);
  // At 150% demand a healthy share of LP jobs must be rejected, and the
  // admitted ones mostly meet deadlines.
  EXPECT_GT(r.lp.rejection_rate(), 0.2);
  EXPECT_LT(r.lp.dmr(), 0.10);
}

TEST(Experiments, MigrationsHappenUnderMps) {
  const RunResult r = run_mps(dnn::ModelKind::kResNet18, 6, 6.0);
  EXPECT_GT(r.migrations, 0u);
}

TEST(Experiments, DeterministicAcrossIdenticalRuns) {
  const RunResult a = run_mps(dnn::ModelKind::kUNet, 4, 4.0);
  const RunResult b = run_mps(dnn::ModelKind::kUNet, 4, 4.0);
  EXPECT_EQ(a.total_jps, b.total_jps);
  EXPECT_EQ(a.lp.missed, b.lp.missed);
  EXPECT_EQ(a.migrations, b.migrations);
}

TEST(Experiments, SeedChangesOutcomeSlightly) {
  RunConfig cfg = base_config(dnn::ModelKind::kUNet);
  cfg.sched.policy = rt::Policy::kMps;
  cfg.sched.num_contexts = 4;
  cfg.sched.oversubscription = 4.0;
  const RunResult a = run_daris(cfg);
  cfg.seed = 1234;
  const RunResult b = run_daris(cfg);
  EXPECT_NE(a.total_jps, b.total_jps);
  EXPECT_NEAR(a.total_jps, b.total_jps, 0.1 * a.total_jps);
}

TEST(Experiments, PaperGridListsEachPointOnce) {
  for (const int batch : {1, 4}) {
    const auto grid = paper_grid(batch);
    EXPECT_EQ(grid.size(), 49u) << "batch " << batch;
    std::set<std::string> labels;
    for (const auto& p : grid) labels.insert(p.label);
    EXPECT_EQ(labels.size(), grid.size()) << "batch " << batch;
  }
}

TEST(Experiments, CountersOfNamesAreUnique) {
  // check_scenarios.py diffs fingerprints by counter name, so a repeated
  // name would hide one of the counters that share it.
  ClusterResult r;
  r.per_gpu.resize(3);
  const std::vector<NamedCounter> counters = counters_of(r);
  EXPECT_EQ(counters.size(), 42u + 15u * r.per_gpu.size());
  std::set<std::string> names;
  for (const NamedCounter& c : counters) {
    EXPECT_FALSE(c.name.empty());
    EXPECT_TRUE(names.insert(c.name).second) << "repeated name " << c.name;
  }
}

TEST(Experiments, RelativeErrorFormatting) {
  EXPECT_EQ(relative_error(110.0, 100.0), "+10.0%");
  EXPECT_EQ(relative_error(95.0, 100.0), "-5.0%");
  EXPECT_EQ(relative_error(1.0, 0.0), "n/a");
}

}  // namespace
}  // namespace daris::exp
