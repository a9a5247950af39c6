// Client resilience layer (cluster/resilience.h): retries with backoff and
// deadline re-derivation, the token-bucket retry budget, hedged LP requests
// with first-finish-wins, and the job-conservation invariant — all at the
// run_cluster level, where every moving part (router, fleet, schedulers,
// drivers) is live.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "cluster/resilience.h"
#include "fleet_harness.h"
#include "workload/taskset.h"

namespace daris::cluster {
namespace {

/// Small overloaded fleet: bursty arrivals above nominal so the backlog
/// guard sheds LP work — the raw material retries and budgets act on.
exp::ClusterConfig overloaded_config(int num_gpus, double rate_scale) {
  exp::ClusterConfig cfg;
  cfg.taskset =
      workload::replicated_taskset(workload::mixed_taskset(), num_gpus);
  cfg.sched.policy = rt::Policy::kMps;
  cfg.sched.num_contexts = 4;
  cfg.sched.oversubscription = 4.0;
  cfg.num_gpus = num_gpus;
  cfg.routing = RoutingPolicy::kHybrid;
  cfg.arrivals = exp::ArrivalMode::kBursty;
  cfg.rate_scale = rate_scale;
  cfg.duration_s = 1.5;
  cfg.warmup_s = 0.3;
  return cfg;
}

/// Every counter of a run except first_attempts, which only an enabled
/// layer counts.
std::string behaviour_of(const exp::ClusterResult& r) {
  std::vector<exp::NamedCounter> c = exp::counters_of(r);
  c.erase(std::remove_if(c.begin(), c.end(),
                         [](const exp::NamedCounter& n) {
                           return n.name == "first_attempts";
                         }),
          c.end());
  return exp::format_counters(c);
}

// --- inertness ------------------------------------------------------------

TEST(Resilience, EnabledWithAllKnobsOffMatchesDisabledExactly) {
  // enabled=true with retries off and no hedging must reproduce
  // the disabled run's behaviour bit-for-bit: the layer only counts first
  // attempts and forwards. This pins the pass-through path as zero-cost.
  exp::ClusterConfig off = overloaded_config(3, 1.2);
  const exp::ClusterResult base = exp::run_cluster(off);

  exp::ClusterConfig noop = overloaded_config(3, 1.2);
  noop.resilience.enabled = true;
  noop.resilience.retry.max_attempts = 1;
  const exp::ClusterResult r = exp::run_cluster(noop);

  EXPECT_EQ(behaviour_of(r), behaviour_of(base));
  EXPECT_GT(r.first_attempts, 0u);
  EXPECT_EQ(base.first_attempts, 0u);  // disabled layer counts nothing
  EXPECT_TRUE(base.conservation_ok) << base.conservation_detail;
  EXPECT_TRUE(r.conservation_ok) << r.conservation_detail;
}

// --- retries --------------------------------------------------------------

TEST(Resilience, RetriesFireAndRunsAreDeterministic) {
  exp::ClusterConfig cfg = overloaded_config(3, 1.4);
  cfg.resilience.enabled = true;
  const exp::ClusterResult a = exp::run_cluster(cfg);
  const exp::ClusterResult b = exp::run_cluster(cfg);

  EXPECT_GT(a.retries, 0u);
  EXPECT_EQ(counters_text(a), counters_text(b));
  EXPECT_TRUE(a.conservation_ok) << a.conservation_detail;
}

TEST(Resilience, RetryJitterFollowsTheRunSeed) {
  // One model kind on jitter-free devices with periodic arrivals and
  // least-utilisation routing: nothing in this run draws randomness but the
  // retry backoff jitter. Two run seeds must therefore differ through the
  // retry stream alone.
  auto run = [](std::uint64_t seed) {
    exp::ClusterConfig cfg;
    cfg.taskset = workload::replicated_taskset(
        workload::table2_taskset(dnn::ModelKind::kResNet18), 3);
    cfg.sched.policy = rt::Policy::kMps;
    cfg.sched.num_contexts = 6;
    cfg.sched.oversubscription = 6.0;
    cfg.num_gpus = 3;
    cfg.gpu.jitter_cv = 0.0;
    cfg.routing = RoutingPolicy::kLeastUtilization;
    cfg.arrivals = exp::ArrivalMode::kPeriodic;
    cfg.duration_s = 1.0;
    cfg.warmup_s = 0.2;
    cfg.seed = seed;
    cfg.resilience.enabled = true;
    return exp::run_cluster(cfg);
  };
  const exp::ClusterResult a = run(1);
  const exp::ClusterResult b = run(2);
  EXPECT_GT(a.retries, 0u);
  EXPECT_GT(b.retries, 0u);
  EXPECT_NE(counters_text(a), counters_text(b));
  EXPECT_TRUE(a.conservation_ok) << a.conservation_detail;
  EXPECT_TRUE(b.conservation_ok) << b.conservation_detail;
}

TEST(Resilience, BudgetCapsRetryAmplification) {
  exp::ClusterConfig naive = overloaded_config(3, 1.4);
  naive.resilience.enabled = true;
  naive.resilience.budget_enabled = false;
  const exp::ClusterResult n = exp::run_cluster(naive);

  exp::ClusterConfig budgeted = overloaded_config(3, 1.4);
  budgeted.resilience.enabled = true;
  const exp::ClusterResult b = exp::run_cluster(budgeted);

  ASSERT_GT(n.retries, 0u);
  EXPECT_LT(b.retries, n.retries);
  EXPECT_GT(b.retry_abandoned_budget, 0u);
  // The bucket earns ratio per first attempt plus the burst headroom; the
  // realized retry rate must respect that bound.
  const double cap =
      kRetryBudgetRatio * static_cast<double>(b.first_attempts) +
      kRetryBudgetBurst;
  EXPECT_LE(static_cast<double>(b.retries), cap);
  EXPECT_TRUE(n.conservation_ok) << n.conservation_detail;
  EXPECT_TRUE(b.conservation_ok) << b.conservation_detail;
}

TEST(Resilience, RetriesRespectTheOriginalDeadline) {
  // With backoff delays far beyond every relative deadline, every scheduled
  // retry must be abandoned as expired — none may be re-released with fresh
  // slack it does not have.
  exp::ClusterConfig cfg = overloaded_config(3, 1.4);
  cfg.resilience.enabled = true;
  cfg.resilience.retry = {3, 500000.0, 500000.0};
  const exp::ClusterResult r = exp::run_cluster(cfg);
  EXPECT_EQ(r.retries, 0u);
  EXPECT_GT(r.retry_abandoned_expired, 0u);
  EXPECT_TRUE(r.conservation_ok) << r.conservation_detail;
}

// --- hedging --------------------------------------------------------------

TEST(Resilience, HedgesRescueLpTailOnStraggler) {
  exp::ClusterConfig cfg = overloaded_config(4, 1.0);
  cfg.arrivals = exp::ArrivalMode::kPeriodic;
  cfg.duration_s = 2.5;
  exp::FaultSpec slow;
  slow.kind = exp::FaultSpec::Kind::kSlow;
  slow.gpu = 0;
  slow.at_s = 0.5;
  slow.factor = 0.4;
  cfg.faults.push_back(slow);
  cfg.resilience.enabled = true;
  cfg.resilience.retry.max_attempts = 1;
  cfg.resilience.hedge = true;
  const exp::ClusterResult r = exp::run_cluster(cfg);

  EXPECT_GT(r.hedges, 0u);
  EXPECT_GT(r.hedge_wins, 0u);
  // Every pair settles exactly one way: cancelled loser or duplicate work.
  EXPECT_EQ(r.hedge_cancels + r.hedge_waste, r.hedges);
  EXPECT_TRUE(r.conservation_ok) << r.conservation_detail;

  const exp::ClusterResult again = exp::run_cluster(cfg);
  EXPECT_EQ(counters_text(r), counters_text(again));
}

}  // namespace
}  // namespace daris::cluster
