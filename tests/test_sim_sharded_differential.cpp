// Differential pinning of the sharded engine (sim/sharded.h).
//
// Two layers, mirroring test_sim_differential / test_gpusim_differential:
//
//  1. A synthetic randomized fleet — per-shard actors churning local timer
//     events, a control actor injecting cross-shard placements, two-hop
//     transfers, and steals — replayed at 1, 2, and N worker threads. The
//     per-shard (when, seq) execution logs and their FNV-1a digest must be
//     bit-identical at every thread count: the conservative window barrier
//     makes thread scheduling invisible.
//
//  2. run_cluster with routing, faults, autoscaling, and rebalancing all
//     armed: runs at 1/2/4 lanes must reproduce every counter exactly, and
//     run_scenario's fingerprint string must come out byte-identical. The
//     expected values are constants captured from the retired single-heap
//     engine, so these tests also pin today's engine to that golden
//     reference (as .baseline_scenarios.json does for the scenario matrix).
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/time.h"
#include "experiments/cluster_runner.h"
#include "experiments/scenarios.h"
#include "sim/sharded.h"
#include "sim/simulator.h"
#include "workload/taskset.h"

namespace daris::sim {
namespace {

std::uint64_t fnv1a(const void* data, std::size_t len,
                    std::uint64_t h = 1469598103934665603ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

/// One executed event, as the logs record it: shard-local (when, seq) plus
/// the actor state it observed — any ordering difference changes the state
/// chain and with it the digest.
struct LogEntry {
  common::Time when = 0;
  std::uint64_t seq = 0;  // per-shard execution index
  std::uint64_t state = 0;
};

/// Synthetic sharded fleet: every shard runs a self-re-arming local actor;
/// the control shard periodically reads all states, mutates two shards
/// ("steal"), schedules onto a shard ("placement"), and bounces a delayed
/// control event into a shard ("transfer"). All randomness is seeded and
/// drawn on the control shard or per-shard, so the run is a pure function of
/// (shards, seed) — never of the thread count.
struct SyntheticFleet {
  SyntheticFleet(int num_shards, int threads, std::uint64_t seed)
      : engine(num_shards, threads), states(num_shards, 0),
        logs(num_shards), control_rng(seed) {
    for (int s = 0; s < num_shards; ++s) {
      arm_local(s, common::Rng(seed ^ (0x9E3779B97F4A7C15ull * (s + 1))),
                /*when=*/common::from_us(10.0 * (s + 1)));
    }
    arm_control(common::from_us(50.0));
  }

  void arm_local(int s, common::Rng rng, common::Time when) {
    engine.shard(s).schedule_at(when, [this, s, rng]() mutable {
      Simulator& sim = engine.shard(s);
      auto& st = states[static_cast<std::size_t>(s)];
      st = st * 6364136223846793005ull + 1442695040888963407ull;
      logs[static_cast<std::size_t>(s)].push_back(
          {sim.now(), logs[static_cast<std::size_t>(s)].size(), st});
      const double delay_us = rng.uniform(5.0, 120.0);
      arm_local(s, rng, sim.now() + common::from_us(delay_us));
    });
  }

  void arm_control(common::Time when) {
    engine.control().schedule_at(when, [this] {
      Simulator& ctl = engine.control();
      // Read every shard's state (a cross-shard observation).
      std::uint64_t sum = 0;
      for (const std::uint64_t st : states) sum += st;
      control_log.push_back({ctl.now(), control_log.size(), sum});
      const int n = static_cast<int>(states.size());
      // Placement: schedule a local mutation onto a seeded-chosen shard.
      const int target = static_cast<int>(control_rng.uniform_int(0, n - 1));
      const double place_us = control_rng.uniform(1.0, 40.0);
      engine.shard(target).schedule_at(
          ctl.now() + common::from_us(place_us), [this, target] {
            auto& st = states[static_cast<std::size_t>(target)];
            st ^= 0xD1B54A32D192ED03ull;
            logs[static_cast<std::size_t>(target)].push_back(
                {engine.shard(target).now(),
                 logs[static_cast<std::size_t>(target)].size(), st});
          });
      // Steal: move "work" between two shards right now (control phase may
      // touch any shard's state directly).
      const int victim = static_cast<int>(control_rng.uniform_int(0, n - 1));
      const int thief = (victim + 1) % n;
      const std::uint64_t moved = states[victim] >> 3;
      states[victim] -= moved;
      states[thief] += moved;
      // Transfer: a delayed control event that lands on a shard two hops
      // later (models router weight-transfer delivery).
      const int dest = static_cast<int>(control_rng.uniform_int(0, n - 1));
      const double xfer_us = control_rng.uniform(10.0, 80.0);
      ctl.schedule_after(common::from_us(xfer_us), [this, dest] {
        engine.shard(dest).schedule_after(
            common::from_us(5.0), [this, dest] {
              auto& st = states[static_cast<std::size_t>(dest)];
              st += 0x2545F4914F6CDD1Dull;
              logs[static_cast<std::size_t>(dest)].push_back(
                  {engine.shard(dest).now(),
                   logs[static_cast<std::size_t>(dest)].size(), st});
            });
      });
      arm_control(ctl.now() + common::from_us(control_rng.uniform(20., 90.)));
    });
  }

  std::uint64_t digest() const {
    std::uint64_t h = fnv1a(control_log.data(),
                            control_log.size() * sizeof(LogEntry));
    for (const auto& log : logs) {
      h = fnv1a(log.data(), log.size() * sizeof(LogEntry), h);
    }
    return h;
  }

  ShardedSimulator engine;
  std::vector<std::uint64_t> states;
  std::vector<std::vector<LogEntry>> logs;
  std::vector<LogEntry> control_log;
  common::Rng control_rng;
};

struct SyntheticRun {
  std::vector<std::vector<LogEntry>> logs;
  std::vector<LogEntry> control_log;
  std::uint64_t digest = 0;
  std::size_t executed = 0;
};

SyntheticRun run_synthetic(int shards, int threads, std::uint64_t seed,
                           double horizon_ms) {
  SyntheticFleet fleet(shards, threads, seed);
  SyntheticRun out;
  out.executed = fleet.engine.run_until(common::from_ms(horizon_ms));
  out.logs = std::move(fleet.logs);
  out.control_log = std::move(fleet.control_log);
  out.digest = fleet.digest();
  return out;
}

void expect_identical(const SyntheticRun& a, const SyntheticRun& b,
                      const char* label) {
  EXPECT_EQ(a.digest, b.digest) << label;
  EXPECT_EQ(a.executed, b.executed) << label;
  ASSERT_EQ(a.logs.size(), b.logs.size()) << label;
  ASSERT_EQ(a.control_log.size(), b.control_log.size()) << label;
  for (std::size_t s = 0; s < a.logs.size(); ++s) {
    ASSERT_EQ(a.logs[s].size(), b.logs[s].size()) << label << " shard " << s;
    for (std::size_t i = 0; i < a.logs[s].size(); ++i) {
      ASSERT_EQ(a.logs[s][i].when, b.logs[s][i].when)
          << label << " shard " << s << " entry " << i;
      ASSERT_EQ(a.logs[s][i].seq, b.logs[s][i].seq)
          << label << " shard " << s << " entry " << i;
      ASSERT_EQ(a.logs[s][i].state, b.logs[s][i].state)
          << label << " shard " << s << " entry " << i;
    }
  }
}

TEST(ShardedDifferential, RandomMixesBitIdenticalAcrossThreadCounts) {
  for (const std::uint64_t seed : {1ull, 42ull, 0xC0FFEEull}) {
    for (const int shards : {2, 3, 8}) {
      const SyntheticRun one = run_synthetic(shards, 1, seed, 20.0);
      const SyntheticRun two = run_synthetic(shards, 2, seed, 20.0);
      const SyntheticRun many = run_synthetic(shards, 0, seed, 20.0);
      ASSERT_GT(one.executed, 100u);
      expect_identical(one, two, "1 vs 2 threads");
      expect_identical(one, many, "1 vs auto threads");
    }
  }
}

TEST(ShardedDifferential, RepeatRunsBitIdenticalAtSameThreadCount) {
  const SyntheticRun a = run_synthetic(4, 4, 7, 20.0);
  const SyntheticRun b = run_synthetic(4, 4, 7, 20.0);
  expect_identical(a, b, "repeat at 4 threads");
}

TEST(ShardedDifferential, ClocksAllReachTheDeadline) {
  ShardedSimulator s(3, 2);
  s.shard(1).schedule_at(common::from_us(5.0), [] {});
  s.control().schedule_at(common::from_us(12.0), [] {});
  s.run_until(common::from_ms(2.0));
  EXPECT_EQ(s.now(), common::from_ms(2.0));
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(s.shard(i).now(), common::from_ms(2.0)) << "shard " << i;
  }
  EXPECT_TRUE(s.empty());
}

TEST(ShardedDifferential, AddShardJoinsMidRunAtFleetTime) {
  ShardedSimulator s(2, 2);
  int fired_on_new = 0;
  s.control().schedule_at(common::from_us(100.0), [&] {
    const int g = s.add_shard();
    EXPECT_EQ(g, 2);
    EXPECT_EQ(s.shard(g).now(), common::from_us(100.0));
    s.shard(g).schedule_after(common::from_us(10.0),
                              [&fired_on_new] { ++fired_on_new; });
  });
  s.run_until(common::from_ms(1.0));
  EXPECT_EQ(fired_on_new, 1);
  EXPECT_EQ(s.device_shards(), 3);
}

// --- cluster-level differential -----------------------------------------

/// Every counter of a ClusterResult that the scenario fingerprint covers,
/// flattened for equality comparison.
std::vector<std::uint64_t> counters_of(const exp::ClusterResult& r) {
  std::vector<std::uint64_t> v = {
      r.hp.released,  r.hp.accepted,  r.hp.rejected, r.hp.completed,
      r.hp.missed,    r.lp.released,  r.lp.accepted, r.lp.rejected,
      r.lp.completed, r.lp.missed,    r.drops,       r.infeasible_rejects,
      r.transfers,    r.arrivals,     r.jobs_lost,   r.steals,
      r.rehomes,      r.transfer_cancels,            r.coalesced_transfers,
      r.cross_gpu_migrations,         r.intra_gpu_migrations,
      r.first_attempts,               r.retries,
      r.retry_admits, r.retry_abandoned_budget,
      r.retry_abandoned_expired,      r.retry_abandoned_attempts,
      r.hedges,       r.hedge_wins,   r.hedge_cancels,
      r.hedge_waste,  r.hedge_rescued_misses,
      r.breaker_opens,
      r.breaker_closes,               r.conservation_ok ? 1u : 0u,
  };
  for (const auto& g : r.per_gpu) {
    v.push_back(g.completed);
    v.push_back(g.routing.routed);
    v.push_back(g.routing.migrated_in);
    v.push_back(g.routing.migrated_out);
  }
  v.push_back(static_cast<std::uint64_t>(r.stage_trace.size()));
  return v;
}

exp::ClusterConfig differential_cluster_config() {
  exp::ClusterConfig cfg;
  cfg.taskset = workload::replicated_taskset(workload::mixed_taskset(), 4);
  cfg.sched.policy = rt::Policy::kMps;
  cfg.sched.num_contexts = 4;
  cfg.sched.oversubscription = 4.0;
  cfg.num_gpus = 4;
  cfg.routing = cluster::RoutingPolicy::kHybrid;
  cfg.arrivals = exp::ArrivalMode::kPoisson;
  cfg.rate_scale = 1.1;
  cfg.duration_s = 1.2;
  cfg.warmup_s = 0.3;
  cfg.stage_trace = true;
  cfg.rebalance.enabled = true;
  // Faults cross every control->shard edge: fail, straggler, scale-up.
  exp::FaultSpec fail;
  fail.kind = exp::FaultSpec::Kind::kFail;
  fail.gpu = 1;
  fail.at_s = 0.7;
  exp::FaultSpec slow;
  slow.kind = exp::FaultSpec::Kind::kSlow;
  slow.gpu = 2;
  slow.at_s = 0.5;
  slow.factor = 0.6;
  exp::FaultSpec add;
  add.kind = exp::FaultSpec::Kind::kAdd;
  add.at_s = 0.9;
  cfg.faults = {fail, slow, add};
  return cfg;
}

TEST(ShardedDifferential, ClusterRunMatchesGoldenAtEveryLaneCount) {
  // Captured from the single-heap engine: counters_of(), total_jps, and the
  // per-GPU utilisation (the kAdd device is index 4).
  const std::vector<std::uint64_t> want = {
      1565, 1359, 187, 1012, 168, 3065, 1230, 1820, 854, 116, 2007, 0,
      9,    4630, 7,   704,  8,   0,    9,    368,  899, 0,   0,    0,
      0,    0,    0,   0,    0,   0,    0,    0,    0,   0,   1,    598,
      939,  131,  49,  357,  376, 88,   17,   645,  1159, 24, 84,   974,
      1873, 125,  125, 8,    283, 0,    93,   10373};
  const double want_jps = 0x1.032aaaaaaaaabp+11;
  const double want_util[] = {0x1.7f1aefd61126ap-1, 0x1.cd22961febe7p-2,
                              0x1.11327e0b2aac4p+0, 0x1.a52f8fde4d35p-1,
                              0x1.7431531be4a53p-6};

  for (const int threads : {1, 2, 4}) {
    exp::ClusterConfig cfg = differential_cluster_config();
    cfg.sim_threads = threads;
    const exp::ClusterResult r = exp::run_cluster(cfg);
    EXPECT_EQ(counters_of(r), want) << threads << " lanes";
    EXPECT_EQ(r.total_jps, want_jps) << threads << " lanes";
    ASSERT_EQ(r.per_gpu.size(), std::size(want_util));
    for (std::size_t g = 0; g < r.per_gpu.size(); ++g) {
      EXPECT_EQ(r.per_gpu[g].utilization, want_util[g])
          << threads << " lanes, gpu " << g;
    }
  }
}

// --- chaos-schedule fuzz -------------------------------------------------

/// A randomized-but-seeded adversarial config: fuzzed fault schedule (kind,
/// target, time, severity all drawn from `seed`), rebalancing coin-flipped,
/// and the resilience layer armed with fuzzed retry/hedge/breaker knobs.
/// Everything the fleet ships, colliding on one run.
exp::ClusterConfig chaos_cluster_config(std::uint64_t seed) {
  common::Rng rng(seed);
  exp::ClusterConfig cfg;
  cfg.taskset = workload::replicated_taskset(workload::mixed_taskset(), 3);
  cfg.sched.policy = rt::Policy::kMps;
  cfg.sched.num_contexts = 4;
  cfg.sched.oversubscription = 4.0;
  cfg.num_gpus = 3;
  cfg.routing = cluster::RoutingPolicy::kHybrid;
  cfg.arrivals = exp::ArrivalMode::kBursty;
  cfg.rate_scale = rng.uniform(1.0, 1.5);  // overload => sheds => retries
  cfg.duration_s = 1.2;
  cfg.warmup_s = 0.3;
  cfg.seed = seed ^ 0xF1EE71ull;

  const int num_faults = static_cast<int>(rng.uniform_int(1, 3));
  for (int i = 0; i < num_faults; ++i) {
    exp::FaultSpec f;
    const int kind = static_cast<int>(rng.uniform_int(0, 3));
    f.kind = static_cast<exp::FaultSpec::Kind>(kind);
    f.gpu = static_cast<int>(rng.uniform_int(0, 2));
    f.at_s = rng.uniform(0.4, 1.0);
    f.factor = rng.uniform(0.3, 0.8);
    cfg.faults.push_back(f);
  }

  cfg.rebalance.enabled = rng.uniform(0.0, 1.0) < 0.5;

  cfg.resilience.enabled = true;
  cfg.resilience.seed = seed ^ 0x5EEDull;
  cfg.resilience.hp.backoff = cluster::RetryPolicy::Backoff::kExponential;
  cfg.resilience.lp.backoff = rng.uniform(0.0, 1.0) < 0.5
                                  ? cluster::RetryPolicy::Backoff::kFixed
                                  : cluster::RetryPolicy::Backoff::kExponential;
  cfg.resilience.hp.max_attempts = static_cast<int>(rng.uniform_int(2, 5));
  cfg.resilience.lp.max_attempts = static_cast<int>(rng.uniform_int(2, 5));
  cfg.resilience.hp.base_delay_us = rng.uniform(100.0, 800.0);
  cfg.resilience.lp.base_delay_us = rng.uniform(100.0, 800.0);
  cfg.resilience.budget_enabled = rng.uniform(0.0, 1.0) < 0.7;
  cfg.resilience.retry_budget_ratio = rng.uniform(0.05, 0.5);
  cfg.resilience.hedge = rng.uniform(0.0, 1.0) < 0.5;
  cfg.resilience.breaker = rng.uniform(0.0, 1.0) < 0.5;
  cfg.resilience.breaker_open_threshold = rng.uniform(0.2, 0.6);
  return cfg;
}

TEST(ShardedDifferential, ChaosScheduleConservesAndMatchesAcrossLanes) {
  // Fault schedule x rebalancing x retries/hedging/breakers, fuzzed per
  // seed: however the chaos lands, (a) every job must be conserved, and
  // (b) every lane count must reproduce the golden counters captured from
  // the single-heap engine exactly.
  struct Golden {
    std::uint64_t seed;
    std::vector<std::uint64_t> counters;
  };
  const Golden golden[] = {
      {3ull,
       {1451, 1145, 275, 861, 80,   2999, 866,  2127, 625, 131, 2402, 0,
        7,    4039, 0,   0,   0,    0,    0,    267,  430, 4039, 411, 8,
        1626, 0,    364, 0,   0,    0,    0,    0,    0,   0,   1,   641,
        1361, 207,  9,   316, 660,  48,   51,   1054, 2429, 12,  207, 0}},
      {11ull,
       {1394, 997,  391,  750, 13,   6662, 1017, 5622, 762, 104, 6013, 0,
        10,   3085, 0,    0,   0,    0,    0,    294,  489, 3085, 4898, 328,
        0,    0,    1058, 21,  13,   5,    16,   1,    0,   0,   1,    294,
        1001, 81,   4,    483, 2168, 166,  85,   1237, 4887, 47, 205,  0}},
      {0xABCDull,
       {1042, 882, 149,  711, 27,  3094, 839,  2228, 615, 132, 2377, 0,
        18,   3172, 0,   0,   0,   0,    0,    283,  415, 3172, 944, 19,
        1252, 0,   227,  14,  8,   4,    9,    1,    7,   0,   1,   666,
        1135, 235, 22,   298, 841, 25,   74,   559,  1265, 23, 73,  113,
        512,  0,   62,   85,  383, 0,    52,   0}},
  };
  for (const Golden& g : golden) {
    for (const int threads : {1, 2, 4}) {
      exp::ClusterConfig cfg = chaos_cluster_config(g.seed);
      cfg.sim_threads = threads;
      const exp::ClusterResult r = exp::run_cluster(cfg);
      EXPECT_TRUE(r.conservation_ok)
          << "seed " << g.seed << ", " << threads << " lanes: "
          << r.conservation_detail;
      EXPECT_EQ(counters_of(r), g.counters)
          << "seed " << g.seed << ", " << threads << " lanes";
    }
  }
}

TEST(ShardedDifferential, ScenarioFingerprintAndTelemetryDigestMatchGolden) {
  // One full scenario through the public API: the fingerprint string and
  // the telemetry digest must equal the single-heap engine's (the same
  // values .baseline_scenarios.json commits) at 1, 2, and auto lanes.
  // (scripts/check_scenarios.py --baseline gates the whole matrix in CI.)
  const std::string want_fingerprint =
      "jps=2656;hp_rel=5230;hp_acc=4190;hp_done=3543;hp_miss=46;"
      "lp_rel=10083;lp_acc=3679;lp_done=3097;lp_miss=478;xmigr=1738;"
      "imigr=2247;drops=7377;infeas=0;xfers=8;xfer_mb=642.7156982421875;"
      "arrivals=15313;lost=0;unmatched=0;stages=31571;cswitch=773;"
      "gmigr=2174;starved=107;stall_us=6960.3559999999998;g=1435;g=1480;"
      "g=2517;g=2437;";
  const std::uint64_t want_digest = 0x0f928ad8ab69b169ull;
  const std::string data_dir = DARIS_TEST_DATA_DIR;
  const exp::ScenarioTelemetry telemetry;
  for (const int threads : {1, 2, 0}) {
    const exp::ScenarioResult r =
        exp::run_scenario("overload-storm", data_dir, &telemetry, threads);
    EXPECT_EQ(r.fingerprint, want_fingerprint) << threads << " lanes";
    EXPECT_EQ(r.telemetry_digest, want_digest) << threads << " lanes";
  }
}

}  // namespace
}  // namespace daris::sim
