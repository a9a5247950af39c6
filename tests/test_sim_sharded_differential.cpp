// Differential pinning of the sharded engine (sim/sharded.h).
//
// Two layers, mirroring test_sim_differential / test_gpusim_differential:
//
//  1. A synthetic randomized fleet — per-shard actors churning local timer
//     events, a control actor injecting cross-shard placements, two-hop
//     transfers, and steals — replayed at 1, 2, and N worker threads. The
//     per-shard (when, seq) execution logs and their FNV-1a digest must be
//     bit-identical at every thread count: the conservative window barrier
//     makes thread scheduling invisible. A for_each_shard pass before the
//     run (the fleet's offline phase) must visit each shard once, on its
//     lane, and change nothing the run then does.
//
//  2. run_cluster with routing, faults, autoscaling, and rebalancing all
//     armed: runs at 1/2/4 lanes must reproduce every counter exactly, and
//     run_scenario's fingerprint string must come out byte-identical. The
//     expected values are constants captured from the retired single-heap
//     engine, so these tests also pin today's engine to that golden
//     reference (as .baseline_scenarios.json does for the scenario matrix).
//     Configs with a live scale-up (kAdd) were re-captured once, at every
//     lane count, for the add_gpu_now residency fix. The goldens are the
//     full counter list written out (exp::counters_of), re-captured in that
//     form without moving a value.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/time.h"
#include "experiments/scenarios.h"
#include "fleet_harness.h"
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
    EXPECT_TRUE(s.shard(i).empty()) << "shard " << i;
  }
  EXPECT_TRUE(s.control().empty());
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

/// Mostly idle fleet: shard 0 runs a busy local actor, every other shard is
/// idle except for rare control placements, and a shard joins through
/// add_shard mid-run. A control timer opens a window every few microseconds
/// and, in each control phase, compares every shard's published head with
/// its heap and every shard's clock with the control clock.
struct IdleFleetRun {
  std::uint64_t digest = 0;
  std::size_t executed = 0;
  int head_mismatches = 0;
  int clock_mismatches = 0;
  int control_events = 0;
  ShardedSimulator::Stats stats;
};

IdleFleetRun run_idle_fleet(int threads) {
  constexpr int kShards = 6;
  ShardedSimulator engine(kShards, threads);
  IdleFleetRun out;
  std::vector<std::vector<LogEntry>> logs(kShards + 1);
  std::vector<LogEntry> control_log;
  common::Rng rng(0x1D7Eull);

  auto note = [&](int s) {
    auto& log = logs[static_cast<std::size_t>(s)];
    log.push_back({engine.shard(s).now(), log.size(), 0});
  };
  // Shard 0: a self-re-arming actor every 3 us.
  std::function<void()> busy = [&] {
    note(0);
    engine.shard(0).schedule_after(common::from_us(3.0), busy);
  };
  engine.shard(0).schedule_at(common::from_us(1.0), busy);

  std::function<void()> tick = [&] {
    Simulator& ctl = engine.control();
    ++out.control_events;
    control_log.push_back({ctl.now(), control_log.size(), 0});
    for (int g = 0; g < engine.device_shards(); ++g) {
      if (engine.published_head(g) != engine.shard(g).next_event_time()) {
        ++out.head_mismatches;
      }
      if (engine.shard(g).now() != ctl.now()) ++out.clock_mismatches;
    }
    // A rare placement onto an idle shard keeps it idle for many windows.
    if (rng.uniform(0.0, 1.0) < 0.02) {
      const int g = static_cast<int>(
          rng.uniform_int(1, engine.device_shards() - 1));
      engine.shard(g).schedule_at(ctl.now() + common::from_us(2.0),
                                  [&note, g] { note(g); });
    }
    if (ctl.now() == common::from_us(500.0)) {
      const int g = engine.add_shard();  // joins idle, at fleet time
      engine.shard(g).schedule_at(ctl.now() + common::from_us(40.0),
                                  [&note, g] { note(g); });
    }
    ctl.schedule_after(common::from_us(5.0), tick);
  };
  engine.control().schedule_at(common::from_us(5.0), tick);

  out.executed = engine.run_until(common::from_ms(2.0));
  out.stats = engine.stats();
  out.digest = fnv1a(control_log.data(), control_log.size() * sizeof(LogEntry));
  for (const auto& log : logs) {
    out.digest = fnv1a(log.data(), log.size() * sizeof(LogEntry), out.digest);
  }
  return out;
}

TEST(ShardedDifferential, IdleShardsPublishHeadsAndFollowTheControlClock) {
  const IdleFleetRun one = run_idle_fleet(1);
  ASSERT_GT(one.control_events, 300);
  for (const int threads : {1, 2, 4}) {
    const IdleFleetRun r = run_idle_fleet(threads);
    EXPECT_EQ(r.head_mismatches, 0) << threads << " lanes";
    EXPECT_EQ(r.clock_mismatches, 0) << threads << " lanes";
    EXPECT_EQ(r.digest, one.digest) << threads << " lanes";
    EXPECT_EQ(r.executed, one.executed) << threads << " lanes";
    // Which shards run in a window depends only on their heads, so the
    // barrier counts repeat at every lane count, and idle shards are not
    // visited: far fewer runs than windows x shards.
    EXPECT_EQ(r.stats.windows_dispatched, one.stats.windows_dispatched);
    EXPECT_EQ(r.stats.windows_skipped, one.stats.windows_skipped);
    EXPECT_EQ(r.stats.shard_runs, one.stats.shard_runs);
    EXPECT_LT(r.stats.shard_runs, 2 * r.stats.windows_dispatched)
        << threads << " lanes";
  }
}

/// The synthetic fleet with one shard added by add_shard, after a
/// for_each_shard pass that records, per shard, how often and on which
/// thread it ran.
struct PassRun {
  std::vector<int> calls;
  std::vector<std::thread::id> thread;
  int parked_workers = 0;
  SyntheticRun run;
};

PassRun run_after_pass(int threads) {
  constexpr int kShards = 8;
  SyntheticFleet fleet(kShards, threads, 0x5E7Dull);
  EXPECT_EQ(fleet.engine.threads(), threads);
  EXPECT_EQ(fleet.engine.add_shard(), kShards);
  PassRun out;
  out.calls.assign(kShards + 1, 0);
  out.thread.resize(kShards + 1);
  fleet.engine.for_each_shard([&out](int s) {
    ++out.calls[static_cast<std::size_t>(s)];
    out.thread[static_cast<std::size_t>(s)] = std::this_thread::get_id();
  });
  // Workers left cold park once their spin budget runs out.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (fleet.engine.parked_workers() < threads - 1 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  out.parked_workers = fleet.engine.parked_workers();
  out.run.executed = fleet.engine.run_until(common::from_ms(20.0));
  out.run.digest = fleet.digest();
  return out;
}

TEST(ShardedDifferential, ForEachShardRunsEachShardOnceOnItsLane) {
  const PassRun one = run_after_pass(1);
  ASSERT_GT(one.run.executed, 100u);
  for (const int threads : {1, 2, 4, 8}) {
    const PassRun r = run_after_pass(threads);
    const auto lanes = static_cast<std::size_t>(threads);
    for (std::size_t s = 0; s < r.calls.size(); ++s) {
      EXPECT_EQ(r.calls[s], 1) << threads << " lanes, shard " << s;
      // The caller is the last lane; each lane is one thread of its own.
      EXPECT_EQ(r.thread[s] == std::this_thread::get_id(),
                s % lanes == lanes - 1)
          << threads << " lanes, shard " << s;
      for (std::size_t t = 0; t < s; ++t) {
        EXPECT_EQ(r.thread[s] == r.thread[t], s % lanes == t % lanes)
            << threads << " lanes, shards " << t << " and " << s;
      }
    }
    EXPECT_EQ(r.parked_workers, threads - 1) << threads << " lanes";
    EXPECT_EQ(r.run.digest, one.run.digest) << threads << " lanes";
    EXPECT_EQ(r.run.executed, one.run.executed) << threads << " lanes";
  }
}

// --- cluster-level differential -----------------------------------------

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
  // Every counter of the run (the kAdd device is gpu4) and the stage-trace
  // length. Captured from the single-heap engine, then re-captured at
  // 1/2/4 lanes when add_gpu_now began registering the added device's tasks
  // non-resident, a declared behaviour change: the added device now admits
  // LP work instead of reserving the fleet's HP utilisation.
  const std::string want =
      "total_jps=2210;hp_released=1565;hp_accepted=1358;hp_rejected=189;"
      "hp_completed=1011;hp_missed=168;lp_released=3065;lp_accepted=1354;"
      "lp_rejected=1686;lp_completed=978;lp_missed=120;"
      "cross_gpu_migrations=407;drops=1875;infeasible=0;transfers=9;"
      "transferred_mb=761.0665283203125;intra_gpu_migrations=952;"
      "arrivals=4630;steals=804;steal_scans=1123;rehomes=8;"
      "rehome_rounds=4;coalesced=7;coalesced_mb_saved=543.0355224609375;"
      "transfer_cancels=0;jobs_lost=7;unmatched_rows=0;first_attempts=0;"
      "retries=0;retry_admits=0;retry_abandoned_budget=0;"
      "retry_abandoned_expired=0;retry_abandoned_attempts=0;hedges=0;"
      "hedge_wins=0;hedge_cancels=0;hedge_waste=0;hedge_rescued=0;"
      "hedge_client_p99_ms=0;breaker_opens=0;breaker_closes=0;"
      "conservation=1;gpu0_utilization=0.74751190069245532;"
      "gpu0_completed=593;gpu0_intra_migrations=219;gpu0_routed=1079;"
      "gpu0_home_admits=420;gpu0_migrated_in=93;gpu0_migrated_out=128;"
      "gpu0_dropped=531;gpu0_infeasible=0;gpu0_transfers_in=2;"
      "gpu0_transferred_mb=162.90234375;gpu0_steals_in=199;"
      "gpu0_steals_out=112;gpu0_coalesced=0;gpu0_coalesced_mb=0;"
      "gpu1_utilization=0.4503272492392858;gpu1_completed=357;"
      "gpu1_intra_migrations=151;gpu1_routed=376;gpu1_home_admits=169;"
      "gpu1_migrated_in=88;gpu1_migrated_out=17;gpu1_dropped=190;"
      "gpu1_infeasible=0;gpu1_transfers_in=2;"
      "gpu1_transferred_mb=162.90234375;gpu1_steals_in=187;"
      "gpu1_steals_out=80;gpu1_coalesced=1;"
      "gpu1_coalesced_mb=44.551513671875;"
      "gpu2_utilization=1.0673078834118506;gpu2_completed=646;"
      "gpu2_intra_migrations=165;gpu2_routed=1159;gpu2_home_admits=693;"
      "gpu2_migrated_in=24;gpu2_migrated_out=88;gpu2_dropped=378;"
      "gpu2_infeasible=0;gpu2_transfers_in=1;"
      "gpu2_transferred_mb=90.7864990234375;gpu2_steals_in=136;"
      "gpu2_steals_out=196;gpu2_coalesced=1;"
      "gpu2_coalesced_mb=90.7864990234375;"
      "gpu3_utilization=0.81996832281585252;gpu3_completed=948;"
      "gpu3_intra_migrations=399;gpu3_routed=1980;gpu3_home_admits=1037;"
      "gpu3_migrated_in=117;gpu3_migrated_out=174;gpu3_dropped=769;"
      "gpu3_infeasible=0;gpu3_transfers_in=1;"
      "gpu3_transferred_mb=90.7864990234375;gpu3_steals_in=224;"
      "gpu3_steals_out=415;gpu3_coalesced=1;"
      "gpu3_coalesced_mb=90.7864990234375;"
      "gpu4_utilization=0.20225332056224393;gpu4_completed=161;"
      "gpu4_intra_migrations=18;gpu4_routed=36;gpu4_home_admits=29;"
      "gpu4_migrated_in=85;gpu4_migrated_out=0;gpu4_dropped=7;"
      "gpu4_infeasible=0;gpu4_transfers_in=3;"
      "gpu4_transferred_mb=253.6888427734375;gpu4_steals_in=58;"
      "gpu4_steals_out=1;gpu4_coalesced=4;"
      "gpu4_coalesced_mb=316.9110107421875;";
  for (const int threads : {1, 2, 4}) {
    exp::ClusterConfig cfg = differential_cluster_config();
    cfg.sim_threads = threads;
    const exp::ClusterResult r = exp::run_cluster(cfg);
    EXPECT_EQ(cluster::counters_text(r), want) << threads << " lanes";
    EXPECT_EQ(r.stage_trace.size(), 10877u) << threads << " lanes";
  }
}

// --- chaos-schedule fuzz -------------------------------------------------

/// A randomized-but-seeded adversarial config: fuzzed fault schedule (kind,
/// target, time, severity all drawn from `seed`), rebalancing coin-flipped,
/// and the resilience layer armed with fuzzed retries and coin-flipped
/// budget and hedging. Everything the fleet ships, colliding on one run.
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

  // Five draws are discarded (the last was the retired breaker's coin; two
  // were the retired separate LP retry policy's) so that each seed's
  // budget and hedge coin flips stay the ones the goldens below were
  // captured with.
  cfg.resilience.enabled = true;
  (void)rng.uniform(0.0, 1.0);  // discarded
  cfg.resilience.retry.max_attempts = static_cast<int>(rng.uniform_int(2, 5));
  (void)rng.uniform_int(2, 5);  // discarded
  cfg.resilience.retry.base_delay_us = rng.uniform(100.0, 800.0);
  (void)rng.uniform(100.0, 800.0);  // discarded
  cfg.resilience.budget_enabled = rng.uniform(0.0, 1.0) < 0.7;
  (void)rng.uniform(0.05, 0.5);  // discarded
  cfg.resilience.hedge = rng.uniform(0.0, 1.0) < 0.5;
  (void)rng.uniform(0.0, 1.0);  // discarded
  return cfg;
}

TEST(ShardedDifferential, ChaosScheduleConservesAndMatchesAcrossLanes) {
  // Fault schedule x rebalancing x retries/hedging, fuzzed per
  // seed: however the chaos lands, (a) every job must be conserved, (b)
  // every lane count must reproduce the golden counters exactly, and (c)
  // every scheduler's cached Eq. 2 totals must equal their stage sums at
  // end of run (rt::Scheduler::audit), kSlow and kAdd re-seeds included.
  // Seed 3 exercises retries and budget abandons, seed 11 retries and
  // hedges, and 0xABCD retries and hedges. The goldens were re-captured at
  // every lane count when one retry policy replaced the per-class pair
  // (LP jobs now retry with what was the HP draw).
  struct Golden {
    std::uint64_t seed;
    const char* counters;
  };
  const Golden golden[] = {
      {3ull,
       "total_jps=1642.2222222222222;hp_released=1461;hp_accepted=1145;"
       "hp_rejected=287;hp_completed=862;hp_missed=80;lp_released=2981;"
       "lp_accepted=854;lp_rejected=2123;lp_completed=616;lp_missed=126;"
       "cross_gpu_migrations=238;drops=2410;infeasible=0;transfers=7;"
       "transferred_mb=579.4935302734375;intra_gpu_migrations=422;"
       "arrivals=4039;steals=0;steal_scans=0;rehomes=0;rehome_rounds=0;"
       "coalesced=0;coalesced_mb_saved=0;transfer_cancels=0;jobs_lost=0;"
       "unmatched_rows=0;first_attempts=4039;retries=403;retry_admits=23;"
       "retry_abandoned_budget=2002;retry_abandoned_expired=0;"
       "retry_abandoned_attempts=0;hedges=0;hedge_wins=0;hedge_cancels=0;"
       "hedge_waste=0;hedge_rescued=0;hedge_client_p99_ms=0;breaker_opens=0;"
       "breaker_closes=0;conservation=1;gpu0_utilization=0.76076084313049153;"
       "gpu0_completed=623;gpu0_intra_migrations=183;gpu0_routed=1398;"
       "gpu0_home_admits=456;gpu0_migrated_in=184;gpu0_migrated_out=8;"
       "gpu0_dropped=934;gpu0_infeasible=0;gpu0_transfers_in=3;"
       "gpu0_transferred_mb=281.253173828125;gpu0_steals_in=0;"
       "gpu0_steals_out=0;gpu0_coalesced=0;gpu0_coalesced_mb=0;"
       "gpu1_utilization=1.2342148412466158;gpu1_completed=318;"
       "gpu1_intra_migrations=45;gpu1_routed=674;gpu1_home_admits=290;"
       "gpu1_migrated_in=44;gpu1_migrated_out=50;gpu1_dropped=334;"
       "gpu1_infeasible=0;gpu1_transfers_in=2;"
       "gpu1_transferred_mb=89.10302734375;gpu1_steals_in=0;gpu1_steals_out=0;"
       "gpu1_coalesced=0;gpu1_coalesced_mb=0;"
       "gpu2_utilization=0.66824123175953187;gpu2_completed=1058;"
       "gpu2_intra_migrations=194;gpu2_routed=2370;gpu2_home_admits=1048;"
       "gpu2_migrated_in=10;gpu2_migrated_out=180;gpu2_dropped=1142;"
       "gpu2_infeasible=0;gpu2_transfers_in=2;"
       "gpu2_transferred_mb=209.1373291015625;gpu2_steals_in=0;"
       "gpu2_steals_out=0;gpu2_coalesced=0;gpu2_coalesced_mb=0;"},
      {11ull,
       "total_jps=1616.6666666666665;hp_released=1396;hp_accepted=994;"
       "hp_rejected=396;hp_completed=750;hp_missed=14;lp_released=4130;"
       "lp_accepted=957;lp_rejected=3145;lp_completed=705;lp_missed=95;"
       "cross_gpu_migrations=222;drops=3541;infeasible=0;transfers=9;"
       "transferred_mb=714.83154296875;intra_gpu_migrations=446;arrivals=3085;"
       "steals=0;steal_scans=0;rehomes=0;rehome_rounds=0;coalesced=0;"
       "coalesced_mb_saved=0;transfer_cancels=0;jobs_lost=0;unmatched_rows=0;"
       "first_attempts=3085;retries=2366;retry_admits=51;"
       "retry_abandoned_budget=0;retry_abandoned_expired=0;"
       "retry_abandoned_attempts=1140;hedges=40;hedge_wins=17;hedge_cancels=14;"
       "hedge_waste=26;hedge_rescued=3;hedge_client_p99_ms=73.395107999999993;"
       "breaker_opens=0;breaker_closes=0;conservation=1;"
       "gpu0_utilization=1.0784180033804647;gpu0_completed=291;"
       "gpu0_intra_migrations=47;gpu0_routed=754;gpu0_home_admits=236;"
       "gpu0_migrated_in=63;gpu0_migrated_out=3;gpu0_dropped=515;"
       "gpu0_infeasible=0;gpu0_transfers_in=3;"
       "gpu0_transferred_mb=281.253173828125;gpu0_steals_in=0;"
       "gpu0_steals_out=0;gpu0_coalesced=0;gpu0_coalesced_mb=0;"
       "gpu1_utilization=0.74876214582021494;gpu1_completed=437;"
       "gpu1_intra_migrations=90;gpu1_routed=1457;gpu1_home_admits=329;"
       "gpu1_migrated_in=114;gpu1_migrated_out=78;gpu1_dropped=1050;"
       "gpu1_infeasible=0;gpu1_transfers_in=3;"
       "gpu1_transferred_mb=133.654541015625;gpu1_steals_in=0;"
       "gpu1_steals_out=0;gpu1_coalesced=0;gpu1_coalesced_mb=0;"
       "gpu2_utilization=0.81221884990484172;gpu2_completed=1223;"
       "gpu2_intra_migrations=309;gpu2_routed=3315;gpu2_home_admits=1198;"
       "gpu2_migrated_in=45;gpu2_migrated_out=141;gpu2_dropped=1976;"
       "gpu2_infeasible=0;gpu2_transfers_in=3;"
       "gpu2_transferred_mb=299.923828125;gpu2_steals_in=0;gpu2_steals_out=0;"
       "gpu2_coalesced=0;gpu2_coalesced_mb=0;"},
      {0xABCDull,
       "total_jps=1944.4444444444443;hp_released=1008;hp_accepted=906;"
       "hp_rejected=90;hp_completed=722;hp_missed=15;lp_released=2479;"
       "lp_accepted=1336;lp_rejected=1112;lp_completed=1028;lp_missed=56;"
       "cross_gpu_migrations=311;drops=1202;infeasible=0;transfers=19;"
       "transferred_mb=1427.9796142578125;intra_gpu_migrations=386;"
       "arrivals=3172;steals=0;steal_scans=0;rehomes=0;rehome_rounds=0;"
       "coalesced=0;coalesced_mb_saved=0;transfer_cancels=0;jobs_lost=0;"
       "unmatched_rows=0;first_attempts=3172;retries=279;retry_admits=1;"
       "retry_abandoned_budget=829;retry_abandoned_expired=0;"
       "retry_abandoned_attempts=278;hedges=28;hedge_wins=17;hedge_cancels=7;"
       "hedge_waste=21;hedge_rescued=4;hedge_client_p99_ms=38.653979999999997;"
       "breaker_opens=0;breaker_closes=0;conservation=1;"
       "gpu0_utilization=0.63639359689213271;gpu0_completed=381;"
       "gpu0_intra_migrations=42;gpu0_routed=418;gpu0_home_admits=281;"
       "gpu0_migrated_in=104;gpu0_migrated_out=0;gpu0_dropped=137;"
       "gpu0_infeasible=0;gpu0_transfers_in=2;gpu0_transferred_mb=162.90234375;"
       "gpu0_steals_in=0;gpu0_steals_out=0;gpu0_coalesced=0;"
       "gpu0_coalesced_mb=0;gpu1_utilization=0.76686188394144816;"
       "gpu1_completed=385;gpu1_intra_migrations=74;gpu1_routed=774;"
       "gpu1_home_admits=354;gpu1_migrated_in=43;gpu1_migrated_out=170;"
       "gpu1_dropped=250;gpu1_infeasible=0;gpu1_transfers_in=4;"
       "gpu1_transferred_mb=178.2060546875;gpu1_steals_in=0;gpu1_steals_out=0;"
       "gpu1_coalesced=0;gpu1_coalesced_mb=0;"
       "gpu2_utilization=0.81379024151243795;gpu2_completed=1290;"
       "gpu2_intra_migrations=268;gpu2_routed=2229;gpu2_home_admits=1287;"
       "gpu2_migrated_in=23;gpu2_migrated_out=141;gpu2_dropped=801;"
       "gpu2_infeasible=0;gpu2_transfers_in=2;"
       "gpu2_transferred_mb=209.1373291015625;gpu2_steals_in=0;"
       "gpu2_steals_out=0;gpu2_coalesced=0;gpu2_coalesced_mb=0;"
       "gpu3_utilization=0.19128517199339531;gpu3_completed=120;"
       "gpu3_intra_migrations=2;gpu3_routed=32;gpu3_home_admits=26;"
       "gpu3_migrated_in=98;gpu3_migrated_out=0;gpu3_dropped=6;"
       "gpu3_infeasible=0;gpu3_transfers_in=6;"
       "gpu3_transferred_mb=534.9420166015625;gpu3_steals_in=0;"
       "gpu3_steals_out=0;gpu3_coalesced=0;gpu3_coalesced_mb=0;"
       "gpu4_utilization=0.099737137384964397;gpu4_completed=66;"
       "gpu4_intra_migrations=0;gpu4_routed=34;gpu4_home_admits=26;"
       "gpu4_migrated_in=43;gpu4_migrated_out=0;gpu4_dropped=8;"
       "gpu4_infeasible=0;gpu4_transfers_in=5;"
       "gpu4_transferred_mb=342.7918701171875;gpu4_steals_in=0;"
       "gpu4_steals_out=0;gpu4_coalesced=0;gpu4_coalesced_mb=0;"},
  };
  for (const Golden& g : golden) {
    for (const int threads : {1, 2, 4}) {
      exp::ClusterConfig cfg = chaos_cluster_config(g.seed);
      cfg.sim_threads = threads;
      std::string audit = "not run";
      const exp::ClusterResult r = exp::run_cluster(
          cfg, [&audit](const cluster::Fleet& fleet) {
            audit = cluster::audit_text(fleet);
          });
      EXPECT_TRUE(r.conservation_ok)
          << "seed " << g.seed << ", " << threads << " lanes: "
          << r.conservation_detail;
      EXPECT_EQ(audit, "") << "seed " << g.seed << ", " << threads
                           << " lanes";
      EXPECT_EQ(cluster::counters_text(r), g.counters)
          << "seed " << g.seed << ", " << threads << " lanes";
      EXPECT_TRUE(r.stage_trace.empty());  // stage tracing is off
    }
  }
}

TEST(ShardedDifferential, ScenarioFingerprintAndTelemetryDigestMatchGolden) {
  // One full scenario through the public API: the fingerprint string and
  // the telemetry digest must equal the committed ones (the same values
  // .baseline_scenarios.json holds) at 1, 2, and auto lanes. Every value
  // is the single-heap engine's; the text was re-captured once when the
  // fingerprint became the full counter list, and the digest once when the
  // sampler lost its always-zero per-GPU breaker track.
  // (scripts/check_scenarios.py --baseline gates the whole matrix in CI.)
  const std::string want_fingerprint =
      "total_jps=2656;hp_released=5230;hp_accepted=4190;hp_rejected=1003;"
      "hp_completed=3543;hp_missed=46;lp_released=10083;lp_accepted=3679;"
      "lp_rejected=6374;lp_completed=3097;lp_missed=478;"
      "cross_gpu_migrations=1738;drops=7377;infeasible=0;transfers=8;"
      "transferred_mb=642.7156982421875;intra_gpu_migrations=2247;"
      "arrivals=15313;steals=0;steal_scans=0;rehomes=0;rehome_rounds=0;"
      "coalesced=0;coalesced_mb_saved=0;transfer_cancels=0;jobs_lost=0;"
      "unmatched_rows=0;first_attempts=0;retries=0;retry_admits=0;"
      "retry_abandoned_budget=0;retry_abandoned_expired=0;"
      "retry_abandoned_attempts=0;hedges=0;hedge_wins=0;hedge_cancels=0;"
      "hedge_waste=0;hedge_rescued=0;hedge_client_p99_ms=0;"
      "breaker_opens=0;breaker_closes=0;conservation=1;"
      "gpu0_utilization=0.81241201792939532;gpu0_completed=1435;"
      "gpu0_intra_migrations=581;gpu0_routed=1916;gpu0_home_admits=813;"
      "gpu0_migrated_in=636;gpu0_migrated_out=69;gpu0_dropped=1034;"
      "gpu0_infeasible=0;gpu0_transfers_in=2;"
      "gpu0_transferred_mb=162.90234375;gpu0_steals_in=0;"
      "gpu0_steals_out=0;gpu0_coalesced=0;gpu0_coalesced_mb=0;"
      "gpu1_utilization=0.80662354942182501;gpu1_completed=1480;"
      "gpu1_intra_migrations=579;gpu1_routed=1996;gpu1_home_admits=776;"
      "gpu1_migrated_in=717;gpu1_migrated_out=67;gpu1_dropped=1153;"
      "gpu1_infeasible=0;gpu1_transfers_in=3;"
      "gpu1_transferred_mb=207.453857421875;gpu1_steals_in=0;"
      "gpu1_steals_out=0;gpu1_coalesced=0;gpu1_coalesced_mb=0;"
      "gpu2_utilization=0.83360165759203797;gpu2_completed=2517;"
      "gpu2_intra_migrations=558;gpu2_routed=5718;gpu2_home_admits=2336;"
      "gpu2_migrated_in=198;gpu2_migrated_out=774;gpu2_dropped=2608;"
      "gpu2_infeasible=0;gpu2_transfers_in=1;"
      "gpu2_transferred_mb=90.7864990234375;gpu2_steals_in=0;"
      "gpu2_steals_out=0;gpu2_coalesced=0;gpu2_coalesced_mb=0;"
      "gpu3_utilization=0.83327393397941019;gpu3_completed=2437;"
      "gpu3_intra_migrations=529;gpu3_routed=5683;gpu3_home_admits=2273;"
      "gpu3_migrated_in=187;gpu3_migrated_out=828;gpu3_dropped=2582;"
      "gpu3_infeasible=0;gpu3_transfers_in=2;"
      "gpu3_transferred_mb=181.572998046875;gpu3_steals_in=0;"
      "gpu3_steals_out=0;gpu3_coalesced=0;gpu3_coalesced_mb=0;"
      "stages=31571;context_switches=773;gpu_migrations=2174;"
      "starved_stages=107;worst_stall_us=6960.3559999999998;";
  const std::uint64_t want_digest = 0xa8bfd8969de6ae6cull;
  const std::string data_dir = DARIS_TEST_DATA_DIR;
  for (const int threads : {1, 2, 0}) {
    const exp::ScenarioResult r = exp::run_scenario(
        "overload-storm", data_dir, /*telemetry=*/true, threads);
    EXPECT_EQ(r.fingerprint, want_fingerprint) << threads << " lanes";
    EXPECT_EQ(r.telemetry_digest, want_digest) << threads << " lanes";
  }
}

}  // namespace
}  // namespace daris::sim
