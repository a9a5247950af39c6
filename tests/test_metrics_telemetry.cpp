// Telemetry layer (docs/OBSERVABILITY.md): the time-series sampler's
// cadence, stop, and JSON shape; the structured event log's fold back to
// RoutingCounters and FleetCounters — pinned against the live collector
// counters over real cluster runs, the property that makes the log the
// source of truth; and the end-to-end capture run_cluster wires up.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "experiments/cluster_runner.h"
#include "metrics/eventlog.h"
#include "metrics/timeseries.h"
#include "sim/simulator.h"
#include "workload/taskset.h"

namespace daris::metrics {
namespace {

TEST(TimeSeries, SamplesEveryPeriodOverTheHorizon) {
  sim::Simulator sim;
  double gauge = 0.0;
  TimeSeries ts;
  const int track = ts.add_track("g", -1, [&gauge] { return gauge; });
  sim.schedule_at(common::from_us(55.0), [&gauge] { gauge = 1.0; });
  ts.start(sim, common::from_us(10.0), common::from_us(100.0));
  sim.run();
  // Ticks at 0, 10, ..., 100 inclusive.
  ASSERT_EQ(ts.size(), 11u);
  EXPECT_EQ(ts.stamp(0), 0);
  EXPECT_EQ(ts.stamp(10), common::from_us(100.0));
  // The probe reads live state: samples before the t=55 mutation see 0.
  EXPECT_DOUBLE_EQ(ts.value(track, 5), 0.0);
  EXPECT_DOUBLE_EQ(ts.value(track, 6), 1.0);
}

TEST(TimeSeries, StopIsIdempotentAndKeepsSamples) {
  sim::Simulator sim;
  TimeSeries ts;
  ts.add_track("g", -1, [] { return 2.0; });
  ts.start(sim, common::from_us(10.0), common::from_us(50.0));
  sim.run();
  const std::size_t held = ts.size();
  ts.stop();
  ts.stop();
  EXPECT_EQ(ts.size(), held);
}

TEST(TimeSeries, AppendJsonShape) {
  TimeSeries ts;
  ts.add_track("gpu/util", 0, [] { return 0.5; });
  ts.sample_now(common::from_us(10.0));
  ts.sample_now(common::from_us(20.0));
  std::string json;
  ts.append_json(&json);
  EXPECT_NE(json.find("\"period_us\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"gpu/util\", \"device\": 0"),
            std::string::npos);
  EXPECT_NE(json.find("[10, 0.5], [20, 0.5]"), std::string::npos);
}

TEST(EventLogFold, MirrorsLiveCounterSemantics) {
  EventLog log;
  log.append(0, EventKind::kAdmit, EventCause::kHomeAdmit, 0, -1, 1);
  log.append(1, EventKind::kReject, EventCause::kInfeasible, 0, -1, 2);
  log.append(2, EventKind::kReject, EventCause::kBacklog, 0, -1, 3);
  log.append(3, EventKind::kReject, EventCause::kPeerReject, 1, -1, 4);
  log.append(4, EventKind::kMigrate, EventCause::kSpill, 0, 1, 5);
  log.append(5, EventKind::kTransfer, EventCause::kColdModel, 1, -1, 5, 44.5);
  // Lifecycle records carry no routing counts.
  log.append(6, EventKind::kFault, EventCause::kFailStop, 1, -1, -1, 3.0);
  log.append(7, EventKind::kRehome, EventCause::kNone, 1, 0, 5);
  log.append(8, EventKind::kDrain, EventCause::kScaleDown, 0);
  const auto fold = log.fold_counts(2).per_gpu;
  ASSERT_EQ(fold.size(), 2u);
  EXPECT_EQ(fold[0].routed, 4u);  // admit + infeasible + backlog + migrate
  EXPECT_EQ(fold[0].home_admits, 1u);
  EXPECT_EQ(fold[0].infeasible, 1u);
  EXPECT_EQ(fold[0].dropped, 1u);  // backlog guard, NOT the infeasible shed
  EXPECT_EQ(fold[0].migrated_out, 1u);
  EXPECT_EQ(fold[0].migrated_in, 0u);
  EXPECT_EQ(fold[1].routed, 1u);
  EXPECT_EQ(fold[1].dropped, 1u);
  EXPECT_EQ(fold[1].migrated_in, 1u);
  EXPECT_EQ(fold[1].transfers_in, 1u);
  EXPECT_DOUBLE_EQ(fold[1].transferred_mb, 44.5);
  const FleetCounters fleet = log.fold_counts(2).fleet;
  EXPECT_EQ(fleet.drops, 3u);
  EXPECT_EQ(fleet.infeasible_rejects, 1u);
  EXPECT_EQ(fleet.cross_gpu_migrations, 1u);
  EXPECT_EQ(fleet.transfers, 1u);
  EXPECT_EQ(fleet.jobs_lost, 3u);
  EXPECT_EQ(fleet.rehomes, 0u);  // a fault's rehome is not a demand shift
}

TEST(EventLogFold, OutOfRangeDevicesAreIgnored) {
  EventLog log;
  log.append(0, EventKind::kAdmit, EventCause::kHomeAdmit, 5);
  log.append(1, EventKind::kMigrate, EventCause::kSpill, 0, 9, 2);
  const auto fold = log.fold_counts(1).per_gpu;
  ASSERT_EQ(fold.size(), 1u);
  EXPECT_EQ(fold[0].routed, 1u);
  EXPECT_EQ(fold[0].migrated_out, 1u);  // the in-range half still counts
  EXPECT_TRUE(log.fold_counts(0).per_gpu.empty());
  EXPECT_EQ(log.fold_counts(0).fleet.cross_gpu_migrations, 1u);  // all
}

/// An overloaded heterogeneous-arrival fleet with telemetry on. Zero-delay
/// transfers so no transfer is in flight when the horizon cuts the run —
/// the precondition for exact fold == live equality.
exp::ClusterResult telemetry_run() {
  exp::ClusterConfig cfg;
  cfg.taskset = workload::replicated_taskset(workload::mixed_taskset(), 3);
  cfg.sched.policy = rt::Policy::kMps;
  cfg.sched.num_contexts = 4;
  cfg.sched.oversubscription = 4.0;
  cfg.num_gpus = 3;
  cfg.arrivals = exp::ArrivalMode::kPoisson;
  cfg.rate_scale = 2.5;  // overload: forces rejects, spills, migrations
  cfg.duration_s = 1.0;
  cfg.warmup_s = 0.25;
  cfg.transfer_us_per_mb = 0.0;
  cfg.telemetry.enabled = true;
  cfg.telemetry.sample_period_s = 0.01;
  return exp::run_cluster(cfg);
}

TEST(TelemetryCluster, FoldedEventLogMatchesLiveRoutingCounters) {
  const exp::ClusterResult r = telemetry_run();
  ASSERT_FALSE(r.events.events().empty());
  const auto fold =
      r.events.fold_counts(static_cast<int>(r.per_gpu.size())).per_gpu;
  ASSERT_EQ(fold.size(), r.per_gpu.size());
  std::uint64_t migrations = 0;
  for (std::size_t g = 0; g < fold.size(); ++g) {
    const RoutingCounters& live = r.per_gpu[g].routing;
    EXPECT_EQ(fold[g].routed, live.routed) << "gpu " << g;
    EXPECT_EQ(fold[g].home_admits, live.home_admits) << "gpu " << g;
    EXPECT_EQ(fold[g].migrated_in, live.migrated_in) << "gpu " << g;
    EXPECT_EQ(fold[g].migrated_out, live.migrated_out) << "gpu " << g;
    EXPECT_EQ(fold[g].dropped, live.dropped) << "gpu " << g;
    EXPECT_EQ(fold[g].infeasible, live.infeasible) << "gpu " << g;
    EXPECT_EQ(fold[g].transfers_in, live.transfers_in) << "gpu " << g;
    EXPECT_DOUBLE_EQ(fold[g].transferred_mb, live.transferred_mb)
        << "gpu " << g;
    migrations += fold[g].migrated_in;
  }
  EXPECT_GT(migrations, 0u)
      << "the overload config must actually exercise the migration records";
}

/// Every record-implied FleetCounters field as (name, value), in
/// declaration order (the measured ones have no record to fold).
std::vector<std::pair<const char*, double>> fields_of(const FleetCounters& f) {
  return {{"cross_gpu_migrations", f.cross_gpu_migrations},
          {"drops", f.drops},
          {"infeasible_rejects", f.infeasible_rejects},
          {"transfers", f.transfers},
          {"transferred_mb", f.transferred_mb},
          {"coalesced_transfers", f.coalesced_transfers},
          {"coalesced_mb_saved", f.coalesced_mb_saved},
          {"steals", f.steals},
          {"rehomes", f.rehomes},
          {"jobs_lost", f.jobs_lost},
          {"retries", f.retries},
          {"retry_abandoned_budget", f.retry_abandoned_budget},
          {"retry_abandoned_expired", f.retry_abandoned_expired},
          {"retry_abandoned_attempts", f.retry_abandoned_attempts},
          {"hedges", f.hedges},
          {"hedge_wins", f.hedge_wins},
          {"hedge_cancels", f.hedge_cancels}};
}

/// A bursty 1.5 s run with the event log on (the resilience suite's
/// overloaded fleet).
exp::ClusterConfig logged_config(int num_gpus, double rate_scale) {
  exp::ClusterConfig cfg;
  cfg.taskset =
      workload::replicated_taskset(workload::mixed_taskset(), num_gpus);
  cfg.sched.policy = rt::Policy::kMps;
  cfg.sched.num_contexts = 4;
  cfg.sched.oversubscription = 4.0;
  cfg.num_gpus = num_gpus;
  cfg.routing = cluster::RoutingPolicy::kHybrid;
  cfg.arrivals = exp::ArrivalMode::kBursty;
  cfg.rate_scale = rate_scale;
  cfg.duration_s = 1.5;
  cfg.warmup_s = 0.3;
  cfg.telemetry.enabled = true;
  cfg.telemetry.sample_period_s = 0.05;
  return cfg;
}

exp::FaultSpec fault_at(exp::FaultSpec::Kind kind, int gpu, double at_s,
                        double factor = 1.0) {
  exp::FaultSpec f;
  f.kind = kind;
  f.gpu = gpu;
  f.at_s = at_s;
  f.factor = factor;
  return f;
}

TEST(TelemetryCluster, FoldedEventLogMatchesLiveFleetCounters) {
  std::vector<exp::ClusterConfig> configs;
  // Retry storm with the self-healing stack and a drain: retries abandoned
  // for budget and attempts, steals, demand re-homes, coalesced transfers.
  exp::ClusterConfig storm = logged_config(3, 1.4);
  storm.resilience.enabled = true;
  storm.rebalance.enabled = true;
  storm.faults = {fault_at(exp::FaultSpec::Kind::kDrain, 0, 0.5)};
  configs.push_back(storm);
  // Retries whose backoff outlives every deadline: all abandoned expired.
  exp::ClusterConfig late = logged_config(3, 1.4);
  late.resilience.enabled = true;
  late.resilience.retry = {3, 500000.0, 500000.0};
  configs.push_back(late);
  // A straggler that recovers under hedging: hedge launches, wins and
  // cancels.
  exp::ClusterConfig sick = logged_config(4, 0.5);
  sick.arrivals = exp::ArrivalMode::kPoisson;
  sick.duration_s = 2.5;
  sick.faults = {fault_at(exp::FaultSpec::Kind::kSlow, 0, 0.5, 0.1),
                 fault_at(exp::FaultSpec::Kind::kSlow, 0, 1.0, 10.0)};
  sick.resilience.enabled = true;
  sick.resilience.retry.max_attempts = 1;
  sick.resilience.hedge = true;
  configs.push_back(sick);
  // Fail-stop, then the last healthy device drains: lost jobs, and every
  // later release is infeasible.
  exp::ClusterConfig dying = logged_config(2, 1.0);
  dying.faults = {fault_at(exp::FaultSpec::Kind::kFail, 1, 0.6),
                  fault_at(exp::FaultSpec::Kind::kDrain, 0, 1.0)};
  configs.push_back(dying);

  // Per field: the largest value any run reached.
  auto max_seen = fields_of(FleetCounters{});
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const exp::ClusterResult r = exp::run_cluster(configs[i]);
    ASSERT_TRUE(r.error.empty()) << r.error;
    ASSERT_FALSE(r.events.events().empty());
    const auto fold =
        fields_of(r.events.fold_counts(static_cast<int>(r.per_gpu.size()))
                      .fleet);
    const auto live = fields_of(r);
    for (std::size_t k = 0; k < fold.size(); ++k) {
      EXPECT_EQ(fold[k].second, live[k].second)
          << "run " << i << " field " << fold[k].first;
      max_seen[k].second = std::max(max_seen[k].second, live[k].second);
    }
  }
  for (const auto& [name, value] : max_seen) {
    EXPECT_GT(value, 0.0) << name << " stayed zero in every run";
  }
}

TEST(TelemetryCluster, CaptureCarriesDocumentedTracksAndProfile) {
  const exp::ClusterResult r = telemetry_run();
  ASSERT_GT(r.timeseries.track_count(), 0);
  ASSERT_GT(r.timeseries.size(), 0u);
  std::set<std::string> names;
  for (int t = 0; t < r.timeseries.track_count(); ++t) {
    names.insert(r.timeseries.track_name(t));
  }
  for (const char* expected :
       {"gpu/util", "gpu/queue_hp", "gpu/queue_lp", "gpu/hot_models",
        "gpu/transfers_in", "gpu/health", "fleet/backlog", "fleet/hp_dmr_w",
        "fleet/lp_dmr_w", "fleet/jobs_lost"}) {
    EXPECT_TRUE(names.count(expected) == 1) << "missing track " << expected;
  }
  EXPECT_GT(r.profile.events_executed, 0u);
  EXPECT_GT(r.profile.pool_slots, 0u);
  EXPECT_GT(r.profile.solver_flushes, 0u);
  EXPECT_GE(r.profile.wall_ms_total, r.profile.wall_ms_run);
}

TEST(TelemetryCluster, DisabledByDefaultLeavesCaptureEmpty) {
  exp::ClusterConfig cfg;
  cfg.taskset = workload::replicated_taskset(workload::mixed_taskset(), 2);
  cfg.num_gpus = 2;
  cfg.duration_s = 0.5;
  cfg.warmup_s = 0.1;
  const exp::ClusterResult r = exp::run_cluster(cfg);
  EXPECT_EQ(r.timeseries.track_count(), 0);
  EXPECT_TRUE(r.events.events().empty());
  EXPECT_GT(r.profile.events_executed, 0u)
      << "the self-profiler is unconditional";
}

}  // namespace
}  // namespace daris::metrics
