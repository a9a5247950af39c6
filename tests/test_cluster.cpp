// Cluster layer: routing policy selection, cross-GPU migration on admission
// failure, fleet-wide backlog shedding, and fleet determinism.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cluster/router.h"
#include "common/rng.h"
#include "fleet_harness.h"
#include "workload/taskset.h"

namespace daris::cluster {
namespace {

using common::Priority;

TEST(Router, RoundRobinCyclesGpusForLpJobs) {
  Harness h(2);
  // Four light LP tasks, one release each: round-robin must alternate GPUs.
  for (int i = 0; i < 4; ++i) h.add_task(Priority::kLow, 500.0, i % 2);
  h.fleet->run_offline_phase();
  Router router(*h.fleet, RoutingPolicy::kRoundRobin, 1, &h.collector);
  for (int i = 0; i < 4; ++i) router.release(i);
  EXPECT_EQ(h.collector.routing(0).routed, 2u);
  EXPECT_EQ(h.collector.routing(1).routed, 2u);
  EXPECT_EQ(h.collector.routing(0).home_admits, 2u);
  EXPECT_EQ(h.collector.routing(1).home_admits, 2u);
  EXPECT_EQ(router.drops(), 0u);
}

TEST(Router, ModelAffinityRoutesToHomeGpu) {
  Harness h(2);
  const int a = h.add_task(Priority::kLow, 500.0, /*home_gpu=*/1);
  const int b = h.add_task(Priority::kLow, 500.0, /*home_gpu=*/0);
  h.fleet->run_offline_phase();
  Router router(*h.fleet, RoutingPolicy::kModelAffinity, 1, &h.collector);
  router.release(a);
  router.release(b);
  EXPECT_EQ(h.collector.routing(1).routed, 1u);
  EXPECT_EQ(h.collector.routing(0).routed, 1u);
  EXPECT_EQ(h.fleet->scheduler(1).jobs_in_flight(), 1u);
  EXPECT_EQ(h.fleet->scheduler(0).jobs_in_flight(), 1u);
}

TEST(Router, HpJobsAlwaysStartAtTheirHomeGpu) {
  Harness h(2);
  const int hp = h.add_task(Priority::kHigh, 500.0, /*home_gpu=*/1);
  h.fleet->run_offline_phase();
  // Round-robin would start at GPU 0; HP placement must ignore the policy.
  Router router(*h.fleet, RoutingPolicy::kRoundRobin, 1, &h.collector);
  router.release(hp);
  EXPECT_EQ(h.collector.routing(1).routed, 1u);
  EXPECT_EQ(h.fleet->scheduler(1).jobs_in_flight(), 1u);
  EXPECT_EQ(h.fleet->scheduler(0).jobs_in_flight(), 0u);
}

TEST(Router, LeastUtilizationPrefersIdleGpu) {
  Harness h(2);
  const int a = h.add_task(Priority::kLow, 3000.0, 0);
  const int b = h.add_task(Priority::kLow, 3000.0, 1);
  h.fleet->run_offline_phase();
  Router router(*h.fleet, RoutingPolicy::kLeastUtilization, 1, &h.collector);
  router.release(a);  // ties break to GPU 0
  EXPECT_GT(h.fleet->load(0), 0.0);
  router.release(b);  // GPU 0 now carries load, so GPU 1 must win
  EXPECT_EQ(h.collector.routing(0).routed, 1u);
  EXPECT_EQ(h.collector.routing(1).routed, 1u);
}

TEST(Router, CrossGpuMigrationOnAdmissionFailure) {
  Harness h(2);
  // Two heavy LP tasks (utilisation ~0.9 each) homed on GPU 0: the second
  // release fails Eq. 12 on every context of GPU 0 and must be offered to
  // the idle peer instead of being dropped.
  const int a = h.add_task(Priority::kLow, 9000.0, 0);
  const int b = h.add_task(Priority::kLow, 9000.0, 0);
  h.fleet->run_offline_phase();
  Router router(*h.fleet, RoutingPolicy::kModelAffinity, 1, &h.collector);
  router.release(a);
  router.release(b);
  EXPECT_EQ(router.cross_gpu_migrations(), 1u);
  EXPECT_EQ(router.drops(), 0u);
  EXPECT_EQ(h.collector.routing(0).migrated_out, 1u);
  EXPECT_EQ(h.collector.routing(1).migrated_in, 1u);
  EXPECT_EQ(h.fleet->scheduler(0).jobs_in_flight(), 1u);
  EXPECT_EQ(h.fleet->scheduler(1).jobs_in_flight(), 1u);
  // GPU 1 was cold for this model: the (zero-delay) migration shipped the
  // weights and pinned them, so the next migration there is transfer-free.
  EXPECT_EQ(router.transfers(), 1u);
  EXPECT_DOUBLE_EQ(router.transferred_mb(), h.model->weight_mb);
  EXPECT_TRUE(h.fleet->model_hot(1, b));
}

TEST(Router, DropsWhenNoPeerCanAdmit) {
  Harness h(1);  // no peer to migrate to
  const int a = h.add_task(Priority::kLow, 9000.0, 0);
  const int b = h.add_task(Priority::kLow, 9000.0, 0);
  h.fleet->run_offline_phase();
  Router router(*h.fleet, RoutingPolicy::kModelAffinity, 1, &h.collector);
  router.release(a);
  router.release(b);
  EXPECT_EQ(router.cross_gpu_migrations(), 0u);
  EXPECT_EQ(router.drops(), 1u);
  EXPECT_EQ(h.collector.routing(0).dropped, 1u);
  EXPECT_EQ(h.collector.summary(Priority::kLow).rejected, 1u);
}

TEST(Router, FleetWideBacklogGuardShedsLpEverywhere) {
  Harness h(2);
  // One light LP task released twice back-to-back: the second release must
  // be shed because a job is already active *somewhere* in the fleet, even
  // though the peer GPU is idle (the paper's single-GPU shedding rule).
  const int a = h.add_task(Priority::kLow, 500.0, 0);
  h.fleet->run_offline_phase();
  Router router(*h.fleet, RoutingPolicy::kLeastUtilization, 1, &h.collector);
  router.release(a);
  router.release(a);
  EXPECT_EQ(router.drops(), 1u);
  EXPECT_EQ(router.cross_gpu_migrations(), 0u);
  EXPECT_EQ(h.fleet->scheduler(1).jobs_in_flight(), 0u);
}

Fleet::ConservationInput conservation_input(const Router& router) {
  Fleet::ConservationInput in;
  for (std::size_t c = 0; c < 2; ++c) {
    const auto p = static_cast<Priority>(c);
    in.released[c] = router.released_of(p);
    in.shed[c] = router.shed_of(p);
    in.pending[c] = router.pending_of(p);
  }
  return in;
}

TEST(Fleet, ActiveJobCountIsSharedByEveryDevice) {
  Harness h(2);
  const int hp = h.add_task(Priority::kHigh, 500.0, 1);
  const int a = h.add_task(Priority::kLow, 9000.0, 0);
  const int b = h.add_task(Priority::kLow, 9000.0, 0);
  h.fleet->run_offline_phase();
  Router router(*h.fleet, RoutingPolicy::kModelAffinity, 1, &h.collector);
  router.release(hp);
  router.release(a);
  router.release(b);  // rejected at home, migrates to GPU 1
  ASSERT_EQ(router.cross_gpu_migrations(), 1u);
  // One shared count per logical task, whichever device admitted the job.
  EXPECT_EQ(h.fleet->active_jobs(hp), 1);
  EXPECT_EQ(h.fleet->active_jobs(a), 1);
  EXPECT_EQ(h.fleet->active_jobs(b), 1);
  EXPECT_EQ(h.fleet->scheduler(0).active_jobs(b), 0);
  EXPECT_EQ(h.fleet->scheduler(1).active_jobs(b), 1);
  EXPECT_TRUE(h.fleet->check_conservation(conservation_input(router)).ok);

  // Finishes on the device shards bring every count back to zero.
  h.sim.run_until(h.sim.now() + common::from_sec(1.0));
  for (const int t : {hp, a, b}) EXPECT_EQ(h.fleet->active_jobs(t), 0);
  EXPECT_TRUE(h.fleet->check_conservation(conservation_input(router)).ok);

  // A device count drifting from the shared one is a conservation failure.
  ++h.fleet->scheduler(1).task(a).active_jobs;
  const Fleet::ConservationReport rep =
      h.fleet->check_conservation(conservation_input(router));
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.detail.find("fleet active count"), std::string::npos)
      << rep.detail;
}

TEST(Fleet, PlacementTableTracksEveryActiveSetChange) {
  // Heterogeneous, so the table divides by a scale other than 1.
  GpuNodeSpec half;
  half.compute_scale = 0.5;
  GpuNodeSpec full;
  Harness h(2, 1, 0.0, 1, {full, half});
  const int a = h.add_task(Priority::kLow, 3000.0, 0);
  const int b = h.add_task(Priority::kLow, 3000.0, 1);
  h.fleet->run_offline_phase();
  auto exact = [&h] {
    for (int g = 0; g < h.fleet->size(); ++g) {
      EXPECT_EQ(h.fleet->placement_score(g),
                h.fleet->load(g) / h.fleet->compute_scale(g))
          << "gpu " << g;
    }
  };
  Router router(*h.fleet, RoutingPolicy::kModelAffinity, 1, &h.collector);
  router.release(a);
  router.release(b);
  EXPECT_GT(h.fleet->placement_score(1), h.fleet->load(1));  // scale 0.5
  exact();
  h.fleet->slow_gpu_now(0, 0.25);  // a new scale, same load
  exact();
  EXPECT_TRUE(h.fleet->check_conservation(conservation_input(router)).ok);
  h.sim.run_until(h.sim.now() + common::from_sec(1.0));  // finishes
  EXPECT_EQ(h.fleet->placement_score(0), 0.0);
  EXPECT_EQ(h.fleet->placement_score(1), 0.0);
  router.release(b);
  h.fleet->fail_gpu_now(1);  // drops the in-flight job
  exact();
  EXPECT_TRUE(h.fleet->check_conservation(conservation_input(router)).ok);

  // A scheduler that stops writing its entry is a conservation failure.
  double stray = 0.0;
  h.fleet->scheduler(0).publish_load(&stray, 1.0);
  router.release(a);
  const Fleet::ConservationReport rep =
      h.fleet->check_conservation(conservation_input(router));
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.detail.find("placement score"), std::string::npos)
      << rep.detail;
}

TEST(Fleet, BestPlaceablePicksTheLowestScoreTiesToTheLowestIndex) {
  Harness h(4);
  const int t = h.add_task(Priority::kLow, 3000.0, 0);
  h.fleet->run_offline_phase();
  EXPECT_EQ(h.fleet->best_placeable(), 0);  // all idle: lowest index
  EXPECT_EQ(h.fleet->best_placeable(/*exclude=*/0), 1);

  // Equal load on GPUs 0 and 1 leaves 2 and 3 tied at zero.
  ASSERT_TRUE(h.fleet->scheduler(0).release_job(t));
  ASSERT_TRUE(h.fleet->scheduler(1).release_job(t));
  EXPECT_EQ(h.fleet->best_placeable(), 2);

  // An unplaceable (here draining) device never wins, nor does the
  // excluded one; between the equally loaded 0 and 1 the lower index wins.
  h.fleet->drain_gpu_now(2);
  EXPECT_EQ(h.fleet->best_placeable(), 3);
  EXPECT_EQ(h.fleet->best_placeable(/*exclude=*/3), 0);
  EXPECT_EQ(h.fleet->best_placeable(-1, [](int g) { return g == 2; }), -1);
  EXPECT_EQ(h.fleet->best_placeable(1, [](int g) { return g == 1; }), -1);

  // A device the predicate rejects never wins, whatever its score.
  EXPECT_EQ(h.fleet->best_placeable(-1, [](int g) { return g < 2; }), 0);
  EXPECT_EQ(h.fleet->best_placeable(0, [](int g) { return g < 2; }), 1);
  EXPECT_EQ(h.fleet->best_placeable(-1, [](int) { return false; }), -1);
}

TEST(Fleet, BestPlaceableMatchesTheFullScan) {
  // Random placement tables with ties (equal job counts at equal compute
  // scales, and every idle device at 0), random drained devices and
  // exclusions, and random pure predicates: best_placeable must pick what
  // the predicate-first scan over every device picks, and must ask the
  // predicate only about a device whose score is below the best accepted
  // so far.
  common::Rng rng(2024);
  const int n = 8;
  for (int table = 0; table < 12; ++table) {
    Harness h(n);
    for (int t = 0; t < 3; ++t) h.add_task(Priority::kLow, 1000.0, 0);
    h.fleet->run_offline_phase();
    const double scales[] = {0.5, 1.0, 2.0};
    for (int g = 0; g < n; ++g) {
      // One job each of the first k equal-utilisation tasks.
      for (int t = static_cast<int>(rng.uniform_int(0, 3)) - 1; t >= 0; --t) {
        ASSERT_TRUE(h.fleet->scheduler(g).release_job(t));
      }
      h.fleet->slow_gpu_now(g, scales[rng.uniform_int(0, 2)]);
      if (rng.uniform(0.0, 1.0) < 0.2) h.fleet->drain_gpu_now(g);
    }
    for (int trial = 0; trial < 40; ++trial) {
      std::vector<bool> accept(static_cast<std::size_t>(n));
      for (int g = 0; g < n; ++g) {
        accept[static_cast<std::size_t>(g)] = rng.uniform(0.0, 1.0) < 0.6;
      }
      const int exclude = static_cast<int>(rng.uniform_int(-1, n - 1));

      int expect = -1;
      double best = std::numeric_limits<double>::infinity();
      std::vector<double> best_before(static_cast<std::size_t>(n));
      for (int g = 0; g < n; ++g) {
        best_before[static_cast<std::size_t>(g)] = best;
        if (g == exclude || !h.fleet->placeable(g) ||
            !accept[static_cast<std::size_t>(g)]) {
          continue;
        }
        if (h.fleet->placement_score(g) < best) {
          best = h.fleet->placement_score(g);
          expect = g;
        }
      }

      std::vector<int> asked;
      const int got = h.fleet->best_placeable(exclude, [&](int g) {
        asked.push_back(g);
        return static_cast<bool>(accept[static_cast<std::size_t>(g)]);
      });
      EXPECT_EQ(got, expect) << "table " << table << ", trial " << trial;
      for (const int g : asked) {
        EXPECT_NE(g, exclude);
        EXPECT_TRUE(h.fleet->placeable(g));
        EXPECT_LT(h.fleet->placement_score(g),
                  best_before[static_cast<std::size_t>(g)])
            << "asked about device " << g << ", table " << table
            << ", trial " << trial;
      }
    }
  }
}

TEST(Fleet, SizesTheRoutingCountersOfAFreshCollector) {
  // Wired by hand on a collector nobody sized: the fleet sizes its per-GPU
  // routing counters, so the first routed job is counted on its device.
  FleetConfig cfg;
  cfg.num_gpus = 2;
  cfg.sched.policy = rt::Policy::kMps;
  const dnn::CompiledModel model =
      dnn::compiled_model(dnn::ModelKind::kResNet18, 1, cfg.gpu);
  sim::ShardedSimulator sim(/*device_shards=*/2, /*threads=*/1);
  metrics::Collector collector;
  Fleet fleet(sim, cfg, &collector);
  rt::TaskSpec spec;
  spec.model = dnn::ModelKind::kResNet18;
  spec.period = common::from_ms(10.0);
  spec.relative_deadline = spec.period;
  spec.priority = Priority::kLow;
  const int home = 1;
  const int t = fleet.add_task(spec, &model, home);
  fleet.set_afet(t, std::vector<double>(model.stage_count(), 100.0));
  fleet.run_offline_phase();
  Router router(fleet, RoutingPolicy::kModelAffinity, 1, &collector);
  router.release(t);
  EXPECT_EQ(collector.routing(home).routed, 1u);
}

TEST(Router, CountsIntoItsFleetsCollector) {
  // A router handed some other collector still counts into the one its
  // fleet was built on (Fleet::collector): that collector's per-GPU
  // counters are the ones the fleet sized, and the other stays untouched.
  Harness h(2);
  const int home = 1;
  const int t = h.add_task(Priority::kLow, 500.0, home);
  h.fleet->run_offline_phase();
  metrics::Collector other;
  Router router(*h.fleet, RoutingPolicy::kModelAffinity, 1, &other);
  router.release(t);
  EXPECT_EQ(h.collector.routing(home).routed, 1u);
  EXPECT_EQ(router.released_of(Priority::kLow), 1u);
  EXPECT_EQ(other.gpu_count(), 0);
  EXPECT_EQ(other.class_counts(Priority::kLow).released, 0u);
}

TEST(Router, HybridStaysHomeUnderLightLoad) {
  Harness h(2);
  const int a = h.add_task(Priority::kLow, 500.0, /*home_gpu=*/1);
  h.fleet->run_offline_phase();
  RouterConfig cfg;
  cfg.policy = RoutingPolicy::kHybrid;
  Router router(*h.fleet, cfg, &h.collector);
  router.release(a);
  // Home relative load is 0 < threshold: affinity wins, no spill.
  EXPECT_EQ(h.collector.routing(1).routed, 1u);
  EXPECT_EQ(h.collector.routing(1).home_admits, 1u);
  EXPECT_EQ(h.fleet->scheduler(1).jobs_in_flight(), 1u);
}

TEST(Router, HybridSpillsWhenHomeLoadCrossesThreshold) {
  Harness h(2);
  // Loading task: utilisation 0.8 >= the 0.75 default spill threshold.
  const int heavy = h.add_task(Priority::kLow, 8000.0, /*home_gpu=*/0);
  const int light = h.add_task(Priority::kLow, 500.0, /*home_gpu=*/0);
  h.fleet->run_offline_phase();
  RouterConfig cfg;
  cfg.policy = RoutingPolicy::kHybrid;
  Router router(*h.fleet, cfg, &h.collector);
  router.release(heavy);
  EXPECT_EQ(h.collector.routing(0).routed, 1u);
  // Home now at relative load 0.8; the idle peer scores better: spill.
  router.release(light);
  EXPECT_EQ(h.collector.routing(1).routed, 1u);
  EXPECT_EQ(h.collector.routing(1).home_admits, 1u);
  EXPECT_EQ(router.cross_gpu_migrations(), 0u);  // first-offer, not a retry
}

TEST(Router, HybridDoesNotSpillToBusierPeer) {
  Harness h(2);
  const int peer_load = h.add_task(Priority::kLow, 9000.0, /*home_gpu=*/1);
  const int heavy = h.add_task(Priority::kLow, 8000.0, /*home_gpu=*/0);
  const int light = h.add_task(Priority::kLow, 500.0, /*home_gpu=*/0);
  h.fleet->run_offline_phase();
  RouterConfig cfg;
  cfg.policy = RoutingPolicy::kHybrid;
  Router router(*h.fleet, cfg, &h.collector);
  router.release(peer_load);  // GPU 1 at 0.9
  router.release(heavy);      // GPU 0 at 0.8
  router.release(light);
  // Home is past the threshold but the only peer scores worse (0.9 > 0.8):
  // spilling would not help, so the job stays home.
  EXPECT_EQ(h.collector.routing(0).routed, 2u);
  EXPECT_EQ(h.fleet->scheduler(0).jobs_in_flight(), 2u);
}

TEST(Router, MigrationToColdPeerPaysTransferDelay) {
  Harness h(2, /*num_contexts=*/1, /*transfer_us_per_mb=*/100.0);
  const int a = h.add_task(Priority::kLow, 9000.0, 0);
  const int b = h.add_task(Priority::kLow, 9000.0, 0);
  h.fleet->run_offline_phase();
  Router router(*h.fleet, RoutingPolicy::kModelAffinity, 1, &h.collector);
  router.release(a);
  router.release(b);
  // The peer is cold for ResNet18: the weights must be shipped first, so
  // the migration is in flight, not landed.
  EXPECT_EQ(router.pending_transfers(), 1u);
  EXPECT_EQ(router.transfers(), 1u);
  EXPECT_EQ(router.cross_gpu_migrations(), 0u);
  EXPECT_EQ(h.fleet->scheduler(1).jobs_in_flight(), 0u);
  // After weight_mb * 100 us the copy lands, the job is admitted on the
  // peer, and the model is pinned hot there.
  const common::Duration delay =
      common::from_us(h.model->weight_mb * 100.0);
  h.sim.run_until(delay + common::from_us(50.0));
  EXPECT_EQ(router.pending_transfers(), 0u);
  EXPECT_EQ(router.cross_gpu_migrations(), 1u);
  EXPECT_EQ(router.drops(), 0u);
  EXPECT_EQ(h.fleet->scheduler(1).jobs_in_flight(), 1u);
  EXPECT_EQ(h.collector.routing(1).migrated_in, 1u);
  EXPECT_EQ(h.collector.routing(1).transfers_in, 1u);
  EXPECT_DOUBLE_EQ(h.collector.routing(1).transferred_mb,
                   h.model->weight_mb);
  EXPECT_TRUE(h.fleet->model_hot(1, b));
}

TEST(Router, TransferDelayConsumesDeadlineSlack) {
  // 200 us/MB on a ~45 MB model: the copy alone eats ~9 ms of the 10 ms
  // deadline. The migrated job keeps its original release time, so it must
  // finish late — migration is not a free escape hatch.
  Harness h(2, /*num_contexts=*/1, /*transfer_us_per_mb=*/200.0);
  const int a = h.add_task(Priority::kLow, 9000.0, 0);
  const int b = h.add_task(Priority::kLow, 5000.0, 0);
  h.fleet->run_offline_phase();
  Router router(*h.fleet, RoutingPolicy::kModelAffinity, 1, &h.collector);
  router.release(a);
  router.release(b);  // rejected on 0 (0.9 + 0.5 > 1), cold-migrates to 1
  EXPECT_EQ(router.pending_transfers(), 1u);
  h.sim.run_until(common::from_ms(60.0));
  EXPECT_EQ(router.cross_gpu_migrations(), 1u);
  EXPECT_EQ(h.collector.summary(Priority::kLow).completed, 2u);
  // The transferred job's deadline did not move with the delivery: it
  // missed, and its response time includes the copy.
  EXPECT_GE(h.collector.summary(Priority::kLow).missed, 1u);
}

TEST(Router, InFlightTransferCountsTowardBacklogGuard) {
  Harness h(2, /*num_contexts=*/1, /*transfer_us_per_mb=*/100.0);
  const int a = h.add_task(Priority::kLow, 9000.0, 0);
  const int b = h.add_task(Priority::kLow, 9000.0, 0);
  h.fleet->run_offline_phase();
  Router router(*h.fleet, RoutingPolicy::kModelAffinity, 1, &h.collector);
  router.release(a);
  router.release(b);  // cold-migrating; registered in no scheduler yet
  EXPECT_EQ(router.pending_transfers(), 1u);
  // A second release of the same LP task must be shed by the fleet backlog
  // guard even though no scheduler holds the first job yet — not start a
  // second transfer.
  router.release(b);
  EXPECT_EQ(router.drops(), 1u);
  EXPECT_EQ(router.transfers(), 1u);
  EXPECT_EQ(router.pending_transfers(), 1u);
}

TEST(Router, MigrationToHotPeerIsImmediate) {
  Harness h(2, /*num_contexts=*/1, /*transfer_us_per_mb=*/100.0);
  // An (unreleased) task homed on GPU 1 pins the shared model hot there.
  h.add_task(Priority::kLow, 100.0, /*home_gpu=*/1);
  const int a = h.add_task(Priority::kLow, 9000.0, 0);
  const int b = h.add_task(Priority::kLow, 9000.0, 0);
  h.fleet->run_offline_phase();
  Router router(*h.fleet, RoutingPolicy::kModelAffinity, 1, &h.collector);
  router.release(a);
  router.release(b);
  // Weights already hot on the peer: no transfer, the migration lands now.
  EXPECT_EQ(router.transfers(), 0u);
  EXPECT_EQ(router.pending_transfers(), 0u);
  EXPECT_EQ(router.cross_gpu_migrations(), 1u);
  EXPECT_EQ(h.fleet->scheduler(1).jobs_in_flight(), 1u);
}

TEST(Fleet, ModelPinningIsPerDeviceAndIdempotent) {
  Harness h(2);
  const int a = h.add_task(Priority::kLow, 500.0, /*home_gpu=*/0);
  // Registration pins the model on the task's home only.
  EXPECT_TRUE(h.fleet->model_hot(0, a));
  EXPECT_FALSE(h.fleet->model_hot(1, a));
  h.fleet->warm_model(1, a);
  EXPECT_TRUE(h.fleet->model_hot(1, a));
  // A second task of the same model finds it pinned, and pinning it again
  // adds nothing.
  const int b = h.add_task(Priority::kLow, 500.0, /*home_gpu=*/1);
  EXPECT_TRUE(h.fleet->model_hot(1, b));
  h.fleet->warm_model(1, b);
  EXPECT_EQ(h.fleet->hot_model_count(1), 1);
}

TEST(Router, UtilizationInfeasibleLpJobShedWithoutRetries) {
  Harness h(2, 1, /*transfer_us_per_mb=*/100.0);
  // One job's utilisation (1.5) exceeds every idle context: Eq. 12 can
  // never pass, so the controller sheds the job outright instead of
  // migrating it (and shipping its weights) to the cold peer.
  const int a = h.add_task(Priority::kLow, 15000.0, 0);
  h.fleet->run_offline_phase();
  Router router(*h.fleet, RoutingPolicy::kLeastUtilization, 1, &h.collector);
  router.release(a);
  EXPECT_EQ(router.drops(), 1u);
  EXPECT_EQ(router.infeasible_rejects(), 1u);
  EXPECT_EQ(router.cross_gpu_migrations(), 0u);
  EXPECT_EQ(router.transfers(), 0u);
  EXPECT_EQ(router.pending_transfers(), 0u);
  EXPECT_EQ(h.collector.routing(0).infeasible, 1u);
  EXPECT_EQ(h.collector.summary(Priority::kLow).rejected, 1u);
  EXPECT_EQ(h.fleet->scheduler(0).jobs_in_flight(), 0u);
  EXPECT_EQ(h.fleet->scheduler(1).jobs_in_flight(), 0u);
}

TEST(Router, HpJobsBypassUtilizationFeasibility) {
  Harness h(2);
  // HP jobs take no admission test by default (hp_admission = false), so
  // an overweight HP job is released to its home, not shed as infeasible —
  // overload shows up as lateness, per the paper's Fig. 11 semantics.
  const int a = h.add_task(Priority::kHigh, 15000.0, /*home_gpu=*/1);
  h.fleet->run_offline_phase();
  Router router(*h.fleet, RoutingPolicy::kLeastUtilization, 1, &h.collector);
  router.release(a);
  EXPECT_EQ(router.infeasible_rejects(), 0u);
  EXPECT_EQ(h.fleet->scheduler(1).jobs_in_flight(), 1u);
}

TEST(Fleet, HeterogeneousNodesScaleGpuSpecs) {
  std::vector<GpuNodeSpec> nodes(2);
  nodes[1].compute_scale = 2.0;
  Harness h(2, 1, 0.0, 1, nodes);
  EXPECT_EQ(h.fleet->gpu(0).spec().sm_count, 68);
  EXPECT_EQ(h.fleet->gpu(1).spec().sm_count, 136);
  EXPECT_DOUBLE_EQ(h.fleet->compute_scale(1), 2.0);
}

TEST(Router, PlacementScoreNormalisesLoadByComputeScale) {
  std::vector<GpuNodeSpec> nodes(2);
  nodes[1].compute_scale = 2.0;
  Harness h(2, 1, 0.0, 1, nodes);
  const int a = h.add_task(Priority::kLow, 4000.0, 0);
  const int b = h.add_task(Priority::kLow, 4000.0, 1);
  const int c = h.add_task(Priority::kLow, 500.0, 0);
  h.fleet->run_offline_phase();
  // Equal admitted utilisation on both devices (AFET-seeded identically)...
  ASSERT_TRUE(h.fleet->scheduler(0).release_job(a, /*report=*/false));
  ASSERT_TRUE(h.fleet->scheduler(1).release_job(b, /*report=*/false));
  EXPECT_DOUBLE_EQ(h.fleet->load(0), h.fleet->load(1));
  // ...but the 2x device has twice the absolute headroom, so least-util
  // places the next job there instead of tying toward GPU 0.
  Router router(*h.fleet, RoutingPolicy::kLeastUtilization, 1, &h.collector);
  router.release(c);
  EXPECT_EQ(h.collector.routing(1).routed, 1u);
  EXPECT_EQ(h.fleet->scheduler(1).jobs_in_flight(), 2u);
}

TEST(Fleet, ResidencyOnlyOnHomeGpu) {
  Harness h(2);
  const int a = h.add_task(Priority::kHigh, 3000.0, 1);
  EXPECT_FALSE(h.fleet->scheduler(0).resident(a));
  EXPECT_TRUE(h.fleet->scheduler(1).resident(a));
  // The HP reservation (Eq. 4) is charged only where the task is resident.
  h.fleet->run_offline_phase();
  double hp0 = 0.0, hp1 = 0.0;
  for (int c = 0; c < h.fleet->scheduler(0).num_contexts(); ++c) {
    hp0 += h.fleet->scheduler(0).hp_utilization(c);
    hp1 += h.fleet->scheduler(1).hp_utilization(c);
  }
  EXPECT_DOUBLE_EQ(hp0, 0.0);
  EXPECT_GT(hp1, 0.0);
}

/// Per model, an AFET vector whose stage sum depends on the order it is
/// summed in (no stage time is exact in binary), so bitwise checks against
/// MretEstimator's stage-order sum mean something.
std::vector<double> uneven_afet(std::size_t stages, double scale) {
  std::vector<double> v(stages);
  for (std::size_t s = 0; s < stages; ++s) {
    v[s] = scale * (0.1 + 1.0 / static_cast<double>(s + 3));
  }
  return v;
}

std::uint64_t bits_of(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

TEST(Fleet, SetupOfAReplicatedFleetCreatesNoTaskRecord) {
  // 64 GPUs x the replicated Table II mixed set (2,048 tasks, homes striped
  // as exp::run_cluster stripes them), every pair seeded, then Algorithm 1.
  // Registration, seeding and Algorithm 1 read each pair through queries,
  // so the design needs a record for no pair at all: setup leaves 131,072
  // slots and zero records. Every query answers from the pair's seed.
  constexpr int kDevices = 64;
  const workload::TaskSetSpec taskset =
      workload::replicated_taskset(workload::mixed_taskset(), kDevices);
  sim::ShardedSimulator sharded(kDevices, 1);
  FleetConfig cfg;
  cfg.num_gpus = kDevices;
  cfg.sched.policy = rt::Policy::kMps;
  cfg.sched.num_contexts = 6;
  cfg.sched.oversubscription = 6.0;
  metrics::Collector collector;
  Fleet fleet(sharded, cfg, &collector);
  const exp::CompiledModels models =
      exp::compile_models(taskset, cfg.sched.batch, cfg.gpu);
  std::map<const dnn::CompiledModel*, std::vector<double>> afet;
  for (const dnn::CompiledModel* m : models.distinct) {
    afet[m] = uneven_afet(m->stage_count(),
                          700.0 + 10.0 * static_cast<double>(afet.size()));
  }
  for (std::size_t i = 0; i < taskset.tasks.size(); ++i) {
    const rt::TaskSpec& t = taskset.tasks[i];
    const dnn::CompiledModel* m = models.of(t.model);
    const int id =
        fleet.add_task(t, m, static_cast<int>(i) % kDevices);
    for (int g = 0; g < kDevices; ++g) fleet.set_afet(id, g, afet.at(m));
  }
  fleet.run_offline_phase();

  EXPECT_EQ(fleet.task_records(), 0u);
  // One copy of each distinct profile, plus the "no profile" seed.
  EXPECT_EQ(fleet.tasks().seed_count(), 1 + models.distinct.size());
  for (int g = 0; g < kDevices; ++g) {
    const rt::Scheduler& sched = fleet.scheduler(g);
    EXPECT_EQ(sched.records(), 0u) << "gpu " << g;
    EXPECT_TRUE(sched.audit().empty()) << "gpu " << g;
    for (int t = 0; t < sched.task_count(); ++t) {
      ASSERT_EQ(sched.find_task(t), nullptr);
      ASSERT_EQ(sched.resident(t), t % kDevices == g);
      ASSERT_GE(sched.context(t), 0);
      ASSERT_LT(sched.context(t), sched.num_contexts());
      const std::vector<double>& v = afet.at(fleet.model_of(t));
      const double total = rt::MretEstimator::afet_sum_us(v.data(), v.size());
      ASSERT_EQ(bits_of(sched.mret_total_us(t)), bits_of(total));
      ASSERT_EQ(bits_of(sched.utilization(t)),
                bits_of(rt::utilization_of(fleet.spec(t), total)));
    }
  }
}

TEST(Fleet, UntouchedPairReadsItsAfetSeedBitForBit) {
  // What eager registration left in a pair's rt::Task: an estimator seeded
  // with the pair's AFET vector. The untouched pair's queries must read
  // exactly its total and utilisation, before and after the kSlow re-seed
  // exp::run_cluster performs, and creating the record must change neither.
  Harness h(2);
  const int t = h.add_task(Priority::kLow, 3000.0, 0);
  const std::size_t stages = h.model->stage_count();
  const std::vector<double> before = uneven_afet(stages, 300.0);
  const std::vector<double> after = uneven_afet(stages, 600.0);
  h.fleet->set_afet(t, before);
  h.fleet->run_offline_phase();
  const rt::Scheduler& peer = h.fleet->scheduler(1);
  const rt::TaskSpec& spec = h.fleet->spec(t);
  auto eager = [&](const std::vector<double>& afet) {
    rt::MretEstimator m(stages, 5);
    m.set_afet(afet.data());
    return m.total_mret_us();
  };
  auto expect_reads = [&](const std::vector<double>& afet) {
    EXPECT_EQ(bits_of(peer.mret_total_us(t)), bits_of(eager(afet)));
    EXPECT_EQ(bits_of(peer.utilization(t)),
              bits_of(rt::utilization_of(spec, eager(afet))));
  };
  expect_reads(before);
  EXPECT_EQ(peer.find_task(t), nullptr);

  h.fleet->slow_gpu_now(1, 0.5);
  h.fleet->set_afet(t, 1, after);  // re-seed the slowed device only
  expect_reads(after);
  EXPECT_EQ(bits_of(h.fleet->scheduler(0).mret_total_us(t)),
            bits_of(eager(before)));
  EXPECT_EQ(peer.find_task(t), nullptr);

  const rt::Task& rec = h.fleet->scheduler(1).task(t);
  EXPECT_EQ(peer.find_task(t), &rec);
  EXPECT_EQ(bits_of(rec.mret().total_mret_us()), bits_of(eager(after)));
  EXPECT_EQ(bits_of(rec.utilization()),
            bits_of(rt::utilization_of(spec, eager(after))));
  expect_reads(after);
  EXPECT_EQ(rec.active_jobs, 0);
  EXPECT_EQ(peer.records(), 1u);
  EXPECT_EQ(audit_text(*h.fleet), "");
}

TEST(Cluster, RecordsExistOnlyWhereADeviceAdmittedAJob) {
  // A short run of the 64-GPU replicated fleet: the per-device records at
  // the end are exactly the (device, task) pairs the event log shows a job
  // admitted on (home admits and hedges, migrations, steals), and the
  // profile counts them.
  constexpr int kDevices = 64;
  exp::ClusterConfig cfg;
  cfg.taskset =
      workload::replicated_taskset(workload::mixed_taskset(), kDevices);
  cfg.num_gpus = kDevices;
  cfg.sched.policy = rt::Policy::kMps;
  cfg.sched.num_contexts = 6;
  cfg.sched.oversubscription = 6.0;
  cfg.routing = RoutingPolicy::kLeastUtilization;
  cfg.arrivals = exp::ArrivalMode::kPoisson;
  cfg.duration_s = 0.2;
  cfg.warmup_s = 0.05;
  cfg.telemetry.enabled = true;
  std::set<std::pair<int, int>> records;
  std::string audit = "not run";
  const exp::ClusterResult r =
      exp::run_cluster(cfg, [&](const Fleet& fleet) {
        for (int g = 0; g < fleet.size(); ++g) {
          const rt::Scheduler& sched = fleet.scheduler(g);
          for (std::size_t i = 0; i < sched.records(); ++i) {
            records.emplace(g, sched.record(i).id());
          }
        }
        audit = audit_text(fleet);
      });
  std::set<std::pair<int, int>> admitted;
  for (const metrics::FleetEvent& ev : r.events.events()) {
    if (ev.kind == metrics::EventKind::kAdmit) {
      admitted.emplace(ev.gpu, ev.task);
    } else if (ev.kind == metrics::EventKind::kMigrate ||
               ev.kind == metrics::EventKind::kSteal) {
      admitted.emplace(ev.peer, ev.task);
    }
  }
  EXPECT_FALSE(records.empty());
  EXPECT_EQ(records, admitted);
  EXPECT_EQ(r.profile.task_records, records.size());
  EXPECT_LT(records.size(), cfg.taskset.tasks.size() * kDevices / 10);
  EXPECT_TRUE(r.conservation_ok) << r.conservation_detail;
  EXPECT_EQ(audit, "");
}

TEST(Cluster, RunClusterIsDeterministic) {
  exp::ClusterConfig cfg;
  cfg.taskset = workload::replicated_taskset(
      workload::table2_taskset(dnn::ModelKind::kUNet), 2);
  cfg.sched.policy = rt::Policy::kMps;
  cfg.sched.num_contexts = 4;
  cfg.sched.oversubscription = 4.0;
  cfg.num_gpus = 2;
  cfg.duration_s = 1.5;
  cfg.warmup_s = 0.5;
  const exp::ClusterResult a = exp::run_cluster(cfg);
  const exp::ClusterResult b = exp::run_cluster(cfg);
  EXPECT_EQ(counters_text(a), counters_text(b));
}

TEST(Cluster, TwoGpusScaleThroughputOnReplicatedDemand) {
  exp::ClusterConfig cfg;
  cfg.taskset = workload::table2_taskset(dnn::ModelKind::kUNet);
  cfg.sched.policy = rt::Policy::kMps;
  cfg.sched.num_contexts = 4;
  cfg.sched.oversubscription = 4.0;
  cfg.num_gpus = 1;
  cfg.duration_s = 1.5;
  cfg.warmup_s = 0.5;
  const exp::ClusterResult one = exp::run_cluster(cfg);

  cfg.taskset = workload::replicated_taskset(cfg.taskset, 2);
  cfg.num_gpus = 2;
  const exp::ClusterResult two = exp::run_cluster(cfg);
  EXPECT_GT(two.total_jps, 1.6 * one.total_jps);
  EXPECT_EQ(two.hp.missed, 0u);
}

TEST(Cluster, OpenLoopArrivalsAreRecorded) {
  exp::ClusterConfig cfg;
  cfg.taskset = workload::table2_taskset(dnn::ModelKind::kUNet);
  cfg.sched.policy = rt::Policy::kMps;
  cfg.sched.num_contexts = 4;
  cfg.sched.oversubscription = 4.0;
  cfg.num_gpus = 2;
  cfg.arrivals = exp::ArrivalMode::kPoisson;
  cfg.duration_s = 1.0;
  cfg.warmup_s = 0.2;
  const exp::ClusterResult r = exp::run_cluster(cfg);
  EXPECT_GT(r.arrivals, 0u);
  // ~360 JPS aggregate demand over 1s, Poisson: a loose sanity band.
  EXPECT_NEAR(static_cast<double>(r.arrivals), 360.0, 120.0);
}

TEST(Cluster, RoutingPolicyNames) {
  EXPECT_STREQ(routing_policy_name(RoutingPolicy::kRoundRobin),
               "round-robin");
  EXPECT_STREQ(routing_policy_name(RoutingPolicy::kLeastUtilization),
               "least-util");
  EXPECT_STREQ(routing_policy_name(RoutingPolicy::kPowerOfTwo),
               "power-of-two");
  EXPECT_STREQ(routing_policy_name(RoutingPolicy::kModelAffinity),
               "model-affinity");
  EXPECT_STREQ(routing_policy_name(RoutingPolicy::kHybrid), "hybrid");
}

TEST(Cluster, HeterogeneousRunClusterIsDeterministic) {
  exp::ClusterConfig cfg;
  cfg.taskset = workload::replicated_taskset(
      workload::table2_taskset(dnn::ModelKind::kUNet), 2);
  cfg.sched.policy = rt::Policy::kMps;
  cfg.sched.num_contexts = 4;
  cfg.sched.oversubscription = 4.0;
  cfg.routing = RoutingPolicy::kHybrid;
  cfg.nodes.resize(2);
  cfg.nodes[0].compute_scale = 1.0;
  cfg.nodes[1].compute_scale = 0.5;
  cfg.duration_s = 1.5;
  cfg.warmup_s = 0.5;
  const exp::ClusterResult a = exp::run_cluster(cfg);
  const exp::ClusterResult b = exp::run_cluster(cfg);
  EXPECT_EQ(counters_text(a), counters_text(b));
  ASSERT_EQ(a.per_gpu.size(), 2u);
  EXPECT_GT(a.per_gpu[0].completed, 0u);
}

TEST(Cluster, HybridServesSkewedDemandWithoutHpMisses) {
  // Small-scale version of the bench's skewed study: 2 GPUs, 75% of demand
  // on one model kind. Pure affinity piles the heavy kind onto one device;
  // hybrid balances homes by demand share and spills, keeping HP clean.
  exp::ClusterConfig cfg;
  cfg.taskset = workload::skewed_taskset(2);
  cfg.sched.policy = rt::Policy::kMps;
  cfg.sched.num_contexts = 6;
  cfg.sched.oversubscription = 6.0;
  cfg.num_gpus = 2;
  cfg.routing = RoutingPolicy::kHybrid;
  cfg.duration_s = 1.5;
  cfg.warmup_s = 0.5;
  const exp::ClusterResult hybrid = exp::run_cluster(cfg);
  EXPECT_EQ(hybrid.hp.missed, 0u);
  EXPECT_GT(hybrid.total_jps, 0.0);

  cfg.routing = RoutingPolicy::kModelAffinity;
  const exp::ClusterResult affinity = exp::run_cluster(cfg);
  // The collapse, structurally: affinity offers ~90% of arrivals to the
  // device homing the heavy kind and leans on reactive migration retries to
  // bail it out; hybrid balances first offers across the fleet and barely
  // needs the retry path. At this small scale throughput degrades only
  // mildly (more drops, more LP misses) — the 8-GPU bench row shows the
  // full collapse — so the routed/migration shape is the regression signal.
  // (Hybrid still routes ~3x more *jobs* to the ResNet18 host — its homes
  // balance SM-us of work, and ResNet18 jobs are ~4x cheaper than UNet
  // jobs — so the imbalance contrast is measured in offers, not equality.)
  const auto& ar = affinity.per_gpu;
  const auto& hr = hybrid.per_gpu;
  EXPECT_GT(ar[0].routing.routed, 5 * ar[1].routing.routed);
  EXPECT_LT(hr[0].routing.routed, 4 * hr[1].routing.routed);
  EXPECT_GT(affinity.cross_gpu_migrations, 2 * hybrid.cross_gpu_migrations);
  EXPECT_GE(hybrid.total_jps, affinity.total_jps);
  EXPECT_LE(hybrid.drops, affinity.drops);
}

}  // namespace
}  // namespace daris::cluster
