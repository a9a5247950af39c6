// Cluster layer: routing policy selection, cross-GPU migration on admission
// failure, fleet-wide backlog shedding, and fleet determinism.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cluster/fleet.h"
#include "cluster/router.h"
#include "experiments/cluster_runner.h"
#include "sim/sharded.h"

namespace daris::cluster {
namespace {

using common::Priority;

/// Small deterministic fixture: a jitter-free fleet with single-context
/// single-stream GPUs, one ResNet18 model shared by every task, on a 1-lane
/// sharded simulator sized to the fleet. Transfers are zero-delay by default
/// (the legacy premise); tests of the transfer cost model pass a rate, and
/// heterogeneous tests pass explicit nodes.
struct Harness {
  explicit Harness(int num_gpus, int num_contexts = 1,
                   double transfer_us_per_mb = 0.0,
                   std::vector<GpuNodeSpec> nodes = {})
      : sim(nodes.empty() ? num_gpus : static_cast<int>(nodes.size()), 1) {
    FleetConfig cfg;
    cfg.num_gpus = num_gpus;
    cfg.gpu.jitter_cv = 0.0;
    cfg.nodes = std::move(nodes);
    for (auto& node : cfg.nodes) node.base.jitter_cv = 0.0;
    cfg.transfer_us_per_mb = transfer_us_per_mb;
    cfg.sched.policy = rt::Policy::kMps;
    cfg.sched.num_contexts = num_contexts;
    model = std::make_unique<dnn::CompiledModel>(
        dnn::compiled_model(dnn::ModelKind::kResNet18, 1, cfg.gpu));
    collector.set_gpu_count(cfg.nodes.empty()
                                ? num_gpus
                                : static_cast<int>(cfg.nodes.size()));
    fleet = std::make_unique<Fleet>(sim, cfg, &collector);
  }

  /// Adds a task whose AFET (and so utilisation ~ total_afet/period) is
  /// chosen directly; period 10ms.
  int add_task(Priority priority, double total_afet_us, int home_gpu) {
    rt::TaskSpec spec;
    spec.model = dnn::ModelKind::kResNet18;
    spec.period = common::from_ms(10.0);
    spec.relative_deadline = spec.period;
    spec.priority = priority;
    const int id = fleet->add_task(spec, model.get(), home_gpu);
    fleet->set_afet(
        id, std::vector<double>(
                model->stage_count(),
                total_afet_us / static_cast<double>(model->stage_count())));
    return id;
  }

  sim::ShardedSimulator sim;
  metrics::Collector collector;
  std::unique_ptr<dnn::CompiledModel> model;
  std::unique_ptr<Fleet> fleet;
};

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

TEST(Fleet, ModelPinningRespectsMemoryCapacity) {
  std::vector<GpuNodeSpec> nodes(2);
  nodes[0].memory_mb = 10.0;  // smaller than ResNet18's ~45 MB of weights
  nodes[1].memory_mb = 4096.0;
  Harness h(2, 1, 0.0, nodes);
  const int a = h.add_task(Priority::kLow, 500.0, /*home_gpu=*/0);
  EXPECT_FALSE(h.fleet->model_hot(0, a));
  EXPECT_DOUBLE_EQ(h.fleet->memory_used_mb(0), 0.0);
  // Pinning on the roomy device succeeds and charges the footprint once.
  EXPECT_TRUE(h.fleet->warm_model(1, a));
  EXPECT_TRUE(h.fleet->model_hot(1, a));
  EXPECT_DOUBLE_EQ(h.fleet->memory_used_mb(1), h.model->weight_mb);
  const int b = h.add_task(Priority::kLow, 500.0, /*home_gpu=*/1);
  EXPECT_TRUE(h.fleet->model_hot(1, b));  // same model, already pinned
  EXPECT_DOUBLE_EQ(h.fleet->memory_used_mb(1), h.model->weight_mb);
}

TEST(Router, MemoryInfeasibleJobIsShedByAdmissionController) {
  // No device can ever hold the model's weights: the admission controller
  // sheds the job outright instead of bouncing it through a migration.
  std::vector<GpuNodeSpec> nodes(2);
  nodes[0].memory_mb = 1.0;
  nodes[1].memory_mb = 1.0;
  Harness h(2, 1, 100.0, nodes);
  const int a = h.add_task(Priority::kLow, 500.0, 0);
  h.fleet->run_offline_phase();
  Router router(*h.fleet, RoutingPolicy::kLeastUtilization, 1, &h.collector);
  router.release(a);
  EXPECT_EQ(router.drops(), 1u);
  EXPECT_EQ(router.infeasible_rejects(), 1u);
  EXPECT_EQ(router.cross_gpu_migrations(), 0u);
  EXPECT_EQ(router.transfers(), 0u);
  EXPECT_EQ(h.collector.routing(0).infeasible, 1u);
  EXPECT_EQ(h.collector.summary(Priority::kLow).rejected, 1u);
  EXPECT_EQ(h.fleet->scheduler(0).jobs_in_flight(), 0u);
  EXPECT_EQ(h.fleet->scheduler(1).jobs_in_flight(), 0u);
}

TEST(Router, UtilizationInfeasibleLpJobShedWithoutRetries) {
  Harness h(2);
  // One job's utilisation (1.5) exceeds every idle context: Eq. 12 can
  // never pass, so the controller sheds instead of retrying on the peer.
  const int a = h.add_task(Priority::kLow, 15000.0, 0);
  h.fleet->run_offline_phase();
  Router router(*h.fleet, RoutingPolicy::kLeastUtilization, 1, &h.collector);
  router.release(a);
  EXPECT_EQ(router.drops(), 1u);
  EXPECT_EQ(router.infeasible_rejects(), 1u);
  EXPECT_EQ(router.cross_gpu_migrations(), 0u);
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
  Harness h(2, 1, 0.0, nodes);
  EXPECT_EQ(h.fleet->gpu(0).spec().sm_count, 68);
  EXPECT_EQ(h.fleet->gpu(1).spec().sm_count, 136);
  EXPECT_DOUBLE_EQ(h.fleet->compute_scale(1), 2.0);
}

TEST(Router, PlacementScoreNormalisesLoadByComputeScale) {
  std::vector<GpuNodeSpec> nodes(2);
  nodes[1].compute_scale = 2.0;
  Harness h(2, 1, 0.0, nodes);
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
  EXPECT_FALSE(h.fleet->scheduler(0).task(a).resident());
  EXPECT_TRUE(h.fleet->scheduler(1).task(a).resident());
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
  EXPECT_EQ(a.total_jps, b.total_jps);
  EXPECT_EQ(a.hp.completed, b.hp.completed);
  EXPECT_EQ(a.lp.completed, b.lp.completed);
  EXPECT_EQ(a.hp.missed, b.hp.missed);
  EXPECT_EQ(a.lp.missed, b.lp.missed);
  EXPECT_EQ(a.cross_gpu_migrations, b.cross_gpu_migrations);
  EXPECT_EQ(a.drops, b.drops);
  EXPECT_EQ(a.intra_gpu_migrations, b.intra_gpu_migrations);
  ASSERT_EQ(a.per_gpu.size(), b.per_gpu.size());
  for (std::size_t g = 0; g < a.per_gpu.size(); ++g) {
    EXPECT_EQ(a.per_gpu[g].completed, b.per_gpu[g].completed);
    EXPECT_EQ(a.per_gpu[g].utilization, b.per_gpu[g].utilization);
  }
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
  EXPECT_EQ(a.total_jps, b.total_jps);
  EXPECT_EQ(a.hp.completed, b.hp.completed);
  EXPECT_EQ(a.lp.completed, b.lp.completed);
  EXPECT_EQ(a.cross_gpu_migrations, b.cross_gpu_migrations);
  EXPECT_EQ(a.transfers, b.transfers);
  EXPECT_EQ(a.transferred_mb, b.transferred_mb);
  EXPECT_EQ(a.infeasible_rejects, b.infeasible_rejects);
  EXPECT_EQ(a.drops, b.drops);
  ASSERT_EQ(a.per_gpu.size(), 2u);
  EXPECT_GT(a.per_gpu[0].completed, 0u);
  for (std::size_t g = 0; g < a.per_gpu.size(); ++g) {
    EXPECT_EQ(a.per_gpu[g].completed, b.per_gpu[g].completed);
    EXPECT_EQ(a.per_gpu[g].utilization, b.per_gpu[g].utilization);
  }
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
