// Fault injection and autoscaling: fail-stop sheds exactly the dead GPU's
// in-flight jobs, the router never places on failed or draining devices,
// drain completes in-flight work, stragglers slow deterministically via the
// resolved-spec path, mid-run scale-up serves load, and a full fault
// schedule is bit-identical across repeat runs and across lane counts.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "cluster/router.h"
#include "fleet_harness.h"
#include "workload/driver.h"

namespace daris::cluster {
namespace {

using common::Priority;

// --- fail-stop ------------------------------------------------------------

TEST(FleetFaults, FailStopShedsOnlyTheDeadGpusJobs) {
  Harness h(2);
  const int on0 = h.add_task(Priority::kLow, 2000.0, 0);
  const int on1 = h.add_task(Priority::kLow, 2000.0, 1);
  h.fleet->run_offline_phase();
  Router router(*h.fleet, RoutingPolicy::kModelAffinity, 1, &h.collector);
  router.release(on0);
  router.release(on1);
  ASSERT_EQ(h.fleet->scheduler(0).jobs_in_flight(), 1u);
  ASSERT_EQ(h.fleet->scheduler(1).jobs_in_flight(), 1u);

  EXPECT_EQ(h.fleet->fail_gpu_now(0), 1u);
  EXPECT_EQ(h.fleet->health(0), GpuHealth::kFailed);
  EXPECT_FALSE(h.fleet->placeable(0));
  EXPECT_TRUE(h.fleet->placeable(1));

  // Only GPU 0's job died; GPU 1's keeps running and completes on time.
  EXPECT_EQ(h.fleet->scheduler(0).jobs_in_flight(), 0u);
  EXPECT_EQ(h.fleet->scheduler(1).jobs_in_flight(), 1u);
  EXPECT_EQ(h.fleet->jobs_lost(), 1u);
  // The shed job is reported as a missed finish.
  EXPECT_EQ(h.collector.summary(Priority::kLow).missed, 1u);
  h.run();
  EXPECT_EQ(h.fleet->scheduler(1).jobs_completed(), 1u);
  EXPECT_EQ(h.collector.summary(Priority::kLow).missed, 1u);

  // Tasks homed on the dead device moved to the survivor.
  EXPECT_EQ(h.fleet->home_gpu(on0), 1);
  EXPECT_EQ(h.fleet->home_gpu(on1), 1);

  // Idempotent: a second fail of the same device sheds nothing more.
  EXPECT_EQ(h.fleet->fail_gpu_now(0), 0u);
  EXPECT_EQ(h.fleet->jobs_lost(), 1u);
}

TEST(FleetFaults, RouterNeverPlacesOnFailedGpu) {
  Harness h(2);
  const int lp = h.add_task(Priority::kLow, 500.0, 0);
  const int hp = h.add_task(Priority::kHigh, 500.0, 0);
  h.fleet->run_offline_phase();
  h.fleet->fail_gpu_now(0);
  // Round-robin would offer GPU 0 first; the dead device must be skipped
  // for LP, and the HP job follows its rehomed reservation.
  Router router(*h.fleet, RoutingPolicy::kRoundRobin, 1, &h.collector);
  router.release(lp);
  router.release(hp);
  EXPECT_EQ(h.collector.routing(0).routed, 0u);
  EXPECT_EQ(h.collector.routing(1).routed, 2u);
  EXPECT_EQ(h.fleet->scheduler(0).jobs_in_flight(), 0u);
  EXPECT_EQ(h.fleet->scheduler(1).jobs_in_flight(), 2u);
  EXPECT_EQ(router.drops(), 0u);
}

TEST(FleetFaults, RouterNeverPlacesOnDrainingGpu) {
  Harness h(2);
  const int lp = h.add_task(Priority::kLow, 500.0, 0);
  h.fleet->run_offline_phase();
  h.fleet->drain_gpu_now(0);
  EXPECT_EQ(h.fleet->health(0), GpuHealth::kDraining);
  Router router(*h.fleet, RoutingPolicy::kLeastUtilization, 1, &h.collector);
  router.release(lp);
  EXPECT_EQ(h.collector.routing(0).routed, 0u);
  EXPECT_EQ(h.fleet->scheduler(0).jobs_in_flight(), 0u);
  EXPECT_EQ(h.fleet->scheduler(1).jobs_in_flight(), 1u);
}

// --- drain ----------------------------------------------------------------

TEST(FleetFaults, DrainCompletesInFlightWork) {
  Harness h(2);
  const int lp = h.add_task(Priority::kLow, 4000.0, 0);
  h.fleet->run_offline_phase();
  Router router(*h.fleet, RoutingPolicy::kModelAffinity, 1, &h.collector);
  router.release(lp);
  ASSERT_EQ(h.fleet->scheduler(0).jobs_in_flight(), 1u);

  h.fleet->drain_gpu_now(0);
  // Graceful: nothing is shed, the job finishes on the draining device.
  EXPECT_EQ(h.fleet->jobs_lost(), 0u);
  EXPECT_EQ(h.fleet->scheduler(0).jobs_in_flight(), 1u);
  h.run();
  EXPECT_EQ(h.fleet->scheduler(0).jobs_completed(), 1u);
  EXPECT_EQ(h.collector.summary(Priority::kLow).missed, 0u);
  // The task was rehomed, so the next release lands on the survivor.
  EXPECT_EQ(h.fleet->home_gpu(lp), 1);
  router.release(lp);
  EXPECT_EQ(h.fleet->scheduler(1).jobs_in_flight(), 1u);
  // Draining a failed device must not resurrect it to draining.
  h.fleet->fail_gpu_now(1);
  h.fleet->drain_gpu_now(1);
  EXPECT_EQ(h.fleet->health(1), GpuHealth::kFailed);
}

// --- in-flight transfers across faults -------------------------------------

TEST(FleetFaults, FailCancelsInFlightTransferAndRetargetsTheJob) {
  Harness h(3, /*num_contexts=*/1, /*transfer_us_per_mb=*/100.0);
  const int a = h.add_task(Priority::kLow, 9000.0, 0);
  const int b = h.add_task(Priority::kLow, 9000.0, 0);
  h.fleet->run_offline_phase();
  Router router(*h.fleet, RoutingPolicy::kModelAffinity, 1, &h.collector);
  router.release(a);
  router.release(b);  // rejected on 0, cold-migrating to the idle GPU 1
  ASSERT_EQ(router.pending_transfers(), 1u);
  ASSERT_EQ(router.pending_transfers_to(1), 1);

  // The target dies mid-copy. The transfer must be cancelled at the fault
  // instant — not delivered to the dead device later — and the job riding
  // it retargeted to the surviving peer (a fresh copy: the bytes already
  // shipped toward GPU 1 are sunk).
  h.fleet->fail_gpu_now(1);
  EXPECT_EQ(router.transfer_cancels(), 1u);
  EXPECT_EQ(router.pending_transfers_to(1), 0);
  EXPECT_EQ(router.pending_transfers(), 1u);  // the retargeted copy to GPU 2
  EXPECT_EQ(router.transfers(), 2u);
  EXPECT_EQ(router.drops(), 0u);

  h.run();
  EXPECT_EQ(h.fleet->scheduler(1).jobs_in_flight(), 0u);
  EXPECT_EQ(h.fleet->scheduler(1).jobs_completed(), 0u);
  EXPECT_EQ(h.fleet->scheduler(2).jobs_completed(), 1u);
  EXPECT_EQ(router.cross_gpu_migrations(), 1u);
  EXPECT_EQ(h.collector.summary(Priority::kLow).completed, 2u);
}

TEST(FleetFaults, DrainCancelsInFlightTransferToo) {
  Harness h(3, /*num_contexts=*/1, /*transfer_us_per_mb=*/100.0);
  const int a = h.add_task(Priority::kLow, 9000.0, 0);
  const int b = h.add_task(Priority::kLow, 9000.0, 0);
  h.fleet->run_offline_phase();
  Router router(*h.fleet, RoutingPolicy::kModelAffinity, 1, &h.collector);
  router.release(a);
  router.release(b);
  ASSERT_EQ(router.pending_transfers_to(1), 1);

  // Draining is graceful for work already *on* the device, but a transfer
  // still in flight has nothing there yet — it must be redirected like a
  // fail-stop, or the delivery would place new work on a draining GPU.
  h.fleet->drain_gpu_now(1);
  EXPECT_EQ(router.transfer_cancels(), 1u);
  EXPECT_EQ(router.pending_transfers_to(1), 0);

  h.run();
  EXPECT_EQ(h.fleet->scheduler(1).jobs_completed(), 0u);
  EXPECT_EQ(h.fleet->scheduler(2).jobs_completed(), 1u);
  EXPECT_EQ(h.collector.summary(Priority::kLow).completed, 2u);
  EXPECT_EQ(h.collector.summary(Priority::kLow).rejected, 0u);
}

TEST(FleetFaults, CancelledTransferWithNoSurvivorDropsTheJob) {
  Harness h(2, /*num_contexts=*/1, /*transfer_us_per_mb=*/100.0);
  const int a = h.add_task(Priority::kLow, 9000.0, 0);
  const int b = h.add_task(Priority::kLow, 9000.0, 0);
  h.fleet->run_offline_phase();
  Router router(*h.fleet, RoutingPolicy::kModelAffinity, 1, &h.collector);
  router.release(a);
  router.release(b);
  ASSERT_EQ(router.pending_transfers(), 1u);

  // GPU 1 fails; the only other device is the one that already rejected the
  // job, so the retarget bounces off it and the job is dropped — cleanly,
  // with the pending gauges unwound.
  h.fleet->fail_gpu_now(1);
  EXPECT_EQ(router.transfer_cancels(), 1u);
  EXPECT_EQ(router.pending_transfers(), 0u);
  EXPECT_EQ(router.drops(), 1u);

  // The pending-job gauge was unwound with the cancellation: once GPU 0
  // frees up, the task's next release is admitted at home rather than shed
  // by the backlog guard counting a phantom in-flight duplicate.
  h.run();
  router.release(b);
  EXPECT_EQ(router.drops(), 1u);
  EXPECT_EQ(h.fleet->scheduler(0).jobs_in_flight(), 1u);
  h.run();
  EXPECT_EQ(h.collector.summary(Priority::kLow).completed, 2u);
}

// --- straggler ------------------------------------------------------------

TEST(FleetFaults, StragglerSlowsJobsThroughTheResolvedSpec) {
  Harness h(1);
  const int lp = h.add_task(Priority::kLow, 5000.0, 0);
  h.fleet->run_offline_phase();
  Router router(*h.fleet, RoutingPolicy::kLeastUtilization, 1, &h.collector);
  // Each job's response time (ms), in finish order.
  const auto& response = h.collector.summary(Priority::kLow).response_ms;

  router.release(lp);
  h.run();
  ASSERT_EQ(response.samples().size(), 1u);
  const double baseline = response.samples()[0];

  h.fleet->slow_gpu_now(0, 0.5);
  EXPECT_DOUBLE_EQ(h.fleet->compute_scale(0), 0.5);
  // The simulated device now runs the re-resolved node spec.
  EXPECT_EQ(h.fleet->gpu(0).spec().sm_count,
            h.fleet->node(0).resolved().sm_count);

  router.release(lp);
  h.run();
  ASSERT_EQ(response.samples().size(), 2u);
  // Kernel time doubles; launch/sync overheads are host-side constants and
  // stay, so the end-to-end ratio lands between 1 and 2.
  const double ratio = response.samples()[1] / baseline;
  EXPECT_GT(ratio, 1.15);
  EXPECT_LT(ratio, 2.05);

  // Restoring the scale restores the original timing exactly.
  h.fleet->slow_gpu_now(0, 2.0);
  router.release(lp);
  h.run();
  ASSERT_EQ(response.samples().size(), 3u);
  EXPECT_EQ(response.samples()[2], baseline);
}

TEST(FleetFaults, RunnerReseedsAfetForTheSlowedDevice) {
  // Through the experiment runner, a mid-run slowdown re-profiles AFET
  // against the resolved spec, so admission keeps rejecting what the
  // slowed device can no longer serve instead of overcommitting it: HP
  // work stays on time even with half the fleet's compute gone.
  exp::ClusterConfig cfg;
  cfg.taskset = workload::mixed_taskset();
  cfg.sched.policy = rt::Policy::kMps;
  cfg.sched.num_contexts = 6;
  cfg.sched.oversubscription = 6.0;
  cfg.num_gpus = 2;
  cfg.routing = RoutingPolicy::kLeastUtilization;
  cfg.duration_s = 1.5;
  cfg.warmup_s = 0.25;
  exp::FaultSpec f;
  f.kind = exp::FaultSpec::Kind::kSlow;
  f.gpu = 0;
  f.at_s = 0.5;
  f.factor = 0.5;
  cfg.faults.push_back(f);

  std::string audit = "not run";
  const exp::ClusterResult r = exp::run_cluster(
      cfg, [&audit](const Fleet& fleet) { audit = audit_text(fleet); });
  EXPECT_EQ(audit, "");  // the re-seeded Eq. 2 totals held
  EXPECT_GT(r.hp.completed, 0u);
  EXPECT_EQ(r.hp.missed, 0u);
  EXPECT_EQ(r.jobs_lost, 0u);
  ASSERT_EQ(r.per_gpu.size(), 2u);
  // The slowed device ranks busier per unit of work, so it ends up serving
  // less than the healthy one.
  EXPECT_LT(r.per_gpu[0].completed, r.per_gpu[1].completed);
}

// --- autoscaling ----------------------------------------------------------

TEST(FleetFaults, AddedGpuJoinsTheFleetAndTakesPlacements) {
  Harness h(2);
  const int a = h.add_task(Priority::kLow, 3000.0, 0);
  const int b = h.add_task(Priority::kLow, 3000.0, 1);
  const int c = h.add_task(Priority::kLow, 3000.0, 0);
  h.fleet->run_offline_phase();

  const int g = h.fleet->add_gpu_now(GpuNodeSpec{});
  EXPECT_EQ(g, 2);
  EXPECT_EQ(h.fleet->size(), 3);
  EXPECT_TRUE(h.fleet->placeable(g));
  // Every registered task exists on the new scheduler under its fleet id.
  EXPECT_EQ(h.fleet->scheduler(g).task_count(), 3);
  h.fleet->set_afet(a, g, std::vector<double>(h.model->stage_count(), 1000.0));
  h.fleet->set_afet(b, g, std::vector<double>(h.model->stage_count(), 1000.0));
  h.fleet->set_afet(c, g, std::vector<double>(h.model->stage_count(), 1000.0));
  h.fleet->run_offline_phase(g);

  // The collector's routing counters grew in place.
  EXPECT_EQ(h.collector.gpu_count(), 3);

  Router router(*h.fleet, RoutingPolicy::kLeastUtilization, 1, &h.collector);
  router.release(a);  // GPU 0, 1, and 2 idle: ties break to 0
  router.release(b);
  router.release(c);  // both incumbents loaded: the new device must win
  EXPECT_EQ(h.collector.routing(2).routed, 1u);
  EXPECT_EQ(h.fleet->scheduler(2).jobs_in_flight(), 1u);
}

TEST(FleetFaults, AddedGpuReservesNoHpUtilizationAndAdmitsLpWork) {
  // Homes do not move on scale-up: the added device registers every task
  // non-resident, so its contexts carry no static HP reservation (Eq. 11)
  // and its LP admission test sees the whole device. Were the tasks
  // resident there, the two HP reservations (0.4 each, one per context)
  // would leave 0.6 of headroom per context, and the 0.6 LP job below
  // would fail Eq. 12 everywhere on the idle device.
  Harness h(2, /*num_contexts=*/2);
  const double total_afet[] = {4000.0, 4000.0, 6000.0};
  const int hp0 = h.add_task(Priority::kHigh, total_afet[0], 0);
  const int hp1 = h.add_task(Priority::kHigh, total_afet[1], 1);
  const int lp = h.add_task(Priority::kLow, total_afet[2], 0);
  h.fleet->run_offline_phase();

  const int g = h.fleet->add_gpu_now(GpuNodeSpec{});
  const double stages = static_cast<double>(h.model->stage_count());
  for (const int t : {hp0, hp1, lp}) {
    h.fleet->set_afet(t, g,
                      std::vector<double>(h.model->stage_count(),
                                          total_afet[t] / stages));
  }
  h.fleet->run_offline_phase(g);

  const rt::Scheduler& added = h.fleet->scheduler(g);
  for (int t = 0; t < added.task_count(); ++t) {
    EXPECT_FALSE(added.resident(t)) << "task " << t;
  }
  for (int c = 0; c < added.num_contexts(); ++c) {
    EXPECT_EQ(added.hp_utilization(c), 0.0) << "context " << c;
  }

  // Load both incumbents so least-utilization routes the LP job to the new
  // device, which must admit it locally.
  Router router(*h.fleet, RoutingPolicy::kLeastUtilization, 1, &h.collector);
  router.release(hp0);
  router.release(hp1);
  router.release(lp);
  EXPECT_EQ(h.collector.routing(g).routed, 1u);
  EXPECT_EQ(h.collector.routing(g).home_admits, 1u);
  EXPECT_EQ(h.fleet->scheduler(g).jobs_in_flight(), 1u);
  EXPECT_EQ(router.cross_gpu_migrations(), 0u);
  h.run();
  EXPECT_EQ(h.fleet->jobs_completed(g), 1u);
}

// --- determinism ----------------------------------------------------------

TEST(FleetFaults, FaultScheduleRunsBitIdentically) {
  // A full fault timeline — straggler, fail-stop, scale-up, drain — under
  // open-loop arrivals, run twice on one lane and once on two: every
  // counter must match exactly.
  exp::ClusterConfig cfg;
  cfg.taskset = workload::mixed_taskset();
  cfg.sched.policy = rt::Policy::kMps;
  cfg.sched.num_contexts = 6;
  cfg.sched.oversubscription = 6.0;
  cfg.num_gpus = 2;
  cfg.routing = RoutingPolicy::kHybrid;
  cfg.arrivals = exp::ArrivalMode::kPoisson;
  cfg.duration_s = 1.5;
  cfg.warmup_s = 0.25;

  exp::FaultSpec slow;
  slow.kind = exp::FaultSpec::Kind::kSlow;
  slow.gpu = 0;
  slow.at_s = 0.4;
  slow.factor = 0.5;
  exp::FaultSpec add;
  add.kind = exp::FaultSpec::Kind::kAdd;
  add.at_s = 0.6;
  exp::FaultSpec fail;
  fail.kind = exp::FaultSpec::Kind::kFail;
  fail.gpu = 1;
  fail.at_s = 0.8;
  exp::FaultSpec drain;
  drain.kind = exp::FaultSpec::Kind::kDrain;
  drain.gpu = 0;
  drain.at_s = 1.0;
  cfg.faults = {slow, add, fail, drain};

  // The kSlow and kAdd re-seed AFET mid-run; every cached Eq. 2 total
  // must still equal its stage sum at the end, on either lane count.
  std::string audit = "not run";
  std::string audit_two_lanes = "not run";
  const exp::ClusterResult a = exp::run_cluster(
      cfg, [&audit](const Fleet& fleet) { audit = audit_text(fleet); });
  const exp::ClusterResult b = exp::run_cluster(cfg);
  cfg.sim_threads = 2;
  const exp::ClusterResult two_lanes =
      exp::run_cluster(cfg, [&audit_two_lanes](const Fleet& fleet) {
        audit_two_lanes = audit_text(fleet);
      });
  EXPECT_EQ(audit, "");
  EXPECT_EQ(audit_two_lanes, "");
  EXPECT_EQ(counters_text(a), counters_text(b));
  EXPECT_EQ(counters_text(a), counters_text(two_lanes));
  EXPECT_GT(a.jobs_lost, 0u);        // the fail-stop shed something
  EXPECT_GT(a.hp.completed, 0u);     // the fleet kept serving throughout
  ASSERT_EQ(a.per_gpu.size(), 3u);   // the added device is reported
  EXPECT_GT(a.per_gpu[2].completed, 0u);
}

// --- fault-schedule validation ---------------------------------------------

/// A small 4-GPU open-loop run for the validation cases.
exp::ClusterConfig four_gpu_config() {
  exp::ClusterConfig cfg;
  cfg.taskset = workload::mixed_taskset();
  cfg.sched.policy = rt::Policy::kMps;
  cfg.sched.num_contexts = 4;
  cfg.sched.oversubscription = 4.0;
  cfg.num_gpus = 4;
  cfg.routing = RoutingPolicy::kLeastUtilization;
  cfg.arrivals = exp::ArrivalMode::kPoisson;
  cfg.duration_s = 0.6;
  cfg.warmup_s = 0.1;
  return cfg;
}

exp::FaultSpec fault(exp::FaultSpec::Kind kind, int gpu, double at_s) {
  exp::FaultSpec f;
  f.kind = kind;
  f.gpu = gpu;
  f.at_s = at_s;
  return f;
}

TEST(FaultValidation, FaultOnAMissingGpuIsRefusedWithoutSimulating) {
  // GPU 7 of a 4-GPU fleet: before validation this indexed the fleet's
  // per-device arrays out of bounds.
  for (const auto kind : {exp::FaultSpec::Kind::kFail,
                          exp::FaultSpec::Kind::kSlow,
                          exp::FaultSpec::Kind::kDrain}) {
    exp::ClusterConfig cfg = four_gpu_config();
    cfg.faults = {fault(kind, 7, 0.2)};
    const exp::ClusterResult r = exp::run_cluster(cfg);
    EXPECT_NE(r.error.find("fault 0"), std::string::npos) << r.error;
    EXPECT_NE(r.error.find("gpu 7 does not exist"), std::string::npos)
        << r.error;
    EXPECT_TRUE(r.per_gpu.empty());  // nothing ran
    EXPECT_EQ(r.arrivals, 0u);
  }
  exp::ClusterConfig cfg = four_gpu_config();
  cfg.faults = {fault(exp::FaultSpec::Kind::kFail, -1, 0.2)};
  EXPECT_FALSE(exp::validate_config(cfg).empty());
}

TEST(FaultValidation, DevicesAddedNoLaterCountAndTiesGoInListOrder) {
  exp::ClusterConfig cfg = four_gpu_config();
  // GPU 4 exists once the kAdd at 0.2 s has fired.
  cfg.faults = {fault(exp::FaultSpec::Kind::kAdd, 0, 0.2),
                fault(exp::FaultSpec::Kind::kFail, 4, 0.4)};
  EXPECT_EQ(exp::validate_config(cfg), "");
  const exp::ClusterResult r = exp::run_cluster(cfg);
  EXPECT_TRUE(r.error.empty()) << r.error;
  ASSERT_EQ(r.per_gpu.size(), 5u);
  EXPECT_TRUE(r.conservation_ok) << r.conservation_detail;

  // Same instant: the kAdd must come first in the list.
  cfg.faults = {fault(exp::FaultSpec::Kind::kAdd, 0, 0.3),
                fault(exp::FaultSpec::Kind::kDrain, 4, 0.3)};
  EXPECT_EQ(exp::validate_config(cfg), "");
  cfg.faults = {fault(exp::FaultSpec::Kind::kDrain, 4, 0.3),
                fault(exp::FaultSpec::Kind::kAdd, 0, 0.3)};
  EXPECT_NE(exp::validate_config(cfg), "");
  // A kAdd after the fault, or times at/before the start firing together.
  cfg.faults = {fault(exp::FaultSpec::Kind::kSlow, 4, 0.2),
                fault(exp::FaultSpec::Kind::kAdd, 0, 0.3)};
  EXPECT_NE(exp::validate_config(cfg), "");
  cfg.faults = {fault(exp::FaultSpec::Kind::kAdd, 0, -1.0),
                fault(exp::FaultSpec::Kind::kFail, 4, -2.0)};
  EXPECT_EQ(exp::validate_config(cfg), "");
}

TEST(FaultValidation, SlowFactorAndTimesMustBeFinite) {
  exp::ClusterConfig cfg = four_gpu_config();
  for (const double factor :
       {0.0, -0.5, std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN()}) {
    exp::FaultSpec slow = fault(exp::FaultSpec::Kind::kSlow, 1, 0.2);
    slow.factor = factor;
    cfg.faults = {slow};
    EXPECT_NE(exp::validate_config(cfg).find("factor"), std::string::npos)
        << factor;
  }
  cfg.faults = {fault(exp::FaultSpec::Kind::kFail, 1,
                      std::numeric_limits<double>::quiet_NaN())};
  EXPECT_NE(exp::validate_config(cfg), "");
  exp::FaultSpec add = fault(exp::FaultSpec::Kind::kAdd, 0, 0.2);
  add.node.compute_scale = 0.0;
  cfg.faults = {add};
  EXPECT_NE(exp::validate_config(cfg).find("compute scale"),
            std::string::npos);
}

TEST(FaultValidation, EverySlowLeavesItsDeviceWithinTheNodeRule) {
  // Fleet::slow_gpu_now multiplies the device's compute scale by the
  // factor, so the scale each kSlow leaves must pass the node rule: 1e300
  // would make GPU 1 a one-SM device with 1e300 times the bandwidth.
  auto slow = [](int gpu, double at_s, double factor) {
    exp::FaultSpec f = fault(exp::FaultSpec::Kind::kSlow, gpu, at_s);
    f.factor = factor;
    return f;
  };
  exp::ClusterConfig cfg = four_gpu_config();
  cfg.faults = {slow(1, 0.2, 1e300)};
  const exp::ClusterResult refused = exp::run_cluster(cfg);
  EXPECT_NE(refused.error.find("fault 0 (slow): gpu 1 slowed to compute "
                               "scale 1e+300 times 68 SMs"),
            std::string::npos)
      << refused.error;
  EXPECT_TRUE(refused.per_gpu.empty());  // nothing ran

  // Slows of one device compound, in firing order, not list order: each
  // 1e4 alone leaves 680,000 SMs, both 6.8e9, past 2^31 - 1. The one
  // listed first fires second, so it is the one refused.
  cfg.faults = {slow(1, 0.3, 1e4), slow(1, 0.2, 1e4)};
  EXPECT_NE(exp::validate_config(cfg).find("fault 0 (slow): gpu 1 slowed"),
            std::string::npos)
      << exp::validate_config(cfg);
  cfg.faults = {slow(1, 0.3, 1e4), slow(2, 0.2, 1e4)};
  EXPECT_EQ(exp::validate_config(cfg), "");
  // Downwards too: 68 SMs x 0.1 x 0.1 is 0.68 SMs, a third 0.1 is 0.068.
  cfg.faults = {slow(3, 0.1, 0.1), slow(3, 0.2, 0.1)};
  EXPECT_EQ(exp::validate_config(cfg), "");
  cfg.faults.push_back(slow(3, 0.2, 0.1));
  EXPECT_NE(exp::validate_config(cfg).find("fault 2 (slow): gpu 3 slowed"),
            std::string::npos)
      << exp::validate_config(cfg);
  // An added device starts from its own node: 68 x 0.02 is 1.36 SMs, and
  // a quarter of that is under half an SM.
  exp::FaultSpec add = fault(exp::FaultSpec::Kind::kAdd, 0, 0.1);
  add.node.compute_scale = 0.02;
  cfg.faults = {add, slow(4, 0.2, 0.5)};
  EXPECT_EQ(exp::validate_config(cfg), "");
  cfg.faults = {add, slow(4, 0.2, 0.25)};
  EXPECT_NE(exp::validate_config(cfg).find("fault 1 (slow): gpu 4 slowed"),
            std::string::npos)
      << exp::validate_config(cfg);

  // An in-range slow still runs.
  cfg.faults = {slow(1, 0.2, 0.5)};
  const exp::ClusterResult r = exp::run_cluster(cfg);
  EXPECT_TRUE(r.error.empty()) << r.error;
  ASSERT_EQ(r.per_gpu.size(), 4u);
  EXPECT_TRUE(r.conservation_ok) << r.conservation_detail;
}

TEST(FaultValidation, EveryNodeFollowsOneScaleRuleInitialOrAdded) {
  // A compute scale must be finite and > 0, and base.sm_count x scale must
  // round to an SM count in [1, 2^31 - 1] without clamping
  // (GpuNodeSpec::resolved). Initial nodes follow the same rule as added
  // ones: a negative scale would report negative utilisation, 1e300 would
  // overflow into a one-SM device, and 1e-300 would be raised to one SM
  // with ~1e-298 of the memory bandwidth, so a kernel's fire time would
  // overflow Time.
  for (const double scale :
       {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(), 1e300, 1e-300}) {
    exp::ClusterConfig cfg = four_gpu_config();
    cfg.nodes.resize(2);
    cfg.nodes[1].compute_scale = scale;
    const exp::ClusterResult r = exp::run_cluster(cfg);
    EXPECT_NE(r.error.find("node 1: compute scale"), std::string::npos)
        << scale << ": " << r.error;
    EXPECT_TRUE(r.per_gpu.empty()) << scale;  // nothing ran
  }
  for (const double scale : {1e300, 1e-300}) {
    exp::ClusterConfig cfg = four_gpu_config();
    exp::FaultSpec add = fault(exp::FaultSpec::Kind::kAdd, 0, 0.2);
    add.node.compute_scale = scale;
    cfg.faults = {add};
    EXPECT_NE(exp::validate_config(cfg).find("fault 0 (add): compute scale"),
              std::string::npos)
        << scale;
  }
  // The lower bound is on the SM count: half an SM rounds up to one, and a
  // hair less is refused (64 SMs, so both products are exact).
  exp::ClusterConfig cfg = four_gpu_config();
  cfg.nodes.resize(2);
  cfg.nodes[1].base.sm_count = 64;
  cfg.nodes[1].compute_scale = 0.5 / 64;
  EXPECT_EQ(exp::validate_config(cfg), "");
  cfg.nodes[1].compute_scale = std::nextafter(0.5, 0.0) / 64;
  EXPECT_NE(exp::validate_config(cfg).find("node 1: compute scale"),
            std::string::npos);
  // bench_fig_cluster_scaling's heterogeneous fleet is valid.
  cfg = four_gpu_config();
  for (const double scale : {2.0, 1.0, 1.0, 0.5}) {
    GpuNodeSpec node;
    node.compute_scale = scale;
    cfg.nodes.push_back(node);
  }
  EXPECT_EQ(exp::validate_config(cfg), "");
}

// --- the counter list ------------------------------------------------------

TEST(CounterList, NamesAreUniqueAndCoverADeviceAddedMidRun) {
  // Every name is non-empty and unique, and the device that joined mid-run
  // (gpu4) reports all 15 per-device entries.
  exp::ClusterConfig cfg = four_gpu_config();
  cfg.faults = {fault(exp::FaultSpec::Kind::kAdd, 0, 0.2)};
  const exp::ClusterResult r = exp::run_cluster(cfg);
  ASSERT_EQ(r.per_gpu.size(), 5u);
  const std::vector<exp::NamedCounter> counters = exp::counters_of(r);
  EXPECT_EQ(counters.size(), 42u + 15u * r.per_gpu.size());
  std::set<std::string> names;
  std::size_t added_device = 0;
  for (const exp::NamedCounter& c : counters) {
    EXPECT_FALSE(c.name.empty());
    EXPECT_TRUE(names.insert(c.name).second) << "duplicate " << c.name;
    if (c.name.rfind("gpu4_", 0) == 0) ++added_device;
    if (c.name == "gpu4_completed") {
      EXPECT_EQ(c.value, static_cast<double>(r.per_gpu[4].completed));
    }
  }
  EXPECT_EQ(added_device, 15u);
  EXPECT_GT(r.per_gpu[4].completed, 0u);
}

/// The hand-wired fault schedule's outcome: every counter a lane count
/// could perturb, flattened for equality comparison.
std::vector<std::uint64_t> hand_wired_fault_schedule(int lanes) {
  Harness h(3, /*num_contexts=*/2, /*transfer_us_per_mb=*/100.0, lanes);
  workload::TaskSetSpec taskset;
  const int num_tasks = 6;
  for (int i = 0; i < num_tasks; ++i) {
    const int id = h.add_task(i % 3 == 0 ? Priority::kHigh : Priority::kLow,
                              1500.0 + 700.0 * i, i % 3);
    taskset.tasks.push_back(h.fleet->spec(id));
  }
  h.fleet->run_offline_phase();
  Router router(*h.fleet, RoutingPolicy::kLeastUtilization, 1, &h.collector);
  const common::Time horizon = common::from_ms(200.0);
  workload::PeriodicDriver driver(
      h.sim.control(), taskset, [&router](int id) { router.release(id); },
      horizon);
  driver.start();
  // Fail-stop, then scale-up (add_gpu_now grows a device shard mid-run),
  // then drain — each an ordinary control-shard event.
  h.sim.control().schedule_at(common::from_ms(51.0),
                              [&h] { h.fleet->fail_gpu_now(1); });
  h.sim.control().schedule_at(common::from_ms(90.0), [&h] {
    const int g = h.fleet->add_gpu_now(GpuNodeSpec{});
    for (int t = 0; t < num_tasks; ++t) {
      h.fleet->set_afet(t, g,
                        std::vector<double>(h.model->stage_count(), 500.0));
    }
    h.fleet->run_offline_phase(g);
  });
  h.sim.control().schedule_at(common::from_ms(130.0),
                              [&h] { h.fleet->drain_gpu_now(0); });
  h.sim.run_until(horizon);
  h.collector.finalize_lanes();

  // Conservation, including the shared per-task active count that every
  // device — the one added mid-run too — updates from its own shard.
  Fleet::ConservationInput cons;
  for (std::size_t c = 0; c < 2; ++c) {
    const auto p = static_cast<Priority>(c);
    cons.released[c] = router.released_of(p);
    cons.shed[c] = router.shed_of(p);
    cons.pending[c] = router.pending_of(p);
  }
  const Fleet::ConservationReport rep = h.fleet->check_conservation(cons);
  EXPECT_TRUE(rep.ok) << lanes << " lanes: " << rep.detail;
  // The added device's MRET estimators were re-seeded mid-run.
  EXPECT_EQ(audit_text(*h.fleet), "") << lanes << " lanes";

  std::vector<std::uint64_t> out = {
      h.fleet->jobs_lost(), router.drops(), router.cross_gpu_migrations(),
      router.transfers(),   router.transfer_cancels(),
      static_cast<std::uint64_t>(h.sim.device_shards())};
  for (const Priority p : {Priority::kHigh, Priority::kLow}) {
    const metrics::ClassSummary& c = h.collector.summary(p);
    out.insert(out.end(), {c.released, c.accepted, c.rejected, c.completed,
                           c.missed});
  }
  for (int g = 0; g < h.fleet->size(); ++g) {
    out.push_back(h.fleet->jobs_completed(g));
    out.push_back(h.collector.routing(g).routed);
  }
  return out;
}

TEST(FleetFaults, HandWiredFaultScheduleMatchesAcrossLanes) {
  // Fail, scale-up, and drain through the Fleet API itself, with device
  // events on a real pool worker at two lanes: same outcome as one lane.
  const std::vector<std::uint64_t> one = hand_wired_fault_schedule(1);
  const std::vector<std::uint64_t> two = hand_wired_fault_schedule(2);
  EXPECT_EQ(one, two);
  EXPECT_GT(one[0], 0u);  // the fail-stop shed in-flight work
  EXPECT_EQ(one[5], 4u);  // the added device got its own shard
}

}  // namespace
}  // namespace daris::cluster
