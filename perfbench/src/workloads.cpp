#include "workloads.h"

#include <cstdio>
#include <cstdlib>
#include <set>

#include "workload/taskset.h"
#include "workload/trace.h"

namespace perfbench {

namespace ex = daris::exp;
namespace rt = daris::rt;
namespace wl = daris::workload;

namespace {

// The paper's Sec. V grid (the points exp::paper_grid() lists) with its
// repeats removed: OS = 2 coincides with OS = Nc at Nc = 2, which makes
// "MPS 2x1 2" and "MPS+STR 2x{2,3,4,5} 2" appear twice there. Pinned here so
// that de-duplicating the live grid reads as a behaviour change of the
// figure driver, not as a speed-up of the benchmark.
struct PointSpec {
  rt::Policy policy;
  int nc;
  int ns;
  double os;
};

const PointSpec kPaperGrid[] = {
    // STR: one context, Ns streams.
    {rt::Policy::kStr, 1, 2, 1.0}, {rt::Policy::kStr, 1, 3, 1.0},
    {rt::Policy::kStr, 1, 4, 1.0}, {rt::Policy::kStr, 1, 6, 1.0},
    {rt::Policy::kStr, 1, 8, 1.0}, {rt::Policy::kStr, 1, 10, 1.0},
    // MPS: Nc x 1 with OS in {1, 1.5, 2, Nc}.
    {rt::Policy::kMps, 2, 1, 1.0}, {rt::Policy::kMps, 2, 1, 1.5},
    {rt::Policy::kMps, 2, 1, 2.0},
    {rt::Policy::kMps, 3, 1, 1.0}, {rt::Policy::kMps, 3, 1, 1.5},
    {rt::Policy::kMps, 3, 1, 2.0}, {rt::Policy::kMps, 3, 1, 3.0},
    {rt::Policy::kMps, 4, 1, 1.0}, {rt::Policy::kMps, 4, 1, 1.5},
    {rt::Policy::kMps, 4, 1, 2.0}, {rt::Policy::kMps, 4, 1, 4.0},
    {rt::Policy::kMps, 6, 1, 1.0}, {rt::Policy::kMps, 6, 1, 1.5},
    {rt::Policy::kMps, 6, 1, 2.0}, {rt::Policy::kMps, 6, 1, 6.0},
    {rt::Policy::kMps, 8, 1, 1.0}, {rt::Policy::kMps, 8, 1, 1.5},
    {rt::Policy::kMps, 8, 1, 2.0}, {rt::Policy::kMps, 8, 1, 8.0},
    {rt::Policy::kMps, 10, 1, 1.0}, {rt::Policy::kMps, 10, 1, 1.5},
    {rt::Policy::kMps, 10, 1, 2.0}, {rt::Policy::kMps, 10, 1, 10.0},
    // MPS+STR: Nc x Ns <= 10 with OS in {1, 2, Nc}.
    {rt::Policy::kMpsStr, 2, 2, 1.0}, {rt::Policy::kMpsStr, 2, 2, 2.0},
    {rt::Policy::kMpsStr, 2, 3, 1.0}, {rt::Policy::kMpsStr, 2, 3, 2.0},
    {rt::Policy::kMpsStr, 2, 4, 1.0}, {rt::Policy::kMpsStr, 2, 4, 2.0},
    {rt::Policy::kMpsStr, 2, 5, 1.0}, {rt::Policy::kMpsStr, 2, 5, 2.0},
    {rt::Policy::kMpsStr, 3, 2, 1.0}, {rt::Policy::kMpsStr, 3, 2, 2.0},
    {rt::Policy::kMpsStr, 3, 2, 3.0},
    {rt::Policy::kMpsStr, 3, 3, 1.0}, {rt::Policy::kMpsStr, 3, 3, 2.0},
    {rt::Policy::kMpsStr, 3, 3, 3.0},
    {rt::Policy::kMpsStr, 4, 2, 1.0}, {rt::Policy::kMpsStr, 4, 2, 2.0},
    {rt::Policy::kMpsStr, 4, 2, 4.0},
    {rt::Policy::kMpsStr, 5, 2, 1.0}, {rt::Policy::kMpsStr, 5, 2, 2.0},
    {rt::Policy::kMpsStr, 5, 2, 5.0},
};

// paper-grid-resnet18: Table II ResNet18 set (17 HP + 34 LP tasks at 30 JPS)
// on one RTX 2080 Ti, periodic releases, 4 s simulated of which 1 s warm-up
// (the horizon bench_fig4_resnet18 runs). The seed drives the device's
// execution-time jitter; seed 42 is the figure's own run.
void paper_grid(std::uint64_t seed, bool quick, Workload* w) {
  const wl::TaskSetSpec taskset =
      wl::table2_taskset(daris::dnn::ModelKind::kResNet18);
  std::set<std::string> seen;
  for (const PointSpec& p : kPaperGrid) {
    ex::RunConfig cfg;
    cfg.taskset = taskset;
    cfg.sched.policy = p.policy;
    cfg.sched.num_contexts = p.nc;
    cfg.sched.streams_per_context = p.ns;
    cfg.sched.oversubscription = p.os;
    cfg.sched.canonicalize();
    cfg.duration_s = quick ? 1.5 : 4.0;
    cfg.warmup_s = quick ? 0.5 : 1.0;
    cfg.seed = seed;
    const std::string label =
        std::string(rt::policy_name(p.policy)) + " " + cfg.sched.label();
    if (!seen.insert(label).second) {
      std::fprintf(stderr, "perfbench: duplicate grid point %s\n",
                   label.c_str());
      std::abort();
    }
    w->points.push_back(cfg);
    w->point_labels.push_back(label);
    if (quick && w->points.size() == 3) break;
  }
}

// fleet-256-poisson: 256 GPUs, the Table II mixed set replicated per GPU
// (8,192 tasks), MPS with 6 contexts at OS 6, least-utilisation routing,
// open-loop Poisson arrivals at the nominal rate for 0.5 s simulated. The
// rebalancer, the resilience layer and telemetry stay off. The seed drives
// arrivals, device jitter and the router.
void fleet_256(std::uint64_t seed, bool quick, Workload* w) {
  const int gpus = quick ? 8 : 256;
  ex::ClusterConfig& cfg = w->cluster;
  cfg.taskset = wl::replicated_taskset(wl::mixed_taskset(), gpus);
  cfg.sched.policy = rt::Policy::kMps;
  cfg.sched.num_contexts = 6;
  cfg.sched.oversubscription = 6.0;
  cfg.num_gpus = gpus;
  cfg.routing = daris::cluster::RoutingPolicy::kLeastUtilization;
  cfg.arrivals = ex::ArrivalMode::kPoisson;
  cfg.duration_s = quick ? 0.3 : 0.5;
  cfg.warmup_s = 0.1;
  cfg.seed = seed;
  set_lanes(&cfg, kLanes);
}

// storm-64-healing: the flash-crowd-64 scenario's shape — 64 GPUs, hybrid
// routing, a generated ~42.7k JPS trace with a 2.5x spike at t = 1 s for
// 0.8 s, stealing + re-homing + coalescing, budgeted retries — with
// telemetry on and 4 lanes. The seed drives the trace generator only, so
// seed 7 replays the committed scenario (hp_dmr 0.0632). The trace is
// generated here, outside the timed region.
void storm_64(std::uint64_t seed, bool quick, Workload* w) {
  const int gpus = quick ? 8 : 64;
  const double horizon_s = quick ? 1.2 : 2.5;
  ex::ClusterConfig& cfg = w->cluster;
  cfg.taskset = wl::replicated_taskset(wl::mixed_taskset(), gpus);
  cfg.sched.policy = rt::Policy::kMps;
  cfg.sched.num_contexts = 6;
  cfg.sched.oversubscription = 6.0;
  cfg.num_gpus = gpus;
  cfg.routing = daris::cluster::RoutingPolicy::kHybrid;
  cfg.arrivals = ex::ArrivalMode::kTrace;
  cfg.duration_s = horizon_s;
  cfg.warmup_s = 0.5;
  wl::TraceGenConfig gen;
  gen.duration_s = horizon_s;
  gen.mean_rate_jps = 2000.0 * gpus / 3.0;
  gen.diurnal_amplitude = 0.0;
  wl::FlashCrowd spike;
  spike.start_s = quick ? 0.6 : 1.0;
  spike.duration_s = quick ? 0.3 : 0.8;
  spike.factor = 2.5;
  gen.flashes.push_back(spike);
  gen.seed = seed;
  cfg.trace = wl::generate_trace(wl::trace_mix(cfg.taskset), gen);
  cfg.rebalance.enabled = true;
  cfg.rebalance.max_steals_per_scan = 8;
  cfg.resilience.enabled = true;
  cfg.telemetry.enabled = true;
  set_lanes(&cfg, kLanes);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "paper-grid-resnet18", "fleet-256-poisson", "storm-64-healing"};
  return names;
}

bool make_workload(const std::string& name, std::uint64_t seed, bool quick,
                   Workload* out) {
  *out = Workload{};
  out->name = name;
  if (name == "paper-grid-resnet18") {
    paper_grid(seed, quick, out);
  } else if (name == "fleet-256-poisson") {
    fleet_256(seed, quick, out);
  } else if (name == "storm-64-healing") {
    storm_64(seed, quick, out);
  } else {
    return false;
  }
  return true;
}

void set_lanes(ex::ClusterConfig* cfg, int lanes) {
  cfg->sharded = true;
  cfg->sim_threads = lanes;
}

}  // namespace perfbench
