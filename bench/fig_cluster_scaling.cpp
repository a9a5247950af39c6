// Cluster scaling study: throughput and HP/LP deadline-miss rate vs. fleet
// size (1..8 GPUs) under each routing policy, on the mixed task set
// replicated per GPU so aggregate demand grows with the fleet (per-task
// rates, and so per-task utilisation, stay at the Table II operating point —
// 150% of one GPU's batching upper baseline).
//
// Expectations this driver checks:
//   - a 4-GPU fleet under least-utilization routing sustains >= 3.5x the
//     1-GPU total JPS with zero HP deadline misses;
//   - under skewed per-model demand (75% of demand on ResNet18, 8 GPUs)
//     model-affinity routing collapses, while hybrid affinity+spillover
//     matches or beats least-util throughput with zero HP misses;
//   - a heterogeneous fleet (2x/1x/1x/0.5x compute) serves demand in
//     proportion to device speed under score-normalised policies;
//   - every run is bit-identical across repeats with the same seed;
//   - open-loop overload (Poisson / bursty arrivals above nominal rate) is
//     absorbed by cross-GPU migration before jobs are dropped;
//   - under time-varying demand (a 4x flash crowd on a fleet packed for the
//     steady state) the self-healing rebalancer claims queued LP work for
//     warm peers and cuts drops versus the static hybrid baseline, with
//     transfer coalescing shipping strictly fewer weight MB than the same
//     rebalanced run with coalescing off.
//
// Exit status: 0 when all 15 checks print PASS, 1 when any prints FAIL.
//
// docs/CLUSTER.md is the routing-policy guide behind these tables.
#include <cstdio>
#include <utility>

#include "common/table.h"
#include "experiments/cluster_runner.h"
#include "metrics/trace_report.h"

using namespace daris;

namespace {

exp::ClusterConfig base_config(int num_gpus, cluster::RoutingPolicy routing) {
  exp::ClusterConfig cfg;
  cfg.taskset =
      workload::replicated_taskset(workload::mixed_taskset(), num_gpus);
  cfg.sched.policy = rt::Policy::kMps;
  cfg.sched.num_contexts = 6;
  cfg.sched.oversubscription = 6.0;
  cfg.num_gpus = num_gpus;
  cfg.routing = routing;
  cfg.duration_s = 2.5;
  cfg.warmup_s = 0.5;
  return cfg;
}

double fleet_utilization(const exp::ClusterResult& r) {
  double u = 0.0;
  for (const auto& g : r.per_gpu) u += g.utilization;
  return r.per_gpu.empty() ? 0.0 : u / static_cast<double>(r.per_gpu.size());
}

/// True when every counter of the two runs (exp::counters_of) is equal;
/// %.17g text round-trips a double, so equal text is equal bits.
bool identical(const exp::ClusterResult& a, const exp::ClusterResult& b) {
  return exp::format_counters(exp::counters_of(a)) ==
         exp::format_counters(exp::counters_of(b));
}

void add_policy_row(common::Table& table, const char* label,
                    const exp::ClusterResult& r) {
  table.add_row({label, common::fmt_double(r.total_jps, 0),
                 common::fmt_percent(r.hp.dmr(), 2),
                 common::fmt_percent(r.lp.dmr(), 2),
                 common::fmt_int(static_cast<long long>(
                     r.cross_gpu_migrations)),
                 common::fmt_int(static_cast<long long>(r.transfers)),
                 common::fmt_double(r.transferred_mb, 0),
                 common::fmt_int(static_cast<long long>(r.drops)),
                 common::fmt_percent(fleet_utilization(r), 0)});
}

}  // namespace

int main() {
  int failed = 0;
  const auto verdict = [&failed](bool pass) {
    if (!pass) ++failed;
    return pass ? "PASS" : "FAIL";
  };

  std::printf("== Cluster scaling: fleet size x routing policy ==\n\n");
  const cluster::RoutingPolicy policies[] = {
      cluster::RoutingPolicy::kRoundRobin,
      cluster::RoutingPolicy::kLeastUtilization,
      cluster::RoutingPolicy::kPowerOfTwo,
      cluster::RoutingPolicy::kModelAffinity,
      cluster::RoutingPolicy::kHybrid,
  };

  double single_gpu_jps = 0.0;
  double four_gpu_least_util_jps = 0.0;
  std::uint64_t four_gpu_hp_missed = 0;

  common::Table table({"GPUs", "routing", "JPS", "speedup", "HP DMR",
                       "LP DMR", "x-GPU migr", "drops", "util"});
  for (int n : {1, 2, 4, 8}) {
    for (const auto policy : policies) {
      const exp::ClusterResult r = exp::run_cluster(base_config(n, policy));
      if (n == 1 &&
          policy == cluster::RoutingPolicy::kLeastUtilization) {
        single_gpu_jps = r.total_jps;
      }
      if (n == 4 &&
          policy == cluster::RoutingPolicy::kLeastUtilization) {
        four_gpu_least_util_jps = r.total_jps;
        four_gpu_hp_missed = r.hp.missed;
      }
      const double speedup =
          single_gpu_jps > 0.0 ? r.total_jps / single_gpu_jps : 1.0;
      table.add_row({common::fmt_int(n), cluster::routing_policy_name(policy),
                     common::fmt_double(r.total_jps, 0),
                     common::fmt_double(speedup, 2) + "x",
                     common::fmt_percent(r.hp.dmr(), 2),
                     common::fmt_percent(r.lp.dmr(), 2),
                     common::fmt_int(static_cast<long long>(
                         r.cross_gpu_migrations)),
                     common::fmt_int(static_cast<long long>(r.drops)),
                     common::fmt_percent(fleet_utilization(r), 0)});
    }
  }
  std::printf("%s\n", table.to_string().c_str());

  const double scaling = single_gpu_jps > 0.0
                             ? four_gpu_least_util_jps / single_gpu_jps
                             : 0.0;
  std::printf(
      "4-GPU least-util scaling: %.2fx over 1 GPU (target >= 3.5x): %s\n",
      scaling, verdict(scaling >= 3.5));
  std::printf("4-GPU least-util HP deadline misses: %llu (target 0): %s\n",
              static_cast<unsigned long long>(four_gpu_hp_missed),
              verdict(four_gpu_hp_missed == 0));

  // Determinism: the same seed and config must be bit-identical on repeat.
  {
    const auto cfg =
        base_config(4, cluster::RoutingPolicy::kLeastUtilization);
    const exp::ClusterResult a = exp::run_cluster(cfg);
    const exp::ClusterResult b = exp::run_cluster(cfg);
    std::printf("repeat run bit-identical: %s\n\n",
                verdict(identical(a, b)));
  }

  // -------------------------------------------------------------------------
  // Skewed per-model demand: 75% of fleet demand on ResNet18 over 8 GPUs.
  // Pure model-affinity homes the whole heavy kind on one device and
  // collapses; hybrid keeps the affinity benefit but balances homes by
  // demand share and spills at runtime.
  std::printf("== Skewed per-model demand on 8 GPUs (75%% ResNet18) ==\n\n");
  double skew_least_util_jps = 0.0;
  double skew_least_util_lp_dmr = 0.0;
  double skew_hybrid_jps = 0.0;
  double skew_hybrid_lp_dmr = 0.0;
  std::uint64_t skew_hybrid_hp_missed = 0;
  std::uint64_t skew_affinity_hp_missed = 0;
  {
    common::Table skew({"routing", "JPS", "HP DMR", "LP DMR", "x-GPU migr",
                        "transfers", "MB moved", "drops", "util"});
    for (const auto policy : {cluster::RoutingPolicy::kModelAffinity,
                              cluster::RoutingPolicy::kLeastUtilization,
                              cluster::RoutingPolicy::kHybrid}) {
      exp::ClusterConfig cfg = base_config(8, policy);
      cfg.taskset = workload::skewed_taskset(8);
      const exp::ClusterResult r = exp::run_cluster(cfg);
      if (policy == cluster::RoutingPolicy::kLeastUtilization) {
        skew_least_util_jps = r.total_jps;
        skew_least_util_lp_dmr = r.lp.dmr();
      }
      if (policy == cluster::RoutingPolicy::kHybrid) {
        skew_hybrid_jps = r.total_jps;
        skew_hybrid_lp_dmr = r.lp.dmr();
        skew_hybrid_hp_missed = r.hp.missed;
      }
      if (policy == cluster::RoutingPolicy::kModelAffinity) {
        skew_affinity_hp_missed = r.hp.missed;
      }
      add_policy_row(skew, cluster::routing_policy_name(policy), r);
    }
    std::printf("%s\n", skew.to_string().c_str());
    std::printf(
        "hybrid vs least-util JPS: %.0f vs %.0f (match within 1%% or beat): "
        "%s\n",
        skew_hybrid_jps, skew_least_util_jps,
        verdict(skew_hybrid_jps >= 0.99 * skew_least_util_jps));
    std::printf("hybrid vs least-util LP DMR: %.2f%% vs %.2f%% (<=): %s\n",
                100.0 * skew_hybrid_lp_dmr, 100.0 * skew_least_util_lp_dmr,
                verdict(skew_hybrid_lp_dmr <= skew_least_util_lp_dmr));
    std::printf("hybrid HP deadline misses: %llu (target 0): %s\n",
                static_cast<unsigned long long>(skew_hybrid_hp_missed),
                verdict(skew_hybrid_hp_missed == 0));
    std::printf("model-affinity collapse visible (HP misses %llu > 0): %s\n",
                static_cast<unsigned long long>(skew_affinity_hp_missed),
                verdict(skew_affinity_hp_missed > 0));

    exp::ClusterConfig cfg =
        base_config(8, cluster::RoutingPolicy::kHybrid);
    cfg.taskset = workload::skewed_taskset(8);
    const exp::ClusterResult a = exp::run_cluster(cfg);
    const exp::ClusterResult b = exp::run_cluster(cfg);
    std::printf("skewed repeat run bit-identical: %s\n\n",
                verdict(identical(a, b)));
  }

  // -------------------------------------------------------------------------
  // Heterogeneous fleet: one flagship, two baseline cards, one half-size
  // card (4.5 GPUs' worth of compute). Placement scores normalise load by
  // compute scale, and hybrid's home packing gives each device a fair share
  // of demand proportional to its speed.
  std::printf(
      "== Heterogeneous fleet (2.0x / 1.0x / 1.0x / 0.5x compute) ==\n\n");
  {
    common::Table het({"routing", "JPS", "HP DMR", "LP DMR", "x-GPU migr",
                       "transfers", "MB moved", "drops", "util"});
    exp::ClusterResult hybrid_result;
    for (const auto policy : {cluster::RoutingPolicy::kRoundRobin,
                              cluster::RoutingPolicy::kLeastUtilization,
                              cluster::RoutingPolicy::kHybrid}) {
      exp::ClusterConfig cfg = base_config(4, policy);
      for (const double scale : {2.0, 1.0, 1.0, 0.5}) {
        cluster::GpuNodeSpec node;
        node.compute_scale = scale;
        cfg.nodes.push_back(node);
      }
      exp::ClusterResult r = exp::run_cluster(cfg);
      add_policy_row(het, cluster::routing_policy_name(policy), r);
      if (policy == cluster::RoutingPolicy::kHybrid) {
        hybrid_result = std::move(r);
      }
    }
    std::printf("%s\n", het.to_string().c_str());

    std::printf("hybrid per-GPU completions (2.0x/1.0x/1.0x/0.5x): ");
    for (const auto& g : hybrid_result.per_gpu) {
      std::printf("%llu ", static_cast<unsigned long long>(g.completed));
    }
    std::printf("\n");

    exp::ClusterConfig cfg = base_config(4, cluster::RoutingPolicy::kHybrid);
    for (const double scale : {2.0, 1.0, 1.0, 0.5}) {
      cluster::GpuNodeSpec node;
      node.compute_scale = scale;
      cfg.nodes.push_back(node);
    }
    const exp::ClusterResult a = exp::run_cluster(cfg);
    const exp::ClusterResult b = exp::run_cluster(cfg);
    std::printf("heterogeneous repeat run bit-identical: %s\n\n",
                verdict(identical(a, b)));
  }

  std::printf("== Open-loop overload on 4 GPUs (least-util routing) ==\n\n");
  common::Table overload({"arrivals", "rate", "JPS", "HP DMR", "LP DMR",
                          "x-GPU migr", "drops"});
  for (const auto mode : {exp::ArrivalMode::kPoisson,
                          exp::ArrivalMode::kBursty}) {
    for (double rate_scale : {1.0, 1.5}) {
      exp::ClusterConfig cfg =
          base_config(4, cluster::RoutingPolicy::kLeastUtilization);
      cfg.arrivals = mode;
      cfg.rate_scale = rate_scale;
      const exp::ClusterResult r = exp::run_cluster(cfg);
      overload.add_row({exp::arrival_mode_name(mode),
                        common::fmt_double(rate_scale, 1) + "x",
                        common::fmt_double(r.total_jps, 0),
                        common::fmt_percent(r.hp.dmr(), 2),
                        common::fmt_percent(r.lp.dmr(), 2),
                        common::fmt_int(static_cast<long long>(
                            r.cross_gpu_migrations)),
                        common::fmt_int(static_cast<long long>(r.drops))});
    }
  }
  std::printf("%s\n", overload.to_string().c_str());

  // -------------------------------------------------------------------------
  // Time-varying demand: a 4x flash crowd for 2s over steady 2000 JPS on a
  // 3-GPU hybrid fleet whose homes were packed for the steady state. The
  // static fleet rides the spike out with drops; the self-healing
  // rebalancer (work stealing, coalescing on) claims queued LP stages for
  // warm peers and cuts drops without hurting HP deadlines. A third run
  // with coalescing off isolates the transfer saving: attaching concurrent
  // cold migrations to the in-flight copy must ship strictly fewer MB.
  std::printf(
      "== Time-varying demand (4x flash crowd, 3 GPUs, hybrid) ==\n\n");
  {
    const auto flash_config = [](bool rebalance, bool coalesce) {
      exp::ClusterConfig cfg =
          base_config(3, cluster::RoutingPolicy::kHybrid);
      cfg.arrivals = exp::ArrivalMode::kTrace;
      cfg.duration_s = 6.0;
      workload::TraceGenConfig gen;
      gen.duration_s = 6.0;
      gen.mean_rate_jps = 2000.0;
      gen.diurnal_amplitude = 0.0;
      workload::FlashCrowd spike;
      spike.start_s = 2.0;
      spike.duration_s = 2.0;
      spike.factor = 4.0;
      gen.flashes.push_back(spike);
      gen.seed = 7;
      cfg.trace =
          workload::generate_trace(workload::trace_mix(cfg.taskset), gen);
      cfg.rebalance.enabled = rebalance;
      cfg.rebalance.rehome = false;  // attribute recovery to stealing
      cfg.rebalance.max_steals_per_scan = 8;
      cfg.rebalance.coalesce = coalesce;
      return cfg;
    };
    const exp::ClusterResult off =
        exp::run_cluster(flash_config(false, false));
    const exp::ClusterResult on = exp::run_cluster(flash_config(true, true));
    const exp::ClusterResult no_coal =
        exp::run_cluster(flash_config(true, false));

    common::Table tv({"fleet", "JPS", "HP DMR", "LP DMR", "steals",
                      "coalesced", "MB moved", "drops"});
    const struct {
      const char* label;
      const exp::ClusterResult* r;
    } rows[] = {{"static hybrid", &off},
                {"self-healing", &on},
                {"self-healing, no coalesce", &no_coal}};
    for (const auto& row : rows) {
      tv.add_row({row.label, common::fmt_double(row.r->total_jps, 0),
                  common::fmt_percent(row.r->hp.dmr(), 2),
                  common::fmt_percent(row.r->lp.dmr(), 2),
                  common::fmt_int(static_cast<long long>(row.r->steals)),
                  common::fmt_int(static_cast<long long>(
                      row.r->coalesced_transfers)),
                  common::fmt_double(row.r->transferred_mb, 0),
                  common::fmt_int(static_cast<long long>(row.r->drops))});
    }
    std::printf("%s\n", tv.to_string().c_str());

    std::printf("rebalancer stole queued work (steals %llu >= 1): %s\n",
                static_cast<unsigned long long>(on.steals),
                verdict(on.steals >= 1));
    std::printf("rebalancing cut drops: %llu vs %llu static: %s\n",
                static_cast<unsigned long long>(on.drops),
                static_cast<unsigned long long>(off.drops),
                verdict(on.drops < off.drops));
    std::printf("HP DMR no worse than static: %.2f%% vs %.2f%%: %s\n",
                100.0 * on.hp.dmr(), 100.0 * off.hp.dmr(),
                verdict(on.hp.dmr() <= off.hp.dmr()));
    std::printf("coalescing engaged (coalesced %llu >= 1): %s\n",
                static_cast<unsigned long long>(on.coalesced_transfers),
                verdict(on.coalesced_transfers >= 1));
    std::printf(
        "coalescing ships strictly fewer MB: %.0f vs %.0f without: %s\n",
        on.transferred_mb, no_coal.transferred_mb,
        verdict(on.transferred_mb < no_coal.transferred_mb));

    const exp::ClusterResult again =
        exp::run_cluster(flash_config(true, true));
    std::printf("self-healing repeat run bit-identical: %s\n\n",
                verdict(identical(on, again)));
  }

  // Migration/starvation summary folded from the stage trace (trace
  // tooling; gpu_migrations counts tasks whose consecutive stages ran on
  // different devices).
  {
    exp::ClusterConfig cfg =
        base_config(2, cluster::RoutingPolicy::kLeastUtilization);
    cfg.arrivals = exp::ArrivalMode::kBursty;
    cfg.rate_scale = 1.5;
    cfg.duration_s = 1.5;
    cfg.stage_trace = true;
    const exp::ClusterResult r = exp::run_cluster(cfg);
    std::printf("%s",
                metrics::trace_report(r.stage_trace).to_string().c_str());
  }
  return failed == 0 ? 0 : 1;
}
