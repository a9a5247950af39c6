#include "experiments/scenarios.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <utility>

#include "metrics/trace_export.h"
#include "workload/taskset.h"

namespace daris::exp {

namespace {

// ---------------------------------------------------------------------------
// Shared fleet shape: the Table II mixed set replicated per GPU (per-task
// rates stay at the paper's 150% operating point), MPS with 6 contexts,
// hybrid affinity+spillover routing — the configuration docs/CLUSTER.md
// recommends for production-shaped load.
// ---------------------------------------------------------------------------

ClusterConfig fleet_base(int num_gpus) {
  ClusterConfig cfg;
  cfg.taskset =
      workload::replicated_taskset(workload::mixed_taskset(), num_gpus);
  cfg.sched.policy = rt::Policy::kMps;
  cfg.sched.num_contexts = 6;
  cfg.sched.oversubscription = 6.0;
  cfg.num_gpus = num_gpus;
  cfg.routing = cluster::RoutingPolicy::kHybrid;
  cfg.duration_s = 3.0;
  cfg.warmup_s = 0.5;
  cfg.stage_trace = true;
  return cfg;
}

// Generated-trace arrivals shared by the flash-crowd rows: a steady
// `rate_jps` over `duration_s` with one `factor`x spike of `spike_s` seconds
// starting at `start_s` (no diurnal swing, trace seed 7). Sets the run's
// duration to the trace's.
void flash_crowd_trace(ClusterConfig* cfg, double duration_s, double rate_jps,
                       double start_s, double spike_s, double factor) {
  cfg->arrivals = ArrivalMode::kTrace;
  cfg->duration_s = duration_s;
  workload::TraceGenConfig gen;
  gen.duration_s = duration_s;
  gen.mean_rate_jps = rate_jps;
  gen.diurnal_amplitude = 0.0;
  workload::FlashCrowd spike;
  spike.start_s = start_s;
  spike.duration_s = spike_s;
  spike.factor = factor;
  gen.flashes.push_back(spike);
  gen.seed = 7;
  cfg->trace = workload::generate_trace(workload::trace_mix(cfg->taskset), gen);
}

// Overload storm: bursty (MMPP-style) arrivals at 1.6x nominal demand on a
// healthy 4-GPU fleet. The fleet must shed load through admission control
// (LP rejections / drops), not through HP deadline misses or starvation.
ClusterConfig overload_storm(const std::string& /*data_dir*/) {
  ClusterConfig cfg = fleet_base(4);
  cfg.arrivals = ArrivalMode::kBursty;
  cfg.rate_scale = 1.6;
  return cfg;
}

// Fail-stop mid-burst: GPU 1 dies at t=1.5s while bursty arrivals run at
// 1.2x nominal. In-flight jobs on the dead device become misses (bounded),
// its tasks rehome, and the survivors absorb the demand.
ClusterConfig fail_stop_mid_burst(const std::string& /*data_dir*/) {
  ClusterConfig cfg = fleet_base(4);
  cfg.arrivals = ArrivalMode::kBursty;
  cfg.rate_scale = 1.2;
  FaultSpec f;
  f.kind = FaultSpec::Kind::kFail;
  f.gpu = 1;
  f.at_s = 1.5;
  cfg.faults.push_back(f);
  return cfg;
}

// Straggler: GPU 0 halves its throughput at t=1.0s (thermal throttling /
// noisy neighbour). AFET re-profiles against the degraded spec, so admission
// stays truthful and HP work keeps meeting deadlines fleet-wide.
ClusterConfig straggler(const std::string& /*data_dir*/) {
  ClusterConfig cfg = fleet_base(4);
  FaultSpec f;
  f.kind = FaultSpec::Kind::kSlow;
  f.gpu = 0;
  f.at_s = 1.0;
  f.factor = 0.5;
  cfg.faults.push_back(f);
  return cfg;
}

// Drain-under-load + autoscale: GPU 0 drains at t=1.0s (finishes in-flight
// work, takes nothing new) and a replacement device comes online at t=1.2s,
// is profiled live, and picks up the rehomed tasks. Graceful scale-down must
// lose zero jobs.
ClusterConfig drain_under_load(const std::string& /*data_dir*/) {
  ClusterConfig cfg = fleet_base(4);
  FaultSpec drain;
  drain.kind = FaultSpec::Kind::kDrain;
  drain.gpu = 0;
  drain.at_s = 1.0;
  cfg.faults.push_back(drain);
  FaultSpec add;
  add.kind = FaultSpec::Kind::kAdd;
  add.at_s = 1.2;
  cfg.faults.push_back(add);
  return cfg;
}

// Diurnal replay: the bundled ~50k-row production-shaped trace (diurnal
// rate swing plus a 2.5x flash crowd at t=22s) replayed through the same
// ReleaseFn sink the synthetic drivers use, on a 3-GPU fleet.
ClusterConfig diurnal_replay(const std::string& data_dir) {
  ClusterConfig cfg = fleet_base(3);
  cfg.arrivals = ArrivalMode::kTrace;
  cfg.duration_s = 30.0;
  cfg.warmup_s = 1.0;
  std::string error;
  if (!workload::load_trace_csv(data_dir + "/diurnal_50k.csv", &cfg.trace,
                                &error)) {
    // Leave the trace empty: the arrivals floor check reports the miss.
    std::fprintf(stderr, "diurnal-replay: %s\n", error.c_str());
  }
  return cfg;
}

// Flash crowd: an in-process generated trace — steady 2000 JPS with a 3x
// spike for 1.5s — on a 3-GPU fleet sized for the steady state. The spike
// must be absorbed by admission control without starving resident HP work.
ClusterConfig flash_crowd(const std::string& /*data_dir*/) {
  ClusterConfig cfg = fleet_base(3);
  flash_crowd_trace(&cfg, 6.0, 2000.0, 2.0, 1.5, 3.0);
  return cfg;
}

// Flash-crowd recovery by stealing: the flash-crowd scenario with work
// stealing armed (re-homing off, so recovery is attributable to stealing
// alone). During the spike the overloaded home GPUs trip the fleet backlog
// guard; steal scans move their queued, not-yet-started LP jobs to warm
// peers that can still make the deadlines. run_scenario also runs the
// rebalancing-off counterfactual and exposes the *_gain metrics the checks
// gate on: the off-run misses the committed LP deadline-miss rate, the
// on-run recovers it.
ClusterConfig flash_crowd_recovery(const std::string& /*data_dir*/) {
  ClusterConfig cfg = fleet_base(3);
  // A 4x spike for 2 s, harsher than flash-crowd: the off-run must hurt.
  flash_crowd_trace(&cfg, 6.0, 2000.0, 2.0, 2.0, 4.0);
  cfg.rebalance.enabled = true;
  cfg.rebalance.rehome = false;
  cfg.rebalance.max_steals_per_scan = 8;
  return cfg;
}

// Retry-storm meltdown: the canonical metastable failure, and the reason
// the resilience layer ships a retry budget and circuit breakers next to
// the retry policy. A 4x flash crowd for 1.5s drives the 3-GPU fleet into
// admission-control shedding; every shed is retried with exponential
// backoff. The retried jobs keep their ORIGINAL release times, so the
// deadline-agnostic admission test (Eq. 11/12) happily admits near-doomed
// work that burns GPU time AND occupies the LP backlog slot fresh releases
// needed — the counterfactual (budget + breaker forced off) shows the
// resulting amplification and goodput loss persisting past the pulse; the
// primary run's token bucket caps retries at ~10% of the first-attempt
// rate, so goodput recovers. The breaker is deliberately NOT armed here: a
// global overload pushes every device past any rate threshold, and masking
// healthy devices under global overload only amputates capacity — the
// budget is the medicine for fleet-wide storms, the breaker for sick
// devices (its exit guard in cluster/resilience.cpp enforces exactly that).
ClusterConfig retry_storm(const std::string& /*data_dir*/) {
  ClusterConfig cfg = fleet_base(3);
  flash_crowd_trace(&cfg, 6.0, 2000.0, 2.0, 1.5, 4.0);
  cfg.resilience.enabled = true;
  // An aggressive client: 5 attempts with fast exponential backoff — the
  // policy a front-end team tunes for transient blips, and exactly what
  // melts the fleet down when the blip is a capacity shortfall.
  cfg.resilience.hp = {cluster::RetryPolicy::Backoff::kExponential, 5, 300.0,
                       5000.0};
  cfg.resilience.lp = cfg.resilience.hp;
  cfg.resilience.budget_enabled = true;
  return cfg;
}

// The meltdown counterfactual: identical storm, budget forced off. Naive
// unbudgeted retries — the run the *_gain gates measure against.
ClusterConfig retry_storm_naive(const std::string& data_dir) {
  ClusterConfig cfg = retry_storm(data_dir);
  cfg.resilience.budget_enabled = false;
  return cfg;
}

// Hedging tail rescue: bursty load plus a GPU 0 throttle to 0.4x at
// t=1.0s. The re-profiled admission keeps the straggler from accepting
// doomed work, so the rescuable tail is the one hedging actually targets
// in production: jobs that individually drew a long queueing delay (burst
// arrivals) or a 2.5x service time (straggler survivors). With hedging on,
// a second copy launches on a model-hot peer once the primary outlives a
// healthy peer's recent p95 LP response (the fleet-wide floor, not the
// straggler's own inflated view), and first-finish-wins settles the pair.
// Retries are off so every effect is attributable to hedging alone; the
// counterfactual (hedging off) pins the overhead gates. Duplicate work is
// bounded twice over: healthy-device jobs rarely outlive a healthy p95,
// and every hedge launch spends a retry-budget token.
ClusterConfig hedging_tail_rescue(const std::string& /*data_dir*/) {
  ClusterConfig cfg = fleet_base(4);
  cfg.arrivals = ArrivalMode::kBursty;
  cfg.rate_scale = 1.1;
  cfg.duration_s = 5.0;
  FaultSpec f;
  f.kind = FaultSpec::Kind::kSlow;
  f.gpu = 0;
  f.at_s = 1.0;
  f.factor = 0.4;
  cfg.faults.push_back(f);
  cfg.resilience.enabled = true;
  cfg.resilience.hp.backoff = cluster::RetryPolicy::Backoff::kNone;
  cfg.resilience.lp.backoff = cluster::RetryPolicy::Backoff::kNone;
  // The trigger percentile (cluster::kHedgePercentile, p95) is read off the
  // FLEET's fastest device (see ResiliencePolicy::arm_hedge), so it means
  // "slower than a healthy peer's p95" — which nearly every straggler-stuck
  // job is, and almost no healthy-device job is. That both fires the hedge
  // while the primary is still queued (revocable) and keeps the
  // duplicate-work fraction small.
  cfg.resilience.hedge = true;
  return cfg;
}

ClusterConfig hedging_tail_rescue_off(const std::string& data_dir) {
  ClusterConfig cfg = hedging_tail_rescue(data_dir);
  cfg.resilience.hedge = false;
  return cfg;
}

// Flash crowd at fleet scale: the flash-crowd shape scaled to 64 GPUs and
// ~43k JPS, with the self-healing stack and the resilience layer's
// defaults armed (stealing, re-homing, budgeted retries; breakers stay off,
// ResilienceConfig::breaker's default). The row exists to keep the
// engine, the rebalancer's O(fleet) scans, and the conservation invariant
// honest at an order of magnitude more devices than the rest of the matrix.
ClusterConfig flash_crowd_64(const std::string& /*data_dir*/) {
  ClusterConfig cfg = fleet_base(64);
  flash_crowd_trace(&cfg, 2.5, 2000.0 * 64.0 / 3.0, 1.0, 0.8, 2.5);
  cfg.rebalance.enabled = true;
  cfg.rebalance.max_steals_per_scan = 8;
  cfg.resilience.enabled = true;
  return cfg;
}

// Drain recovery by re-homing: GPU 0 of 3 drains with NO replacement. The
// fault-instant rehoming moves every task homed there onto the single
// least-loaded survivor — correct at that instant, but it leaves one GPU
// carrying two GPUs' worth of homes (HP jobs are pinned to their home, so
// spillover cannot help them). The periodic demand-aware rounds then
// redistribute homes across both survivors. Stealing is off so recovery is
// attributable to re-homing alone; the counterfactual run shows the
// off-run's pile-up.
ClusterConfig drain_recovery(const std::string& /*data_dir*/) {
  ClusterConfig cfg = fleet_base(3);
  // Poisson at 0.7x nominal: the two survivors can host the whole demand
  // once homes are balanced — so the pile-up, not raw capacity, is what the
  // off-run suffers from and re-homing can actually cure.
  cfg.arrivals = ArrivalMode::kPoisson;
  cfg.rate_scale = 0.7;
  cfg.duration_s = 5.0;
  FaultSpec drain;
  drain.kind = FaultSpec::Kind::kDrain;
  drain.gpu = 0;
  drain.at_s = 1.0;
  cfg.faults.push_back(drain);
  cfg.rebalance.enabled = true;
  cfg.rebalance.steal = false;
  cfg.rebalance.max_moves_per_round = 4;
  cfg.rebalance.hysteresis = 1.4;
  cfg.rebalance.min_dwell_rounds = 6;
  return cfg;
}

// Counterfactuals for the rebalancing recovery scenarios: the identical
// run with rebalancing forced off.
ClusterConfig flash_crowd_recovery_off(const std::string& data_dir) {
  ClusterConfig cfg = flash_crowd_recovery(data_dir);
  cfg.rebalance = cluster::RebalanceConfig{};
  return cfg;
}

ClusterConfig drain_recovery_off(const std::string& data_dir) {
  ClusterConfig cfg = drain_recovery(data_dir);
  cfg.rebalance = cluster::RebalanceConfig{};
  return cfg;
}

ThresholdCheck le(const char* metric, double limit) {
  ThresholdCheck c;
  c.metric = metric;
  c.op = '<';
  c.limit = limit;
  return c;
}

ThresholdCheck ge(const char* metric, double limit) {
  ThresholdCheck c;
  c.metric = metric;
  c.op = '>';
  c.limit = limit;
  return c;
}

struct ScenarioDef {
  const char* name;
  const char* description;
  ClusterConfig (*config)(const std::string& data_dir);
  std::vector<ThresholdCheck> checks;
  /// Non-null: also run this config — the scenario with its recovery
  /// mechanism forced off, everything else identical — and expose base_*
  /// and *_gain metrics (recovery scenarios gate on the gains).
  ClusterConfig (*counterfactual)(const std::string& data_dir) = nullptr;
};

// The committed behaviour envelope. Limits are calibrated from the seeded
// deterministic runs with headroom (docs/SCENARIOS.md tabulates them with
// the measured values); tightening one is a deliberate contract change.
const std::vector<ScenarioDef>& scenario_defs() {
  static const std::vector<ScenarioDef> defs = {
      {"overload-storm",
       "bursty arrivals at 1.6x nominal on 4 healthy GPUs",
       &overload_storm,
       {le("hp_dmr", 0.03), le("lp_dmr", 0.25), ge("total_jps", 2400.0),
        le("starved_frac", 0.02), le("worst_stall_us", 100e3),
        le("jobs_lost", 0.0)}},
      {"fail-stop-mid-burst",
       "GPU 1 fail-stops at t=1.5s under 1.2x bursty load",
       &fail_stop_mid_burst,
       {ge("jobs_lost", 1.0), le("jobs_lost", 64.0), le("hp_dmr", 0.08),
        ge("total_jps", 2000.0), le("starved_frac", 0.02),
        le("worst_stall_us", 100e3)}},
      {"straggler",
       "GPU 0 throttles to 0.5x at t=1.0s under periodic load",
       &straggler,
       {le("hp_dmr", 0.001), ge("total_jps", 2200.0),
        le("starved_frac", 0.02), le("worst_stall_us", 100e3),
        le("jobs_lost", 0.0)}},
      {"drain-under-load",
       "GPU 0 drains at t=1.0s; a replacement joins at t=1.2s",
       &drain_under_load,
       {le("jobs_lost", 0.0), le("hp_dmr", 0.10), ge("total_jps", 1800.0),
        ge("added_gpu_completed", 1.0), le("starved_frac", 0.02),
        le("worst_stall_us", 100e3)}},
      {"diurnal-replay",
       "bundled 50k-row diurnal+flash trace on 3 GPUs",
       &diurnal_replay,
       {ge("arrivals", 45000.0), le("unmatched_rows", 0.0),
        le("hp_dmr", 0.05), le("starved_frac", 0.02),
        le("worst_stall_us", 100e3), le("jobs_lost", 0.0)}},
      {"flash-crowd",
       "3x arrival spike for 1.5s over steady 2000 JPS on 3 GPUs",
       &flash_crowd,
       {ge("arrivals", 10000.0), le("hp_dmr", 0.10),
        le("starved_frac", 0.02), le("worst_stall_us", 100e3),
        le("jobs_lost", 0.0)}},
      {"flash-crowd-recovery-by-stealing",
       "4x spike for 2s on 3 GPUs; stealing + coalescing vs rebalancing-off",
       &flash_crowd_recovery,
       {ge("steals", 1.0), ge("hp_dmr_gain", 0.001), ge("drops_cut", 25.0),
        ge("base_hp_dmr", 0.094), le("hp_dmr", 0.093), ge("coalesced", 1.0),
        ge("transferred_mb_cut", 1.0), le("lp_dmr", 0.25),
        le("starved_frac", 0.02), le("worst_stall_us", 100e3),
        le("jobs_lost", 0.0)},
       &flash_crowd_recovery_off},
      {"drain-recovery-by-rehoming",
       "GPU 0 of 3 drains, no replacement; demand-aware re-homing "
       "redistributes the pile-up",
       &drain_recovery,
       {ge("rehomes", 1.0), ge("hp_dmr_gain", 0.02),
        ge("base_hp_dmr", 0.05), le("hp_dmr", 0.03), le("lp_dmr", 0.08),
        le("starved_frac", 0.02), le("worst_stall_us", 100e3),
        le("jobs_lost", 0.0)},
       &drain_recovery_off},
      {"retry-storm-meltdown",
       "4x spike with aggressive client retries; retry budget vs naive",
       &retry_storm,
       {ge("retries", 500.0), ge("base_retry_amplification", 1.0),
        le("retry_amplification", 0.12), ge("hp_dmr_gain", 0.02),
        ge("drops_cut", 10000.0), ge("goodput_gain", 0.0),
        ge("base_hp_dmr", 0.10), le("hp_dmr", 0.10),
        le("starved_frac", 0.02), le("worst_stall_us", 100e3),
        le("jobs_lost", 0.0)},
       &retry_storm_naive},
      {"hedging-tail-rescue",
       "Bursty load + GPU 0 throttled to 0.4x; LP hedging on peers vs off",
       &hedging_tail_rescue,
       {ge("hedges", 50.0), ge("hedge_wins", 10.0), ge("hedge_rescued", 5.0),
        le("hedge_frac", 0.05), ge("lp_dmr_gain", -0.03), le("lp_dmr", 0.12),
        le("hp_dmr", 0.03), le("starved_frac", 0.02),
        le("worst_stall_us", 100e3), le("jobs_lost", 0.0)},
       &hedging_tail_rescue_off},
      {"flash-crowd-64",
       "2.5x spike over ~43k JPS on 64 GPUs with the full healing stack",
       &flash_crowd_64,
       {ge("arrivals", 80000.0), le("hp_dmr", 0.10),
        le("starved_frac", 0.02), le("worst_stall_us", 100e3),
        le("jobs_lost", 0.0)}},
  };
  return defs;
}

const ScenarioDef* find_scenario(const std::string& name) {
  for (const auto& def : scenario_defs()) {
    if (name == def.name) return &def;
  }
  return nullptr;
}

/// The behaviour digest: every counter of the run (counters_of), then the
/// stage-trace report's, written out.
std::string fingerprint_of(const ClusterResult& r,
                           const metrics::TraceReport& rep) {
  std::vector<NamedCounter> c = counters_of(r);
  c.push_back({"stages", static_cast<double>(rep.stages)});
  c.push_back({"context_switches", static_cast<double>(rep.context_switches)});
  c.push_back({"gpu_migrations", static_cast<double>(rep.gpu_migrations)});
  c.push_back({"starved_stages", static_cast<double>(rep.starved_stages)});
  c.push_back({"worst_stall_us", rep.worst_stall_us});
  return format_counters(c);
}

/// FNV-1a 64-bit over a string — the telemetry determinism digest.
std::uint64_t fnv1a(const std::string& s, std::uint64_t h = 0xcbf29ce484222325ull) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace

std::vector<std::string> scenario_names() {
  std::vector<std::string> names;
  names.reserve(scenario_defs().size());
  for (const auto& def : scenario_defs()) names.emplace_back(def.name);
  return names;
}

ScenarioResult run_scenario(const std::string& name,
                            const std::string& data_dir,
                            bool telemetry,
                            int sim_threads) {
  ScenarioResult out;
  out.name = name;
  const ScenarioDef* def = find_scenario(name);
  if (def == nullptr) {
    out.description = "unknown scenario";
    return out;
  }
  out.description = def->description;

  ClusterConfig cfg = def->config(data_dir);
  if (telemetry) {
    cfg.telemetry.enabled = true;
    cfg.telemetry.sample_period_s = kScenarioSamplePeriodS;
  }
  cfg.sim_threads = sim_threads;
  out.cluster = run_cluster(cfg);
  if (!out.cluster.error.empty()) return out;  // refused: pass stays false
  out.report = metrics::trace_report(out.cluster.stage_trace);
  out.fingerprint = fingerprint_of(out.cluster, out.report);

  if (telemetry) {
    // Unified Perfetto trace: stage spans on per-GPU lanes + counter tracks
    // + event-log instants, built before the stage trace is folded away.
    out.perfetto_json = metrics::to_chrome_trace_json(
        out.cluster.stage_trace, &out.cluster.timeseries, &out.cluster.events);

    // Telemetry JSON. The digest covers the deterministic sections only
    // (series, events, fingerprint) — the profile carries host wall-clock.
    std::string series_json;
    out.cluster.timeseries.append_json(&series_json);
    std::string events_json;
    out.cluster.events.append_json_array(&events_json);
    out.telemetry_digest =
        fnv1a(out.fingerprint, fnv1a(events_json, fnv1a(series_json)));

    std::string& t = out.telemetry_json;
    char buf[96];
    t += "{\n  \"scenario\": \"";
    t += name;  // scenario names are code-chosen identifiers
    std::snprintf(buf, sizeof buf, "\",\n  \"sample_period_us\": %.17g,\n",
                  kScenarioSamplePeriodS * 1e6);
    t += buf;
    std::snprintf(buf, sizeof buf, "  \"digest\": \"%016llx\",\n",
                  static_cast<unsigned long long>(out.telemetry_digest));
    t += buf;
    t += "  \"fingerprint\": \"";
    t += out.fingerprint;
    t += "\",\n  \"timeseries\": ";
    t += series_json;
    t += ",\n  \"events\": ";
    t += events_json;
    t += ",\n  \"profile\": ";
    out.cluster.profile.append_json(&t);
    t += "\n}\n";
  }

  out.cluster.stage_trace.clear();
  out.cluster.stage_trace.shrink_to_fit();

  const ClusterResult& r = out.cluster;
  const metrics::TraceReport& rep = out.report;
  for (NamedCounter& c : counters_of(r)) {
    out.metrics.emplace(std::move(c.name), c.value);
  }
  out.metrics.emplace("hp_dmr", r.hp.dmr());
  out.metrics.emplace("lp_dmr", r.lp.dmr());
  out.metrics.emplace("worst_stall_us", rep.worst_stall_us);
  out.metrics.emplace("starved_frac",
                      rep.stages == 0
                          ? 0.0
                          : static_cast<double>(rep.starved_stages) /
                                static_cast<double>(rep.stages));
  // Derived resilience metrics. Goodput counts only on-time completions;
  // amplification is the retry traffic as a fraction of first attempts;
  // hedge_frac bounds the duplicate-work overhead.
  const double measure_s = cfg.duration_s - cfg.warmup_s;
  auto goodput_of = [measure_s](const ClusterResult& c) {
    const std::uint64_t done = c.hp.completed + c.lp.completed;
    const std::uint64_t missed = c.hp.missed + c.lp.missed;
    return measure_s <= 0.0
               ? 0.0
               : static_cast<double>(done - std::min(done, missed)) /
                     measure_s;
  };
  auto amplification_of = [](const ClusterResult& c) {
    return c.first_attempts == 0
               ? 0.0
               : static_cast<double>(c.retries) /
                     static_cast<double>(c.first_attempts);
  };
  out.metrics.emplace("goodput_jps", goodput_of(r));
  out.metrics.emplace("retry_amplification", amplification_of(r));
  out.metrics.emplace("hedge_frac",
                      r.first_attempts == 0
                          ? 0.0
                          : static_cast<double>(r.hedges) /
                                static_cast<double>(r.first_attempts));
  out.metrics.emplace("lp_p99_ms", r.lp.response_ms.percentile(99.0));
  // Jobs completed by devices that joined mid-run (kAdd faults): the
  // "scale-up serves live" check.
  const auto initial_gpus = static_cast<std::size_t>(cfg.device_count());
  std::uint64_t added_completed = 0;
  for (std::size_t g = initial_gpus; g < r.per_gpu.size(); ++g) {
    added_completed += r.per_gpu[g].completed;
  }
  out.metrics.emplace("added_gpu_completed",
                      static_cast<double>(added_completed));

  if (def->counterfactual != nullptr) {
    // The same scenario with its recovery mechanism forced off — everything
    // else, including the seed and fault schedule, identical. Deterministic
    // like the primary run, so the gains are stable numbers, but kept out
    // of the fingerprint: the behaviour digest describes the primary run
    // alone.
    ClusterConfig base_cfg = def->counterfactual(data_dir);
    base_cfg.telemetry.enabled = false;
    base_cfg.sim_threads = sim_threads;
    const ClusterResult base = run_cluster(base_cfg);
    for (NamedCounter& c : counters_of(base)) {
      out.metrics.emplace("base_" + c.name, c.value);
    }
    out.metrics.emplace("base_hp_dmr", base.hp.dmr());
    out.metrics.emplace("base_lp_dmr", base.lp.dmr());
    out.metrics.emplace("base_goodput_jps", goodput_of(base));
    out.metrics.emplace("base_retry_amplification", amplification_of(base));
    out.metrics.emplace("base_lp_p99_ms",
                        base.lp.response_ms.percentile(99.0));
    out.metrics.emplace("hp_dmr_gain", base.hp.dmr() - r.hp.dmr());
    out.metrics.emplace("lp_dmr_gain", base.lp.dmr() - r.lp.dmr());
    out.metrics.emplace("drops_cut",
                        static_cast<double>(base.drops) -
                            static_cast<double>(r.drops));
    out.metrics.emplace("transferred_mb_cut",
                        base.transferred_mb - r.transferred_mb);
    out.metrics.emplace("goodput_gain", goodput_of(r) - goodput_of(base));
    out.metrics.emplace("lp_p99_cut_ms", base.lp.response_ms.percentile(99.0) -
                                             r.lp.response_ms.percentile(99.0));
    // NOTE: hedge_client_p99_ms is deliberately NOT differenced against the
    // base run's population p99 — hedged pairs are a biased-slow subset
    // (they are hedged precisely because they outlived the fleet's p-q), so
    // a subset-vs-population cut would be structurally negative even when
    // every rescue succeeds. The honest rescue count is hedge_rescued.
  }

  out.checks = def->checks;
  // Every scenario — old and new — gates on job conservation; a counter
  // that fails to balance is a fleet bug no matter the workload. The
  // counterfactual run must conserve too, when there is one.
  out.checks.push_back(ge("conservation", 1.0));
  if (def->counterfactual != nullptr) {
    out.checks.push_back(ge("base_conservation", 1.0));
  }
  out.pass = true;
  for (auto& check : out.checks) {
    // A check on a metric the run never emitted (a misspelled name) reads
    // NaN, which fails against any limit.
    const auto it = out.metrics.find(check.metric);
    check.value = it == out.metrics.end()
                      ? std::numeric_limits<double>::quiet_NaN()
                      : it->second;
    check.pass = check.op == '<' ? check.value <= check.limit
                                 : check.value >= check.limit;
    out.pass = out.pass && check.pass;
  }
  return out;
}

}  // namespace daris::exp
