#include "experiments/cluster_runner.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "daris/offline.h"
#include "sim/sharded.h"

namespace daris::exp {

const char* arrival_mode_name(ArrivalMode m) {
  switch (m) {
    case ArrivalMode::kPeriodic:
      return "periodic";
    case ArrivalMode::kPoisson:
      return "poisson";
    case ArrivalMode::kBursty:
      return "bursty";
    case ArrivalMode::kTrace:
      return "trace";
  }
  return "?";
}

namespace {

/// Home-GPU assignment. The home carries the task's static HP reservation
/// (Fleet::add_task), pins its model hot, and is the affinity target of the
/// model-affinity and hybrid policies. `work_per_job` (SM-us per release,
/// one entry per task) converts arrival rates into device load: a UNet job
/// costs several ResNet18 jobs, so balancing raw JPS would overload the
/// heavy-model hosts.
std::vector<int> assign_homes(const ClusterConfig& config,
                              const cluster::Fleet& fleet,
                              const std::vector<double>& work_per_job) {
  const auto& tasks = config.taskset.tasks;
  std::vector<int> homes(tasks.size(), 0);
  const int n = fleet.size();

  if (config.routing == cluster::RoutingPolicy::kModelAffinity) {
    // Pure affinity: one device per model kind. Minimal weight footprint,
    // but a kind's whole demand lands on one GPU — the skewed-demand
    // collapse documented in docs/CLUSTER.md.
    std::map<dnn::ModelKind, int> kind_home;
    int next_home = 0;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      auto [it, fresh] = kind_home.try_emplace(tasks[i].model, next_home);
      if (fresh) next_home = (next_home + 1) % n;
      homes[i] = it->second;
    }
    return homes;
  }

  if (config.routing == cluster::RoutingPolicy::kHybrid) {
    // Affinity-aware load balancing. Each kind gets the fewest hosts its
    // load share needs (weights hot on few GPUs), sized in SM-us of work
    // per second rather than raw JPS — a UNet job costs ~4 ResNet18 jobs —
    // and its tasks are least-fill balanced across those hosts, so the HP
    // tasks (listed first per kind) spread instead of piling onto the first
    // host. Fair shares are proportional to compute scale, so a flagship
    // hosts more load than a half-size card. The algorithm itself lives in
    // cluster::pack_homes, which the rebalancer replays against *measured*
    // demand mid-run; here nominal rates (1/period) feed it.
    std::vector<double> task_load(tasks.size(), 0.0);
    std::vector<int> task_kind(tasks.size(), 0);
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      task_load[i] = work_per_job[i] * 1.0e9 /
                     static_cast<double>(
                         std::max<common::Duration>(tasks[i].period, 1));
      task_kind[i] = static_cast<int>(tasks[i].model);
    }
    std::vector<double> device_scale(static_cast<std::size_t>(n), 0.0);
    for (int g = 0; g < n; ++g) {
      device_scale[static_cast<std::size_t>(g)] = fleet.compute_scale(g);
    }
    return cluster::pack_homes(task_load, task_kind, device_scale);
  }

  // Every other policy stripes tasks across the fleet.
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    homes[i] = static_cast<int>(i) % n;
  }
  return homes;
}

const char* fault_kind_name(FaultSpec::Kind k) {
  switch (k) {
    case FaultSpec::Kind::kFail:
      return "fail";
    case FaultSpec::Kind::kSlow:
      return "slow";
    case FaultSpec::Kind::kDrain:
      return "drain";
    case FaultSpec::Kind::kAdd:
      return "add";
  }
  return "?";
}

/// The instant a validated fault fires: its time, clamped to the run start
/// as Simulator::schedule_at clamps it.
common::Time fault_time(const FaultSpec& f) {
  return f.at_s <= 0.0 ? 0 : common::from_sec(f.at_s);
}

}  // namespace

// Every metrics::FleetCounters field is 8 bytes and has one line below.
static_assert(sizeof(metrics::FleetCounters) == 24 * 8,
              "a new metrics::FleetCounters field needs its line in "
              "counters_of (its report name): add it, then count it here");

std::vector<NamedCounter> counters_of(const ClusterResult& r) {
  std::vector<NamedCounter> out;
  out.reserve(42 + 15 * r.per_gpu.size());
  auto add = [&out](std::string name, double value) {
    out.push_back({std::move(name), value});
  };
  add("total_jps", r.total_jps);
  for (const auto& [cls, s] :
       {std::pair{"hp_", &r.hp}, std::pair{"lp_", &r.lp}}) {
    const std::string p = cls;
    add(p + "released", s->released);
    add(p + "accepted", s->accepted);
    add(p + "rejected", s->rejected);
    add(p + "completed", s->completed);
    add(p + "missed", s->missed);
  }
  add("cross_gpu_migrations", r.cross_gpu_migrations);
  add("drops", r.drops);
  add("infeasible", r.infeasible_rejects);
  add("transfers", r.transfers);
  add("transferred_mb", r.transferred_mb);
  add("intra_gpu_migrations", r.intra_gpu_migrations);
  add("arrivals", r.arrivals);
  add("steals", r.steals);
  add("steal_scans", r.steal_scans);
  add("rehomes", r.rehomes);
  add("rehome_rounds", r.rehome_rounds);
  add("coalesced", r.coalesced_transfers);
  add("coalesced_mb_saved", r.coalesced_mb_saved);
  add("transfer_cancels", r.transfer_cancels);
  add("jobs_lost", r.jobs_lost);
  add("unmatched_rows", r.unmatched_rows);
  add("first_attempts", r.first_attempts);
  add("retries", r.retries);
  add("retry_admits", r.retry_admits);
  add("retry_abandoned_budget", r.retry_abandoned_budget);
  add("retry_abandoned_expired", r.retry_abandoned_expired);
  add("retry_abandoned_attempts", r.retry_abandoned_attempts);
  add("hedges", r.hedges);
  add("hedge_wins", r.hedge_wins);
  add("hedge_cancels", r.hedge_cancels);
  add("hedge_waste", r.hedge_waste);
  add("hedge_rescued", r.hedge_rescued_misses);
  add("hedge_client_p99_ms", r.hedge_client_p99_ms);
  add("breaker_opens", r.breaker_opens);
  add("breaker_closes", r.breaker_closes);
  add("conservation", r.conservation_ok ? 1.0 : 0.0);
  for (std::size_t g = 0; g < r.per_gpu.size(); ++g) {
    const GpuSummary& s = r.per_gpu[g];
    const std::string p = "gpu" + std::to_string(g) + "_";
    add(p + "utilization", s.utilization);
    add(p + "completed", s.completed);
    add(p + "intra_migrations", s.intra_migrations);
    add(p + "routed", s.routing.routed);
    add(p + "home_admits", s.routing.home_admits);
    add(p + "migrated_in", s.routing.migrated_in);
    add(p + "migrated_out", s.routing.migrated_out);
    add(p + "dropped", s.routing.dropped);
    add(p + "infeasible", s.routing.infeasible);
    add(p + "transfers_in", s.routing.transfers_in);
    add(p + "transferred_mb", s.routing.transferred_mb);
    add(p + "steals_in", s.routing.steals_in);
    add(p + "steals_out", s.routing.steals_out);
    add(p + "coalesced", s.routing.coalesced);
    add(p + "coalesced_mb", s.routing.coalesced_mb);
  }
  return out;
}

std::string format_counters(const std::vector<NamedCounter>& counters) {
  std::string out;
  char value[32];
  for (const NamedCounter& c : counters) {
    std::snprintf(value, sizeof value, "=%.17g;", c.value);
    out += c.name;
    out += value;
  }
  return out;
}

std::string validate_faults(const ClusterConfig& config) {
  const std::vector<FaultSpec>& faults = config.faults;
  auto label = [&faults](std::size_t i) {
    return "fault " + std::to_string(i) + " (" +
           fault_kind_name(faults[i].kind) + ")";
  };
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const FaultSpec& f = faults[i];
    if (!std::isfinite(f.at_s) || f.at_s > 1e9) {
      return label(i) + ": time " + std::to_string(f.at_s) +
             " s is not a finite time up to 1e9 s";
    }
    if (f.kind == FaultSpec::Kind::kSlow &&
        !(std::isfinite(f.factor) && f.factor > 0.0)) {
      return label(i) + ": factor " + std::to_string(f.factor) +
             " is not finite and > 0";
    }
    if (f.kind == FaultSpec::Kind::kAdd &&
        !(std::isfinite(f.node.compute_scale) && f.node.compute_scale > 0.0)) {
      return label(i) + ": compute scale " +
             std::to_string(f.node.compute_scale) + " is not finite and > 0";
    }
  }
  const int initial = config.device_count();
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (faults[i].kind == FaultSpec::Kind::kAdd) continue;
    const common::Time when = fault_time(faults[i]);
    int devices = initial;
    for (std::size_t j = 0; j < faults.size(); ++j) {
      if (faults[j].kind != FaultSpec::Kind::kAdd) continue;
      const common::Time added = fault_time(faults[j]);
      if (added < when || (added == when && j < i)) ++devices;
    }
    if (faults[i].gpu < 0 || faults[i].gpu >= devices) {
      return label(i) + ": gpu " + std::to_string(faults[i].gpu) +
             " does not exist when it fires (" + std::to_string(devices) +
             " devices then)";
    }
  }
  return {};
}

ClusterResult run_cluster(
    const ClusterConfig& config,
    const std::function<void(const cluster::Fleet&)>& inspect) {
  if (std::string error = validate_faults(config); !error.empty()) {
    ClusterResult refused;
    refused.error = std::move(error);
    return refused;
  }
  const auto wall_start = std::chrono::steady_clock::now();
  const int devices = config.device_count();
  sim::ShardedSimulator sharded_sim(devices, config.sim_threads);
  sim::Simulator& sim = sharded_sim.control();

  metrics::Collector collector;
  collector.set_measure_start(common::from_sec(config.warmup_s));
  collector.enable_stage_trace(config.stage_trace);
  // Device-shard events report finishes/stages from worker threads; lanes
  // give each device a private append target (merged after the run) and
  // one canonical trace order at every lane count.
  collector.enable_lanes(devices);
  if (config.telemetry.enabled) {
    collector.enable_event_log(config.telemetry.event_capacity);
  }

  rt::SchedulerConfig sched_cfg = config.sched;
  sched_cfg.canonicalize();

  cluster::Fleet fleet(sharded_sim, config, &collector);

  // Pre-size the control pool from the task-set cardinality (one pending
  // release timer per task) and each device pool from its per-stream
  // launch/completion and per-job sync events; the slack absorbs open-loop
  // bursts. Sizing is a hint — a pool still grows when a burst outruns it.
  sharded_sim.reserve(
      config.taskset.tasks.size() * 3 + 64,
      static_cast<std::size_t>(sched_cfg.parallelism()) * 2 + 64);

  // One compiled model per distinct kind, shared by every GPU and
  // calibrated against the fleet's base spec; heterogeneous devices run the
  // same kernels at their own scaled rate.
  const CompiledModels models =
      compile_models(config.taskset, sched_cfg.batch, config.gpu);

  std::vector<double> work_per_job(config.taskset.tasks.size(), 0.0);
  for (std::size_t i = 0; i < config.taskset.tasks.size(); ++i) {
    work_per_job[i] = models.of(config.taskset.tasks[i].model)->total_work();
  }
  const std::vector<int> homes =
      assign_homes(config, fleet, work_per_job);
  for (std::size_t i = 0; i < config.taskset.tasks.size(); ++i) {
    const auto& t = config.taskset.tasks[i];
    fleet.add_task(t, models.of(t.model), homes[i]);
  }

  // Offline phase 1: AFET profiling, once per distinct resolved device
  // spec, in device order (a homogeneous fleet profiles once;
  // heterogeneous nodes each measure their own full-load execution times,
  // seeding per-device MRET honestly). The cache stays live for the whole
  // run: kSlow/kAdd fault callbacks re-seed a changed device through the
  // same lookup, so a straggler slowed to a scale some other node already
  // runs at reuses that node's profile verbatim. A deque, so a profile
  // stays put while later specs are added. Each entry also lists every
  // task's vector, so seeding a device looks nothing up per task.
  struct Profile {
    gpusim::GpuSpec spec;
    rt::AfetResult afet;
    std::vector<const std::vector<double>*> of_task;
  };
  std::deque<Profile> afet_cache;
  auto seed_afet = [&](int g) {
    const gpusim::GpuSpec spec = fleet.node(g).resolved();
    auto it = std::find_if(afet_cache.begin(), afet_cache.end(),
                           [&](const Profile& e) { return e.spec == spec; });
    if (it == afet_cache.end()) {
      it = afet_cache.insert(
          afet_cache.end(),
          Profile{spec,
                  rt::profile_afet(spec, sched_cfg, models.distinct,
                                   /*jobs_per_stream=*/16, config.seed),
                  {}});
      for (const auto& t : config.taskset.tasks) {
        it->of_task.push_back(&it->afet.for_model(models.of(t.model)));
      }
    }
    for (std::size_t i = 0; i < it->of_task.size(); ++i) {
      fleet.set_afet(static_cast<int>(i), g, *it->of_task[i]);
    }
  };
  for (int g = 0; g < fleet.size(); ++g) seed_afet(g);

  // Offline phase 2: Algorithm 1 initial context assignment, per GPU.
  const auto wall_alg1_start = std::chrono::steady_clock::now();
  fleet.run_offline_phase();
  const double wall_ms_alg1 = wall_ms_since(wall_alg1_start);
  const double wall_ms_offline = wall_ms_since(wall_start);

  cluster::RouterConfig router_cfg;
  router_cfg.policy = config.routing;
  router_cfg.spill_threshold = config.spill_threshold;
  router_cfg.coalesce =
      config.rebalance.enabled && config.rebalance.coalesce;
  router_cfg.seed = config.seed ^ 0x90C7E6ull;
  cluster::Router router(fleet, router_cfg, &collector);
  // The resilience layer sits between the drivers and the router. Disabled
  // (the default) it forwards every release untouched, so routing through it
  // unconditionally keeps one code path while preserving byte-identical runs.
  cluster::ResiliencePolicy resilience(sim, fleet, router, config.resilience,
                                       &collector);
  workload::ReleaseFn to_router = [&resilience](int id) {
    resilience.release(id);
  };

  const common::Time horizon = common::from_sec(config.duration_s);
  std::unique_ptr<workload::PeriodicDriver> periodic;
  std::unique_ptr<workload::OpenLoopDriver> open_loop;
  std::unique_ptr<workload::TraceDriver> trace_driver;
  if (config.arrivals == ArrivalMode::kPeriodic) {
    periodic = std::make_unique<workload::PeriodicDriver>(
        sim, config.taskset, to_router, horizon);
    periodic->start();
  } else if (config.arrivals == ArrivalMode::kTrace) {
    trace_driver = std::make_unique<workload::TraceDriver>(
        sim, config.taskset, config.trace, to_router, horizon);
    trace_driver->start();
  } else {
    workload::OpenLoopConfig ol;
    ol.process = config.arrivals == ArrivalMode::kPoisson
                     ? workload::ArrivalProcess::kPoisson
                     : workload::ArrivalProcess::kBursty;
    ol.rate_scale = config.rate_scale;
    ol.seed = config.seed ^ 0x09E61ull;
    open_loop = std::make_unique<workload::OpenLoopDriver>(
        sim, config.taskset, to_router, horizon, ol);
    open_loop->start();
  }

  // Fault schedule: each action is an ordinary control-simulator event
  // running a Fleet *_now transition. kSlow and kAdd additionally re-seed
  // the changed device's AFET from the profile cache above (MRET would
  // converge on its own, but only after mispredicted stages — the paper's
  // offline phase exists precisely to spare the admission test that blind
  // spot). The profiling cache and the model map are function-locals that
  // outlive sim.run_until, so capturing them by reference is sound.
  for (const FaultSpec& f : config.faults) {
    const common::Time when = common::from_sec(f.at_s);
    switch (f.kind) {
      case FaultSpec::Kind::kFail:
        sim.schedule_at(when, [&fleet, g = f.gpu] { fleet.fail_gpu_now(g); });
        break;
      case FaultSpec::Kind::kDrain:
        sim.schedule_at(when, [&fleet, g = f.gpu] { fleet.drain_gpu_now(g); });
        break;
      case FaultSpec::Kind::kSlow:
        sim.schedule_at(when, [&fleet, &seed_afet, f] {
          fleet.slow_gpu_now(f.gpu, f.factor);
          seed_afet(f.gpu);
        });
        break;
      case FaultSpec::Kind::kAdd:
        sim.schedule_at(when, [&fleet, &seed_afet, f] {
          const int g = fleet.add_gpu_now(f.node);
          seed_afet(g);
          fleet.run_offline_phase(g);
        });
        break;
    }
  }

  // Self-healing rebalancer, armed only when configured: started after the
  // fault schedule (its periodic demand tick is then the last setup draw of
  // sequence numbers before telemetry) and before the telemetry sampler, so
  // the telemetry-inert contract is preserved — sampler registration stays
  // the final setup step whether or not rebalancing is on.
  cluster::Rebalancer rebalancer(sim, fleet, router, config.rebalance,
                                 &collector);
  rebalancer.start(horizon);

  // Telemetry sampler: tracks registered up front for every device the run
  // can ever hold (initial fleet + scheduled kAdd scale-ups; probes for a
  // device not online yet read 0), so mid-run autoscaling needs no
  // allocation. Registered after the fault schedule so the sampler's single
  // t=0 event is the last sequence draw of setup; probes are const reads
  // and the tick touches only the sampler's rings, so the run's scheduling
  // decisions are identical with telemetry on or off.
  metrics::TimeSeries series;
  if (config.telemetry.enabled) {
    int max_gpus = fleet.size();
    for (const FaultSpec& f : config.faults) {
      if (f.kind == FaultSpec::Kind::kAdd) ++max_gpus;
    }
    auto online = [&fleet](int g) { return g < fleet.size(); };
    for (int g = 0; g < max_gpus; ++g) {
      series.add_track("gpu/util", g, [&fleet, online, g] {
        return online(g) ? fleet.scheduler(g).active_utilization() : 0.0;
      });
      series.add_track("gpu/queue_hp", g, [&fleet, online, g] {
        return online(g) ? static_cast<double>(fleet.scheduler(g).ready_stages(
                               common::Priority::kHigh))
                         : 0.0;
      });
      series.add_track("gpu/queue_lp", g, [&fleet, online, g] {
        return online(g) ? static_cast<double>(fleet.scheduler(g).ready_stages(
                               common::Priority::kLow))
                         : 0.0;
      });
      series.add_track("gpu/hot_models", g, [&fleet, online, g] {
        return online(g) ? static_cast<double>(fleet.hot_model_count(g)) : 0.0;
      });
      series.add_track("gpu/transfers_in", g, [&router, g] {
        return static_cast<double>(router.pending_transfers_to(g));
      });
      series.add_track("gpu/health", g, [&fleet, online, g] {
        return online(g) ? static_cast<double>(
                               static_cast<int>(fleet.health(g)))
                         : static_cast<double>(
                               static_cast<int>(cluster::GpuHealth::kFailed));
      });
    }
    series.add_track("fleet/backlog", -1, [&fleet] {
      double sum = 0.0;
      for (int g = 0; g < fleet.size(); ++g) {
        sum += static_cast<double>(fleet.scheduler(g).jobs_in_flight());
      }
      return sum;
    });
    // Windowed DMR: misses over completions since the previous tick. The
    // window state lives inside the probe closure — sampler-owned, not
    // simulation state. class_counts() folds un-finalized lanes, so every
    // lane count samples the same values.
    auto windowed_dmr = [&collector](common::Priority p) {
      return [&collector, p, last_missed = std::uint64_t{0},
              last_completed = std::uint64_t{0}]() mutable {
        const metrics::Collector::ClassCounts s = collector.class_counts(p);
        const std::uint64_t dm = s.missed - last_missed;
        const std::uint64_t dc = s.completed - last_completed;
        last_missed = s.missed;
        last_completed = s.completed;
        return dc == 0 ? 0.0
                       : static_cast<double>(dm) / static_cast<double>(dc);
      };
    };
    series.add_track("fleet/hp_dmr_w", -1,
                     windowed_dmr(common::Priority::kHigh));
    series.add_track("fleet/lp_dmr_w", -1,
                     windowed_dmr(common::Priority::kLow));
    series.add_track("fleet/jobs_lost", -1, [&fleet] {
      return static_cast<double>(fleet.jobs_lost());
    });
    series.add_track("fleet/retry_tokens", -1, [&resilience] {
      return resilience.budget_tokens();
    });
    series.add_track("fleet/retries", -1, [&resilience] {
      return static_cast<double>(resilience.retries());
    });
    series.start(sim, common::from_sec(config.telemetry.sample_period_s),
                 horizon);
  }

  const auto wall_run_start = std::chrono::steady_clock::now();
  sharded_sim.run_until(horizon);
  const double wall_ms_run = wall_ms_since(wall_run_start);
  series.stop();
  // Fold per-device lanes into the flat summaries/traces.
  collector.finalize_lanes();

  ClusterResult result;
  static_cast<metrics::FleetCounters&>(result) = collector.fleet_counters();
  result.total_jps = collector.throughput_jps(horizon);
  result.hp = collector.summary(common::Priority::kHigh);
  result.lp = collector.summary(common::Priority::kLow);
  result.intra_gpu_migrations = fleet.intra_gpu_migrations();
  result.arrivals = open_loop      ? open_loop->arrivals()
                    : trace_driver ? trace_driver->arrivals()
                                   : 0;
  result.rebalancing = config.rebalance.enabled;
  result.resilience = config.resilience.enabled;
  result.unmatched_rows = trace_driver ? trace_driver->unmatched() : 0;
  result.hedge_client_p99_ms = resilience.hedge_client_percentile_ms(99.0);
  // Job conservation, checked after EVERY run — faults, rebalancing, and
  // resilience all conserve jobs, so a violation is a fleet bug regardless
  // of configuration.
  {
    cluster::Fleet::ConservationInput cons;
    for (std::size_t c = 0; c < 2; ++c) {
      const auto p = static_cast<common::Priority>(c);
      cons.released[c] = router.released_of(p);
      cons.shed[c] = router.shed_of(p);
      cons.pending[c] = router.pending_of(p);
    }
    cons.steals = result.steals;
    const cluster::Fleet::ConservationReport rep =
        fleet.check_conservation(cons);
    result.conservation_ok = rep.ok;
    result.conservation_detail = rep.detail;
  }
  result.per_gpu.resize(static_cast<std::size_t>(fleet.size()));
  for (int g = 0; g < fleet.size(); ++g) {
    auto& s = result.per_gpu[static_cast<std::size_t>(g)];
    s.utilization = fleet.gpu(g).utilization(horizon);
    s.completed = fleet.jobs_completed(g);
    s.intra_migrations = fleet.scheduler(g).migrations();
    s.routing = collector.routing(g);
  }
  result.stage_trace = collector.stage_trace();
  if (inspect) inspect(fleet);

  if (config.telemetry.enabled) {
    result.timeseries = std::move(series);
    if (collector.event_log() != nullptr) {
      result.events = std::move(*collector.event_log());
    }
  }

  std::vector<const gpusim::Gpu*> gpus;
  gpus.reserve(static_cast<std::size_t>(fleet.size()));
  for (int g = 0; g < fleet.size(); ++g) gpus.push_back(&fleet.gpu(g));
  static_cast<sim::ShardedSimulator::Stats&>(result.profile) =
      sharded_sim.stats();
  add_solver_stats(gpus, &result.profile);
  result.profile.task_records = fleet.task_records();
  result.profile.wall_ms_offline = wall_ms_offline;
  result.profile.wall_ms_alg1 = wall_ms_alg1;
  result.profile.wall_ms_run = wall_ms_run;
  result.profile.wall_ms_total = wall_ms_since(wall_start);
  return result;
}

}  // namespace daris::exp
