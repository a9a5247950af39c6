#include "traced.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>

#include "cluster/fleet.h"
#include "cluster/rebalancer.h"
#include "cluster/resilience.h"
#include "cluster/router.h"
#include "daris/offline.h"
#include "daris/scheduler.h"
#include "dnn/zoo.h"
#include "gpusim/gpu.h"
#include "metrics/timeseries.h"
#include "sim/sharded.h"
#include "sim/simulator.h"
#include "workload/driver.h"
#include "workload/trace.h"

namespace perfbench {

namespace ex = daris::exp;
namespace cl = daris::cluster;
namespace dnn = daris::dnn;
namespace metrics = daris::metrics;
namespace rt = daris::rt;
namespace wl = daris::workload;
using daris::common::Priority;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Adds the duration of the enclosing scope to *acc.
class Span {
 public:
  explicit Span(double* acc) : acc_(acc), t0_(Clock::now()) {}
  ~Span() { *acc_ += seconds_since(t0_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  double* acc_;
  Clock::time_point t0_;
};

/// Times one ReleaseFn sink call into the spans.
template <typename F>
void timed_sink(LayerSpans* spans, F&& call) {
  const auto t0 = Clock::now();
  call();
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - t0)
                      .count();
  spans->sink_s += static_cast<double>(ns) * 1e-9;
  spans->sink_ns.push_back(static_cast<std::uint32_t>(
      std::min<long long>(ns, 0xFFFFFFFFll)));
  ++spans->sink_calls;
}

using ModelMap = std::map<dnn::ModelKind, std::unique_ptr<dnn::CompiledModel>>;

ModelMap compile_models(const wl::TaskSetSpec& taskset, int batch,
                        const daris::gpusim::GpuSpec& gpu,
                        LayerSpans* spans) {
  Span span(&spans->compile_s);
  ModelMap models;
  for (const auto& t : taskset.tasks) {
    if (!models.count(t.model)) {
      models.emplace(t.model, std::make_unique<dnn::CompiledModel>(
                                  dnn::compiled_model(t.model, batch, gpu)));
    }
  }
  return models;
}

rt::AfetResult profile(const daris::gpusim::GpuSpec& spec,
                       const rt::SchedulerConfig& sched,
                       const ModelMap& models, std::uint64_t seed,
                       LayerSpans* spans) {
  std::vector<const dnn::CompiledModel*> distinct;
  for (const auto& [kind, m] : models) distinct.push_back(m.get());
  Span span(&spans->afet_s);
  return rt::profile_afet(spec, sched, distinct, /*jobs_per_stream=*/16,
                          seed);
}

[[noreturn]] void unsupported(const char* what) {
  std::fprintf(stderr, "perfbench: traced wiring does not support %s\n",
               what);
  std::abort();
}

/// The locals of run_cluster, declared in its order so they are destroyed
/// in its order.
struct ClusterStack {
  std::unique_ptr<daris::sim::ShardedSimulator> sim;
  metrics::Collector collector;
  std::unique_ptr<cl::Fleet> fleet;
  ModelMap models;
  std::unique_ptr<cl::Router> router;
  std::unique_ptr<cl::ResiliencePolicy> resilience;
  std::unique_ptr<wl::OpenLoopDriver> open_loop;
  std::unique_ptr<wl::TraceDriver> trace_driver;
  std::unique_ptr<cl::Rebalancer> rebalancer;
  metrics::TimeSeries series;
};

/// run_cluster's home assignment for the policies the wiring supports.
std::vector<int> assign_homes(const ex::ClusterConfig& config,
                              const ClusterStack& s) {
  const auto& tasks = config.taskset.tasks;
  const int n = s.fleet->size();
  std::vector<int> homes(tasks.size(), 0);
  if (config.routing == cl::RoutingPolicy::kModelAffinity) {
    unsupported("model-affinity routing");
  }
  if (config.routing != cl::RoutingPolicy::kHybrid) {
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      homes[i] = static_cast<int>(i) % n;
    }
    return homes;
  }
  std::vector<double> task_load(tasks.size(), 0.0);
  std::vector<int> task_kind(tasks.size(), 0);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    task_load[i] = s.models.at(tasks[i].model)->total_work() * 1.0e9 /
                   static_cast<double>(std::max<daris::common::Duration>(
                       tasks[i].period, 1));
    task_kind[i] = static_cast<int>(tasks[i].model);
  }
  std::vector<double> scale(static_cast<std::size_t>(n), 0.0);
  for (int g = 0; g < n; ++g) {
    scale[static_cast<std::size_t>(g)] = s.fleet->compute_scale(g);
  }
  return cl::pack_homes(task_load, task_kind, scale);
}

/// run_cluster's telemetry tracks (fault-free fleet: no late devices).
void add_telemetry_tracks(const ex::ClusterConfig& config, ClusterStack& s) {
  cl::Fleet& fleet = *s.fleet;
  cl::Router& router = *s.router;
  metrics::TimeSeries& series = s.series;
  for (int g = 0; g < fleet.size(); ++g) {
    series.add_track("gpu/util", g, [&fleet, g] {
      return fleet.scheduler(g).active_utilization();
    });
    series.add_track("gpu/queue_hp", g, [&fleet, g] {
      return static_cast<double>(
          fleet.scheduler(g).ready_stages(Priority::kHigh));
    });
    series.add_track("gpu/queue_lp", g, [&fleet, g] {
      return static_cast<double>(
          fleet.scheduler(g).ready_stages(Priority::kLow));
    });
    series.add_track("gpu/hot_models", g, [&fleet, g] {
      return static_cast<double>(fleet.hot_model_count(g));
    });
    series.add_track("gpu/transfers_in", g, [&router, g] {
      return static_cast<double>(router.pending_transfers_to(g));
    });
    series.add_track("gpu/health", g, [&fleet, g] {
      return static_cast<double>(static_cast<int>(fleet.health(g)));
    });
  }
  series.add_track("fleet/backlog", -1, [&fleet] {
    double sum = 0.0;
    for (int g = 0; g < fleet.size(); ++g) {
      sum += static_cast<double>(fleet.scheduler(g).jobs_in_flight());
    }
    return sum;
  });
  metrics::Collector& collector = s.collector;
  auto windowed_dmr = [&collector](Priority p) {
    return [&collector, p, last_missed = std::uint64_t{0},
            last_completed = std::uint64_t{0}]() mutable {
      const metrics::Collector::ClassCounts c = collector.class_counts(p);
      const std::uint64_t dm = c.missed - last_missed;
      const std::uint64_t dc = c.completed - last_completed;
      last_missed = c.missed;
      last_completed = c.completed;
      return dc == 0 ? 0.0
                     : static_cast<double>(dm) / static_cast<double>(dc);
    };
  };
  series.add_track("fleet/hp_dmr_w", -1, windowed_dmr(Priority::kHigh));
  series.add_track("fleet/lp_dmr_w", -1, windowed_dmr(Priority::kLow));
  series.add_track("fleet/jobs_lost", -1, [&fleet] {
    return static_cast<double>(fleet.jobs_lost());
  });
  if (config.resilience.enabled) {
    cl::ResiliencePolicy& resilience = *s.resilience;
    for (int g = 0; g < fleet.size(); ++g) {
      series.add_track("gpu/breaker", g, [&fleet, g] {
        return fleet.breaker_open(g) ? 1.0 : 0.0;
      });
    }
    series.add_track("fleet/retry_tokens", -1, [&resilience] {
      return resilience.budget_tokens();
    });
    series.add_track("fleet/retries", -1, [&resilience] {
      return static_cast<double>(resilience.retries());
    });
  }
}

/// run_cluster's result fill, over the wired stack.
void fill_result(const ex::ClusterConfig& config, daris::common::Time horizon,
                 ClusterStack& s, ex::ClusterResult* out) {
  ex::ClusterResult& r = *out;
  cl::Fleet& fleet = *s.fleet;
  const cl::Router& router = *s.router;
  const cl::Rebalancer& rebalancer = *s.rebalancer;
  const cl::ResiliencePolicy& res = *s.resilience;
  r.total_jps = s.collector.throughput_jps(horizon);
  r.hp = s.collector.summary(Priority::kHigh);
  r.lp = s.collector.summary(Priority::kLow);
  r.cross_gpu_migrations = router.cross_gpu_migrations();
  r.drops = router.drops();
  r.infeasible_rejects = router.infeasible_rejects();
  r.transfers = router.transfers();
  r.transferred_mb = router.transferred_mb();
  r.rebalancing = config.rebalance.enabled;
  r.steals = rebalancer.steals();
  r.steal_scans = rebalancer.steal_scans();
  r.rehomes = rebalancer.rehomes();
  r.rehome_rounds = rebalancer.rehome_rounds();
  r.coalesced_transfers = router.coalesced_transfers();
  r.coalesced_mb_saved = router.coalesced_mb_saved();
  r.transfer_cancels = router.transfer_cancels();
  r.intra_gpu_migrations = fleet.intra_gpu_migrations();
  r.arrivals = s.open_loop      ? s.open_loop->arrivals()
               : s.trace_driver ? s.trace_driver->arrivals()
                                : 0;
  r.jobs_lost = fleet.jobs_lost();
  r.unmatched_rows = s.trace_driver ? s.trace_driver->unmatched() : 0;
  r.resilience = config.resilience.enabled;
  r.first_attempts = res.first_attempts();
  r.retries = res.retries();
  r.retry_admits = res.retry_admits();
  r.hedges = res.hedges();
  r.hedge_wins = res.hedge_wins();
  r.hedge_cancels = res.hedge_cancels();
  r.hedge_waste = res.hedge_waste();
  r.breaker_opens = res.breaker_opens();
  r.breaker_closes = res.breaker_closes();
  cl::Fleet::ConservationInput cons;
  for (std::size_t c = 0; c < 2; ++c) {
    const auto p = static_cast<Priority>(c);
    cons.released[c] = router.released_of(p);
    cons.shed[c] = router.shed_of(p);
    cons.pending[c] = router.pending_of(p);
  }
  cons.steals = rebalancer.steals();
  r.conservation_ok = fleet.check_conservation(cons).ok;
  r.per_gpu.resize(static_cast<std::size_t>(fleet.size()));
  for (int g = 0; g < fleet.size(); ++g) {
    ex::GpuSummary& gs = r.per_gpu[static_cast<std::size_t>(g)];
    gs.utilization = fleet.gpu(g).utilization(horizon);
    gs.completed = fleet.jobs_completed(g);
    gs.intra_migrations = fleet.scheduler(g).migrations();
    gs.routing = s.collector.routing(g);
  }
  const daris::sim::Simulator::Stats st = s.sim->stats();
  r.profile.events_executed = st.events_executed;
  r.profile.callbacks_inline = st.callbacks_inline;
  r.profile.callbacks_heap = st.callbacks_heap;
  r.profile.heap_high_water = st.heap_high_water;
  r.profile.pool_slots = st.pool_slots;
  for (int g = 0; g < fleet.size(); ++g) {
    const auto& ss = fleet.gpu(g).solver_stats();
    r.profile.solver_flushes += ss.flushes;
    r.profile.solver_contexts_solved += ss.contexts_solved;
    r.profile.solver_contexts_reused += ss.contexts_reused;
  }
}

}  // namespace

ex::RunResult traced_run_daris(const ex::RunConfig& config,
                               LayerSpans* spans) {
  const auto t_start = Clock::now();
  auto sim = std::make_unique<daris::sim::Simulator>();
  auto gpu =
      std::make_unique<daris::gpusim::Gpu>(*sim, config.gpu, config.seed);
  rt::SchedulerConfig sched_cfg = config.sched;
  sched_cfg.canonicalize();
  sim->reserve(config.taskset.tasks.size() * 3 +
               static_cast<std::size_t>(sched_cfg.parallelism()) * 2 + 64);
  auto collector = std::make_unique<metrics::Collector>();
  collector->set_measure_start(daris::common::from_sec(config.warmup_s));
  collector->enable_stage_trace(config.stage_trace);

  ModelMap models =
      compile_models(config.taskset, sched_cfg.batch, config.gpu, spans);
  const rt::AfetResult afet =
      profile(config.gpu, sched_cfg, models, config.seed, spans);

  auto scheduler = std::make_unique<rt::Scheduler>(*sim, *gpu, sched_cfg,
                                                   collector.get());
  {
    Span span(&spans->register_s);
    for (const auto& t : config.taskset.tasks) {
      const dnn::CompiledModel* m = models.at(t.model).get();
      const int id = scheduler->add_task(t, m);
      scheduler->set_afet(id, afet.for_model(m));
      ++spans->register_calls;
    }
  }
  {
    Span span(&spans->offline_s);
    scheduler->run_offline_phase();
  }

  const daris::common::Time horizon =
      daris::common::from_sec(config.duration_s);
  rt::Scheduler& sched = *scheduler;
  auto driver = std::make_unique<wl::PeriodicDriver>(
      *sim, config.taskset,
      [&sched, spans](int id) {
        bool admitted = false;
        timed_sink(spans, [&] { admitted = sched.release_job(id); });
        spans->sink_admits += admitted ? 1 : 0;
      },
      horizon);
  driver->start();
  spans->setup_s += seconds_since(t_start);
  spans->rss_after_setup_mb =
      std::max(spans->rss_after_setup_mb, current_rss_mb());
  {
    Span span(&spans->run_until_s);
    sim->run_until(horizon);
  }

  ex::RunResult result;
  {
    Span span(&spans->finalize_s);
    result.total_jps = collector->throughput_jps(horizon);
    result.hp = collector->summary(Priority::kHigh);
    result.lp = collector->summary(Priority::kLow);
    result.gpu_utilization = gpu->utilization(horizon);
    result.migrations = scheduler->migrations();
    const daris::sim::Simulator::Stats st = sim->stats();
    result.profile.events_executed = st.events_executed;
    result.profile.callbacks_inline = st.callbacks_inline;
    result.profile.callbacks_heap = st.callbacks_heap;
    result.profile.heap_high_water = st.heap_high_water;
    result.profile.pool_slots = st.pool_slots;
    const auto& ss = gpu->solver_stats();
    result.profile.solver_flushes = ss.flushes;
    result.profile.solver_contexts_solved = ss.contexts_solved;
    result.profile.solver_contexts_reused = ss.contexts_reused;
  }
  {
    // run_daris's locals, destroyed in its reverse declaration order.
    Span span(&spans->teardown_s);
    driver.reset();
    scheduler.reset();
    models.clear();
    collector.reset();
    gpu.reset();
    sim.reset();
  }
  return result;
}

ex::ClusterResult traced_run_cluster(const ex::ClusterConfig& config,
                                     int lanes, LayerSpans* spans) {
  if (!config.faults.empty()) unsupported("fault schedules");
  if (config.arrivals == ex::ArrivalMode::kPeriodic) {
    unsupported("periodic fleet arrivals");
  }
  if (!config.nodes.empty()) unsupported("heterogeneous fleets");
  const auto t_start = Clock::now();
  const int devices = std::max(1, config.num_gpus);
  auto s = std::make_unique<ClusterStack>();
  s->sim = std::make_unique<daris::sim::ShardedSimulator>(devices, lanes);
  daris::sim::Simulator& control = s->sim->control();
  s->collector.set_measure_start(daris::common::from_sec(config.warmup_s));
  s->collector.enable_stage_trace(config.stage_trace);
  s->collector.enable_lanes(devices);
  if (config.telemetry.enabled) {
    s->collector.enable_event_log(config.telemetry.event_capacity);
  }
  rt::SchedulerConfig sched_cfg = config.sched;
  sched_cfg.canonicalize();

  cl::FleetConfig fleet_cfg;
  fleet_cfg.num_gpus = config.num_gpus;
  fleet_cfg.gpu = config.gpu;
  fleet_cfg.sched = sched_cfg;
  fleet_cfg.transfer_us_per_mb = config.transfer_us_per_mb;
  fleet_cfg.seed = config.seed;
  s->fleet = std::make_unique<cl::Fleet>(*s->sim, fleet_cfg, &s->collector);
  cl::Fleet& fleet = *s->fleet;
  s->collector.set_gpu_count(fleet.size());
  s->sim->reserve(
      config.taskset.tasks.size() * 3 + 64,
      static_cast<std::size_t>(sched_cfg.parallelism()) * 2 + 64);

  s->models =
      compile_models(config.taskset, sched_cfg.batch, config.gpu, spans);
  // A homogeneous fleet profiles AFET once, on the shared resolved spec.
  const rt::AfetResult afet =
      profile(fleet.node(0).resolved(), sched_cfg, s->models, config.seed,
              spans);
  const std::vector<int> homes = assign_homes(config, *s);
  {
    Span span(&spans->register_s);
    for (std::size_t i = 0; i < config.taskset.tasks.size(); ++i) {
      const auto& t = config.taskset.tasks[i];
      const dnn::CompiledModel* m = s->models.at(t.model).get();
      const int id = fleet.add_task(t, m, homes[i]);
      for (int g = 0; g < fleet.size(); ++g) {
        fleet.set_afet(id, g, afet.for_model(m));
      }
      spans->register_calls += static_cast<std::uint64_t>(fleet.size());
    }
  }
  {
    Span span(&spans->offline_s);
    fleet.run_offline_phase();
  }

  cl::RouterConfig router_cfg;
  router_cfg.policy = config.routing;
  router_cfg.spill_threshold = config.spill_threshold;
  router_cfg.coalesce = config.rebalance.enabled && config.rebalance.coalesce;
  router_cfg.seed = config.seed ^ 0x90C7E6ull;
  s->router = std::make_unique<cl::Router>(fleet, router_cfg, &s->collector);
  s->resilience = std::make_unique<cl::ResiliencePolicy>(
      control, fleet, *s->router, config.resilience, &s->collector);
  cl::ResiliencePolicy& resilience = *s->resilience;
  const wl::ReleaseFn sink = [&resilience, spans](int id) {
    timed_sink(spans, [&] { resilience.release(id); });
  };

  const daris::common::Time horizon =
      daris::common::from_sec(config.duration_s);
  if (config.arrivals == ex::ArrivalMode::kTrace) {
    s->trace_driver = std::make_unique<wl::TraceDriver>(
        control, config.taskset, config.trace, sink, horizon);
    s->trace_driver->start();
  } else {
    wl::OpenLoopConfig ol;
    ol.process = config.arrivals == ex::ArrivalMode::kPoisson
                     ? wl::ArrivalProcess::kPoisson
                     : wl::ArrivalProcess::kBursty;
    ol.rate_scale = config.rate_scale;
    ol.seed = config.seed ^ 0x09E61ull;
    s->open_loop = std::make_unique<wl::OpenLoopDriver>(
        control, config.taskset, sink, horizon, ol);
    s->open_loop->start();
  }
  s->rebalancer = std::make_unique<cl::Rebalancer>(
      control, fleet, *s->router, config.rebalance, &s->collector);
  s->rebalancer->start(horizon);
  resilience.start(horizon);
  if (config.telemetry.enabled) {
    add_telemetry_tracks(config, *s);
    s->series.start(control,
                    daris::common::from_sec(config.telemetry.sample_period_s),
                    horizon);
  }
  spans->setup_s += seconds_since(t_start);
  spans->rss_after_setup_mb =
      std::max(spans->rss_after_setup_mb, current_rss_mb());

  {
    Span span(&spans->run_until_s);
    s->sim->run_until(horizon);
  }
  s->series.stop();

  ex::ClusterResult result;
  {
    Span span(&spans->finalize_s);
    s->collector.finalize_lanes();
    fill_result(config, horizon, *s, &result);
  }
  for (Priority p : {Priority::kHigh, Priority::kLow}) {
    spans->route_released += s->router->released_of(p);
    spans->route_shed += s->router->shed_of(p);
  }
  if (config.telemetry.enabled) {
    result.timeseries = std::move(s->series);
    if (s->collector.event_log() != nullptr) {
      result.events = std::move(*s->collector.event_log());
    }
  }
  {
    Span span(&spans->teardown_s);
    s.reset();
  }
  return result;
}

double current_rss_mb() {
  std::ifstream statm("/proc/self/statm");
  long pages = 0, resident = 0;
  statm >> pages >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

}  // namespace perfbench
