// perfbench: the repository's end-to-end benchmark driver.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--quick] [--inject-mismatch]
//
// --trace 0 repeats the workload through the public entry points
// (exp::run_daris / exp::run_cluster): one warm-up repetition, then at least
// three more and at least S seconds of them. It checks every repetition and
// reports the end-to-end metrics: host time as medians over the repetitions
// after the warm-up, simulated outcomes from the seed (identical in every
// repetition). --trace 1 runs a warm-up pass (for cluster workloads, the
// traced wiring of traced.h at 1 lane), then the workload once untraced and
// once through the traced wiring at 4 lanes, checks that all of them agree,
// and reports the per-layer metrics. --quick shrinks the workloads for the
// benchmark's self-tests; --inject-mismatch corrupts one repetition's digest
// to prove the check fires. The last stdout line is one JSON object; the exit code is non-zero
// when any check failed.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "outcome.h"
#include "traced.h"
#include "workloads.h"

namespace ex = daris::exp;
using Clock = std::chrono::steady_clock;

namespace perfbench {
namespace {

constexpr int kMinReps = 3;
constexpr int kMaxReps = 64;
// Keep every invocation well inside the 180 s a run may take.
constexpr double kHardStopS = 150.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool quick = false;
  bool inject_mismatch = false;
};

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of nanosecond samples.
double percentile_ns(std::vector<std::uint32_t> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q / 100.0 * static_cast<double>(v.size())));
  return static_cast<double>(v[std::max<std::size_t>(rank, 1) - 1]);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// One repetition of a workload through its public entry point.
struct Rep {
  double wall_s = 0.0;      // first library call to last destructor
  double setup_s = 0.0;     // entry point's offline phase
  double simulate_s = 0.0;  // entry point's simulate phase
  Outcome outcome;
};

Rep run_untraced(const Workload& w) {
  Rep rep;
  const auto t0 = Clock::now();
  if (w.is_grid()) {
    std::vector<GridRun> runs;
    runs.reserve(w.points.size());
    for (const ex::RunConfig& cfg : w.points) {
      runs.push_back({&cfg, ex::run_daris(cfg)});
      rep.setup_s += runs.back().result.profile.wall_ms_offline / 1e3;
      rep.simulate_s += runs.back().result.profile.wall_ms_run / 1e3;
    }
    rep.outcome = grid_outcome(runs, w.point_labels);
  } else {
    const ex::ClusterResult r = ex::run_cluster(w.cluster);
    rep.setup_s = r.profile.wall_ms_offline / 1e3;
    rep.simulate_s = r.profile.wall_ms_run / 1e3;
    rep.outcome = cluster_outcome(w.cluster, r);
  }
  rep.wall_s = seconds_since(t0);
  return rep;
}

/// Results of one traced pass over a workload.
struct TracedPass {
  LayerSpans spans;
  Outcome outcome;
  daris::metrics::RunProfile profile;
  ex::ClusterResult cluster;  // cluster workloads only
};

TracedPass run_traced(const Workload& w, int lanes) {
  TracedPass pass;
  const auto t0 = Clock::now();
  if (w.is_grid()) {
    std::vector<GridRun> runs;
    runs.reserve(w.points.size());
    for (const ex::RunConfig& cfg : w.points) {
      runs.push_back({&cfg, traced_run_daris(cfg, &pass.spans)});
      pass.profile += runs.back().result.profile;  // high-water: max
    }
    pass.outcome = grid_outcome(runs, w.point_labels);
  } else {
    pass.cluster = traced_run_cluster(w.cluster, lanes, &pass.spans);
    pass.outcome = cluster_outcome(w.cluster, pass.cluster);
    pass.profile = pass.cluster.profile;
  }
  pass.spans.wall_s = seconds_since(t0);
  return pass;
}

/// Ordered name -> (value, unit) list for the JSON line.
struct Metrics {
  struct Entry {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Entry> entries;
  void add(const char* name, double value, const char* unit) {
    entries.push_back({name, std::isfinite(value) ? value : 0.0, unit});
  }
};

void print_result(bool correct, int attempted, int failed,
                  const Metrics& m) {
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < m.entries.size(); ++i) {
    const auto& e = m.entries[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", e.name.c_str(), e.value, e.unit);
  }
  std::printf("}}\n");
}

void print_outcome(const char* tag, const Outcome& o) {
  std::printf(
      "%s: sim_jps %.4f, sim_goodput_frac %.6f, hp_dmr %.6f, lp_dmr %.6f, "
      "hp p50/p99 %.4f/%.4f ms (n=%llu), lp p50/p99 %.4f/%.4f ms (n=%llu), "
      "conservation %s, digest %016llx%s%s\n",
      tag, o.sim_jps, o.goodput_frac, o.hp_dmr, o.lp_dmr, o.hp_p50_ms,
      o.hp_p99_ms, static_cast<unsigned long long>(o.hp_samples), o.lp_p50_ms,
      o.lp_p99_ms, static_cast<unsigned long long>(o.lp_samples),
      o.conservation_ok ? "ok" : "VIOLATED",
      static_cast<unsigned long long>(o.digest),
      o.peak_label.empty() ? "" : ", peak ", o.peak_label.c_str());
}

double paper_peak_err(const Workload& w, const Outcome& o) {
  return w.is_grid() ? std::fabs(o.sim_jps - kPaperPeakJps) / kPaperPeakJps
                     : 0.0;
}

int end_to_end(const Workload& w, const Args& args) {
  const auto t_start = Clock::now();
  Clock::time_point t0 = t_start;  // start of the measured repetitions
  std::vector<Rep> reps;
  int failed = 0;
  while (static_cast<int>(reps.size()) < kMaxReps) {
    Rep rep = run_untraced(w);
    const int index = static_cast<int>(reps.size());
    // Rep 0 is a warm-up: checked like every other repetition, but its host
    // times (first touch of the process's memory) are left out of the
    // medians.
    if (index == 0) t0 = Clock::now();
    if (args.inject_mismatch && index == 1) rep.outcome.digest ^= 1;
    bool ok = rep.outcome.conservation_ok;
    if (index > 0 && rep.outcome.digest != reps.front().outcome.digest) {
      std::printf("rep %d: simulated digest %016llx differs from rep 0\n",
                  index, static_cast<unsigned long long>(rep.outcome.digest));
      ok = false;
    }
    if (!rep.outcome.conservation_ok) {
      std::printf("rep %d: job conservation violated\n", index);
    }
    failed += ok ? 0 : 1;
    std::printf("rep %d: wall %.4f s, setup %.4f s, simulate %.4f s\n",
                index, rep.wall_s, rep.setup_s, rep.simulate_s);
    reps.push_back(std::move(rep));
    const int measured = static_cast<int>(reps.size()) - 1;
    const double elapsed = seconds_since(t0);
    if (measured >= kMinReps && elapsed >= args.seconds) break;
    const double per_rep =
        measured == 0 ? seconds_since(t_start) : elapsed / measured;
    if (seconds_since(t_start) + per_rep > kHardStopS) break;
  }

  const Outcome& o = reps.front().outcome;
  print_outcome("outcome", o);
  std::vector<double> wall, setup, jobs_per_s;
  for (const Rep& r : reps) {
    if (&r == &reps.front() && reps.size() > 1) continue;  // warm-up
    wall.push_back(r.wall_s);
    setup.push_back(r.setup_s);
    jobs_per_s.push_back(
        ratio(static_cast<double>(r.outcome.jobs_completed), r.simulate_s));
  }
  const int attempted = static_cast<int>(reps.size());
  const double fail_frac = ratio(failed, attempted);
  std::printf("fail_frac %.4f (%d of %d repetitions), paper_peak_err %.6f\n",
              fail_frac, failed, attempted, paper_peak_err(w, o));

  Metrics m;
  m.add("wall_s", median(wall), "s");
  m.add("setup_s", median(setup), "s");
  m.add("sim_jobs_per_s", median(jobs_per_s), "1/s");
  m.add("peak_rss_mb", peak_rss_mb(), "MB");
  m.add("pass_frac", 1.0 - fail_frac, "ratio");
  m.add("sim_jps", o.sim_jps, "1/s");
  m.add("sim_goodput_frac", o.goodput_frac, "ratio");
  m.add("hp_ontime_frac", 1.0 - o.hp_dmr, "ratio");
  m.add("lp_ontime_frac", 1.0 - o.lp_dmr, "ratio");
  m.add("hp_p50_ms", o.hp_p50_ms, "ms");
  m.add("hp_p99_ms", o.hp_p99_ms, "ms");
  m.add("lp_p50_ms", o.lp_p50_ms, "ms");
  m.add("lp_p99_ms", o.lp_p99_ms, "ms");
  print_result(failed == 0, attempted, failed, m);
  return failed == 0 ? 0 : 1;
}

int per_layer(const Workload& w, const Args& args) {
  int attempted = 0;
  int failed = 0;
  auto check = [&](bool ok, const char* what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::printf("check failed: %s\n", what);
    }
  };

  // The first pass warms the process up (its host times include the first
  // touch of its memory): the 1-lane traced run for a fleet, an untraced
  // run for the grid. Then the untraced entry point and the traced wiring
  // run back to back on the same inputs, in pairs, for --seconds, so
  // trace.overhead_frac compares warm runs. The spans come from the last
  // traced pass.
  const auto t0 = Clock::now();
  TracedPass one_lane;
  if (w.is_grid()) {
    run_untraced(w);
  } else {
    one_lane = run_traced(w, 1);
    print_outcome("traced 1 lane", one_lane.outcome);
  }
  TracedPass traced;
  std::vector<double> overheads;
  for (;;) {
    const auto t_pair = Clock::now();
    Rep ref = run_untraced(w);
    if (args.inject_mismatch) ref.outcome.digest ^= 1;
    print_outcome("untraced", ref.outcome);
    check(ref.outcome.conservation_ok, "untraced conservation");
    traced = run_traced(w, kLanes);
    print_outcome("traced", traced.outcome);
    check(traced.outcome.conservation_ok, "traced conservation");
    check(traced.outcome.digest == ref.outcome.digest,
          "traced digest equals untraced digest");
    overheads.push_back(
        ratio(traced.spans.wall_s - ref.wall_s, ref.wall_s));
    const double elapsed = seconds_since(t0);
    if (elapsed >= args.seconds ||
        elapsed + seconds_since(t_pair) > kHardStopS) {
      break;
    }
  }

  // Sharded speed-up: the simulate phase at 1 lane over 4 lanes. run_daris
  // has a single event heap, so the grid reports 1.
  double speedup = 1.0;
  bool lanes_match = true;
  if (!w.is_grid()) {
    lanes_match = one_lane.outcome.digest == traced.outcome.digest;
    check(lanes_match, "1-lane digest equals 4-lane digest");
    speedup = ratio(one_lane.spans.run_until_s, traced.spans.run_until_s);
  }

  const LayerSpans& s = traced.spans;
  const daris::metrics::RunProfile& p = traced.profile;
  const ex::ClusterResult& c = traced.cluster;
  const double events = static_cast<double>(p.events_executed);
  const double self_s = s.simulate_self_s();
  std::printf("traced spans: wall %.4f s, setup %.4f s, run_until %.4f s "
              "(sink %.4f s), finalize %.4f s, teardown %.4f s\n",
              s.wall_s, s.setup_s, s.run_until_s, s.sink_s, s.finalize_s,
              s.teardown_s);

  Metrics m;
  m.add("sim.events", events, "count");
  m.add("sim.simulate_self_s", self_s, "s");
  m.add("sim.ns_per_event", ratio(self_s * 1e9, events), "ns");
  m.add("sim.heap_high_water", static_cast<double>(p.heap_high_water),
        "count");
  m.add("sim.callbacks_heap", static_cast<double>(p.callbacks_heap), "count");
  m.add("sim.sharded_speedup", speedup, "x");
  m.add("sim.lane_digest_match", lanes_match ? 1.0 : 0.0, "bool");
  m.add("gpusim.flushes", static_cast<double>(p.solver_flushes), "count");
  m.add("gpusim.flushes_per_event",
        ratio(static_cast<double>(p.solver_flushes), events), "ratio");
  m.add("gpusim.dirty_hit_rate", p.dirty_hit_rate(), "ratio");
  m.add("dnn.compile_s", s.compile_s, "s");
  m.add("daris.afet_s", s.afet_s, "s");
  m.add("daris.offline_s", s.offline_s, "s");
  // The grid's sink is Scheduler::release_job itself; in a fleet the
  // scheduler's admission runs nested inside the route spans.
  const bool grid = w.is_grid();
  const double shed_frac = ratio(static_cast<double>(s.route_shed),
                                 static_cast<double>(s.route_released));
  m.add("daris.release_calls", grid ? static_cast<double>(s.sink_calls) : 0.0,
        "count");
  m.add("daris.release_ns_p50", grid ? percentile_ns(s.sink_ns, 50.0) : 0.0,
        "ns");
  m.add("daris.release_ns_p99", grid ? percentile_ns(s.sink_ns, 99.0) : 0.0,
        "ns");
  m.add("daris.admit_frac",
        grid ? ratio(static_cast<double>(s.sink_admits),
                     static_cast<double>(s.sink_calls))
             : 1.0 - shed_frac,
        "ratio");
  m.add("cluster.register_calls", static_cast<double>(s.register_calls),
        "count");
  m.add("cluster.register_s", s.register_s, "s");
  m.add("cluster.route_calls", grid ? 0.0 : static_cast<double>(s.sink_calls),
        "count");
  m.add("cluster.route_s", grid ? 0.0 : s.sink_s, "s");
  m.add("cluster.route_ns_p50", grid ? 0.0 : percentile_ns(s.sink_ns, 50.0),
        "ns");
  m.add("cluster.route_ns_p99", grid ? 0.0 : percentile_ns(s.sink_ns, 99.0),
        "ns");
  m.add("cluster.shed_frac", shed_frac, "ratio");
  m.add("cluster.migrations", static_cast<double>(c.cross_gpu_migrations),
        "count");
  m.add("cluster.transfers", static_cast<double>(c.transfers), "count");
  m.add("cluster.transferred_mb", c.transferred_mb, "MB");
  m.add("cluster.steals", static_cast<double>(c.steals), "count");
  m.add("cluster.steal_scans", static_cast<double>(c.steal_scans), "count");
  m.add("cluster.rehomes", static_cast<double>(c.rehomes), "count");
  m.add("cluster.coalesced_transfers",
        static_cast<double>(c.coalesced_transfers), "count");
  m.add("cluster.retries", static_cast<double>(c.retries), "count");
  m.add("cluster.retry_admit_frac",
        ratio(static_cast<double>(c.retry_admits),
              static_cast<double>(c.retries)),
        "ratio");
  m.add("cluster.hedges", static_cast<double>(c.hedges), "count");
  m.add("cluster.hedge_win_frac",
        ratio(static_cast<double>(c.hedge_wins),
              static_cast<double>(c.hedges)),
        "ratio");
  m.add("cluster.breaker_opens", static_cast<double>(c.breaker_opens),
        "count");
  m.add("metrics.finalize_s", s.finalize_s, "s");
  m.add("metrics.samples",
        static_cast<double>(c.timeseries.size()) * c.timeseries.track_count(),
        "count");
  m.add("metrics.events_logged", static_cast<double>(c.events.size()),
        "count");
  m.add("metrics.hp_samples", static_cast<double>(traced.outcome.hp_samples),
        "count");
  m.add("metrics.lp_samples", static_cast<double>(traced.outcome.lp_samples),
        "count");
  m.add("experiments.teardown_s", s.teardown_s, "s");
  m.add("experiments.paper_peak_err", paper_peak_err(w, traced.outcome),
        "ratio");
  m.add("proc.rss_after_setup_mb", s.rss_after_setup_mb, "MB");
  m.add("trace.overhead_frac", median(overheads), "ratio");
  print_result(failed == 0, attempted, failed, m);
  return failed == 0 ? 0 : 1;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "[--quick] [--inject-mismatch]\n",
               argv0);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      args.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      args.trace = std::atoi(argv[++i]);
    } else if (a == "--quick") {
      args.quick = true;
    } else if (a == "--inject-mismatch") {
      args.inject_mismatch = true;
    } else {
      return usage(argv[0]);
    }
  }
  Workload w;
  if (!make_workload(args.workload, args.seed, args.quick, &w)) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return usage(argv[0]);
  }
  std::printf("workload %s, seed %llu, %s\n", w.name.c_str(),
              static_cast<unsigned long long>(args.seed),
              w.is_grid() ? "run_daris grid" : "run_cluster, 4 lanes");
  std::fflush(stdout);
  return args.trace != 0 ? per_layer(w, args) : end_to_end(w, args);
}
