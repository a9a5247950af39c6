#include "experiments/grid.h"

#include <cstdio>

#include "common/table.h"

namespace daris::exp {

namespace {
GridPoint make_point(rt::Policy policy, int nc, int ns, double os,
                     int batch) {
  GridPoint p;
  p.sched.policy = policy;
  p.sched.num_contexts = nc;
  p.sched.streams_per_context = ns;
  p.sched.oversubscription = os;
  p.sched.batch = batch;
  p.sched.canonicalize();
  p.label = std::string(rt::policy_name(policy)) + " " + p.sched.label();
  return p;
}
}  // namespace

std::vector<GridPoint> paper_grid(int batch) {
  std::vector<GridPoint> grid;
  // STR: pure streams, Ns = 2..10.
  for (int ns : {2, 3, 4, 6, 8, 10}) {
    grid.push_back(make_point(rt::Policy::kStr, 1, ns, 1.0, batch));
  }
  // MPS: Nc x 1 with OS in {1, 1.5, 2, Nc}. OS = Nc tops each range, so a
  // list reaching it early (Nc = 2) stops there instead of repeating it.
  for (int nc : {2, 3, 4, 6, 8, 10}) {
    for (double os : {1.0, 1.5, 2.0, static_cast<double>(nc)}) {
      if (os > nc) continue;
      grid.push_back(make_point(rt::Policy::kMps, nc, 1, os, batch));
      if (os == nc) break;
    }
  }
  // MPS+STR: Np = Nc * Ns <= 10, OS in {1, 2, Nc}.
  const int combos[][2] = {{2, 2}, {2, 3}, {2, 4}, {2, 5},
                           {3, 2}, {3, 3}, {4, 2}, {5, 2}};
  for (const auto& c : combos) {
    for (double os : {1.0, 2.0, static_cast<double>(c[0])}) {
      grid.push_back(make_point(rt::Policy::kMpsStr, c[0], c[1], os, batch));
      if (os == c[0]) break;
    }
  }
  return grid;
}

std::vector<GridPoint> os_sweep_grid(int num_contexts) {
  std::vector<GridPoint> grid;
  for (double os = 1.0; os <= num_contexts + 1e-9; os += 0.5) {
    grid.push_back(make_point(rt::Policy::kMps, num_contexts, 1, os, 1));
  }
  return grid;
}

std::vector<GridResult> run_grid(const workload::TaskSetSpec& taskset,
                                 const std::vector<GridPoint>& grid,
                                 double duration_s) {
  std::vector<GridResult> out;
  out.reserve(grid.size());
  for (const auto& point : grid) {
    RunConfig cfg;
    cfg.taskset = taskset;
    cfg.sched = point.sched;
    cfg.duration_s = duration_s;
    out.push_back(GridResult{point, run_daris(cfg)});
  }
  return out;
}

std::string render_figure_table(const std::vector<GridResult>& results,
                                double lower_jps, double upper_jps) {
  common::Table table({"config", "Np", "JPS", "vs upper", "HP DMR", "LP DMR",
                       "HP resp p50/max (ms)", "LP resp p50/max (ms)",
                       "LP rejected", "util"});
  for (const auto& r : results) {
    const auto& m = r.result;
    char hp_resp[48], lp_resp[48];
    std::snprintf(hp_resp, sizeof(hp_resp), "%.1f / %.1f",
                  m.hp.response_ms.percentile(50), m.hp.response_ms.max());
    std::snprintf(lp_resp, sizeof(lp_resp), "%.1f / %.1f",
                  m.lp.response_ms.percentile(50), m.lp.response_ms.max());
    table.add_row({r.point.label, common::fmt_int(r.point.sched.parallelism()),
                   common::fmt_double(m.total_jps, 0),
                   common::fmt_percent(m.total_jps / upper_jps - 1.0, 1),
                   common::fmt_percent(m.hp.dmr(), 2),
                   common::fmt_percent(m.lp.dmr(), 2), hp_resp, lp_resp,
                   common::fmt_percent(m.lp.rejection_rate(), 0),
                   common::fmt_double(m.gpu_utilization, 2)});
  }
  std::string out = table.to_string();
  char footer[160];
  std::snprintf(footer, sizeof(footer),
                "baselines: lower (single stream) = %.0f JPS, upper (pure "
                "batching) = %.0f JPS\n",
                lower_jps, upper_jps);
  out += footer;
  return out;
}

const GridResult* best_throughput(const std::vector<GridResult>& results) {
  const GridResult* best = nullptr;
  for (const auto& r : results) {
    if (!best || r.result.total_jps > best->result.total_jps) best = &r;
  }
  return best;
}

}  // namespace daris::exp
