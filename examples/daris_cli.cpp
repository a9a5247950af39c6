// Command-line experiment driver: run any DARIS configuration on any task
// set from the shell, print the summary, optionally dump a Chrome-trace
// timeline. The fifth "example", and the quickest way to explore the
// configuration space without writing code.
//
//   daris_cli --model resnet18 --policy mps --contexts 6 --os 6
//             --duration 4 --trace /tmp/timeline.json
//
// A malformed or out-of-range flag value exits 2 with a message naming the
// flag (ctest: cli_rejects_bad_flags).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "common/parse.h"
#include "experiments/runner.h"
#include "metrics/trace_export.h"

using namespace daris;

namespace {

void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --model resnet18|resnet50|unet|inception|mixed   (default resnet18)\n"
      "  --policy str|mps|mps+str                         (default mps)\n"
      "  --contexts N        number of MPS contexts Nc    (default 6)\n"
      "  --streams N         streams per context Ns       (default 1)\n"
      "  --os X              oversubscription level       (default Nc)\n"
      "  --batch B           samples per job              (default 1)\n"
      "  --load X            load factor, 1.0 = 150%% pt  (default 1.0)\n"
      "  --hp-frac X         HP share of tasks            (default 1/3)\n"
      "  --window W          MRET window ws               (default 5)\n"
      "  --duration S        simulated seconds            (default 4)\n"
      "  --seed N            RNG seed                     (default 42)\n"
      "  --hpa               HP jobs take the admission test\n"
      "  --no-staging / --no-last / --no-prior / --no-fixed  ablations\n"
      "  --trace FILE        write Chrome-trace JSON timeline\n"
      "  --csv               machine-readable one-line output\n",
      argv0);
}

using common::parse_whole;

bool arg_is(const char* a, const char* name) { return !std::strcmp(a, name); }

/// Exits 2 naming the flag unless `ok`.
void require(bool ok, const char* flag, const char* want, const char* text) {
  if (ok) return;
  std::fprintf(stderr, "%s wants %s, got '%s'\n", flag, want, text);
  std::exit(2);
}

/// A count flag: an integer >= 1.
int count_arg(const char* flag, const char* text) {
  int v = 0;
  require(parse_whole(text, &v) && v >= 1, flag, "an integer >= 1", text);
  return v;
}

/// The seed flag: an unsigned 64-bit integer.
std::uint64_t seed_arg(const char* flag, const char* text) {
  std::uint64_t v = 0;
  require(parse_whole(text, &v), flag, "an unsigned integer", text);
  return v;
}

/// A real flag: a finite number that `in_range` accepts.
double real_arg(const char* flag, const char* text, const char* want,
                bool (*in_range)(double)) {
  double v = 0.0;
  require(parse_whole(text, &v) && std::isfinite(v) && in_range(v), flag,
          want, text);
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  std::string model = "resnet18";
  std::string policy = "mps";
  std::string trace_file;
  bool csv = false;
  double load = 1.0, hp_frac = 1.0 / 3.0, os = -1.0, duration = 4.0;
  int contexts = 6, streams = 1, batch = 1, window = 5;
  std::uint64_t seed = 42;
  rt::SchedulerConfig sched;

  const auto positive = [](double v) { return v > 0.0; };
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg_is(a, "--model")) model = next();
    else if (arg_is(a, "--policy")) policy = next();
    else if (arg_is(a, "--contexts")) contexts = count_arg(a, next());
    else if (arg_is(a, "--streams")) streams = count_arg(a, next());
    else if (arg_is(a, "--os"))
      os = real_arg(a, next(), "a finite number >= 1",
                    [](double v) { return v >= 1.0; });
    else if (arg_is(a, "--batch")) batch = count_arg(a, next());
    else if (arg_is(a, "--load"))
      load = real_arg(a, next(), "a finite number > 0", positive);
    else if (arg_is(a, "--hp-frac"))
      hp_frac = real_arg(a, next(), "a fraction in [0, 1]",
                         [](double v) { return v >= 0.0 && v <= 1.0; });
    else if (arg_is(a, "--window")) window = count_arg(a, next());
    else if (arg_is(a, "--duration"))
      duration = real_arg(a, next(), "a finite number > 0", positive);
    else if (arg_is(a, "--seed")) seed = seed_arg(a, next());
    else if (arg_is(a, "--hpa")) sched.hp_admission = true;
    else if (arg_is(a, "--no-staging")) sched.staging = false;
    else if (arg_is(a, "--no-last")) sched.prioritize_last_stage = false;
    else if (arg_is(a, "--no-prior")) sched.boost_after_miss = false;
    else if (arg_is(a, "--no-fixed")) sched.fixed_levels = false;
    else if (arg_is(a, "--trace")) trace_file = next();
    else if (arg_is(a, "--csv")) csv = true;
    else {
      usage(argv[0]);
      return arg_is(a, "--help") || arg_is(a, "-h") ? 0 : 2;
    }
  }

  exp::RunConfig cfg;
  if (model == "mixed") {
    cfg.taskset = workload::mixed_taskset(seed);
  } else {
    dnn::ModelKind kind;
    if (model == "resnet18") kind = dnn::ModelKind::kResNet18;
    else if (model == "resnet50") kind = dnn::ModelKind::kResNet50;
    else if (model == "unet") kind = dnn::ModelKind::kUNet;
    else if (model == "inception") kind = dnn::ModelKind::kInceptionV3;
    else {
      std::fprintf(stderr, "unknown model '%s'\n", model.c_str());
      return 2;
    }
    cfg.taskset = workload::scaled_taskset(kind, load, hp_frac, seed);
  }

  if (policy == "str") sched.policy = rt::Policy::kStr;
  else if (policy == "mps") sched.policy = rt::Policy::kMps;
  else if (policy == "mps+str") sched.policy = rt::Policy::kMpsStr;
  else {
    std::fprintf(stderr, "unknown policy '%s'\n", policy.c_str());
    return 2;
  }
  sched.num_contexts = contexts;
  sched.streams_per_context = streams;
  sched.oversubscription = os < 0 ? contexts : os;
  sched.batch = batch;
  sched.mret_window = window;
  cfg.sched = sched;
  cfg.duration_s = duration;
  cfg.warmup_s = std::min(1.0, duration / 4.0);
  cfg.seed = seed;
  cfg.stage_trace = !trace_file.empty();

  const exp::RunResult r = exp::run_daris(cfg);

  if (csv) {
    std::printf("%s,%s,%s,%.1f,%.2f,%.4f,%.4f,%.3f,%.3f,%.4f,%llu\n",
                model.c_str(), policy.c_str(), cfg.sched.label().c_str(),
                cfg.taskset.demand_jps(), r.total_jps, r.hp.dmr(), r.lp.dmr(),
                r.hp.response_ms.percentile(50),
                r.lp.response_ms.percentile(50), r.gpu_utilization,
                static_cast<unsigned long long>(r.migrations));
  } else {
    std::printf("%s on %s %s: demand %.0f JPS\n", policy.c_str(),
                model.c_str(), cfg.sched.label().c_str(),
                cfg.taskset.demand_jps());
    std::printf("  throughput %.0f JPS, GPU %.0f%% busy, %llu migrations\n",
                r.total_jps, 100.0 * r.gpu_utilization,
                static_cast<unsigned long long>(r.migrations));
    std::printf("  HP: DMR %.2f%%, resp p50/p99 %.1f/%.1f ms, rejected "
                "%.1f%%\n",
                100.0 * r.hp.dmr(), r.hp.response_ms.percentile(50),
                r.hp.response_ms.percentile(99),
                100.0 * r.hp.rejection_rate());
    std::printf("  LP: DMR %.2f%%, resp p50/p99 %.1f/%.1f ms, rejected "
                "%.1f%%\n",
                100.0 * r.lp.dmr(), r.lp.response_ms.percentile(50),
                r.lp.response_ms.percentile(99),
                100.0 * r.lp.rejection_rate());
  }

  if (!trace_file.empty()) {
    std::ofstream out(trace_file);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", trace_file.c_str());
      return 1;
    }
    out << metrics::to_chrome_trace_json(r.stage_trace);
    std::fprintf(stderr, "wrote %zu spans to %s\n", r.stage_trace.size(),
                 trace_file.c_str());
  }
  return 0;
}
