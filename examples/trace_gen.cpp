// Trace generator CLI: emits the CSV traces workload::TraceDriver replays
// (docs/SCENARIOS.md documents the format and the scenario harness that
// consumes them). The diurnal-replay scenario generates its trace in code;
// this command writes the same trace as CSV:
//
//   example_trace_gen --duration-s 30 --rate 1260 --diurnal-amp 0.5
//       --diurnal-period-s 20 --flash 22:3:2.5 --seed 42
//       --out diurnal.csv   (one line)
//
// ctest's trace_gen_reproduces_fixture runs this command
// (tests/trace_gen_fixture.cmake) and checks the output's SHA-256.
//
// The default mix is the mixed Table II task set's demand shares; override
// per class with repeated --mix model:slo:weight flags.
//
// A malformed or out-of-range flag value exits 2 with a message naming the
// flag (ctest: trace_gen_rejects_bad_flags).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "common/parse.h"
#include "workload/taskset.h"
#include "workload/trace.h"

using namespace daris;

namespace {

void usage(const char* argv0) {
  std::printf(
      "usage: %s [--out FILE] [--duration-s S] [--rate JPS]\n"
      "          [--diurnal-amp A] [--diurnal-period-s S] [--diurnal-phase R]\n"
      "          [--flash START:DURATION:FACTOR]... [--seed N]\n"
      "          [--mix MODEL:SLO:WEIGHT]...\n"
      "\n"
      "Writes an `arrival_us,model,slo` CSV trace (stdout without --out).\n"
      "MODEL in {resnet18,resnet50,unet,inceptionv3}, SLO in {hp,lp}.\n"
      "Without --mix the mixed Table II demand shares are used.\n",
      argv0);
}

using common::parse_whole;

/// Exits 2 naming the flag unless `ok`.
void require(bool ok, const std::string& flag, const char* want,
             const char* text) {
  if (ok) return;
  std::fprintf(stderr, "%s wants %s, got '%s'\n", flag.c_str(), want, text);
  std::exit(2);
}

/// A finite number that `in_range` accepts, parsed from all of `text`.
bool parse_real(const std::string& text, bool (*in_range)(double),
                double* out) {
  return parse_whole(text.c_str(), out) && std::isfinite(*out) &&
         in_range(*out);
}

/// A real flag: a finite number that `in_range` accepts.
double real_arg(const std::string& flag, const char* text, const char* want,
                bool (*in_range)(double)) {
  double v = 0.0;
  require(parse_real(text, in_range, &v), flag, want, text);
  return v;
}

bool unbounded(double) { return true; }
bool positive(double v) { return v > 0.0; }
bool unit_interval(double v) { return v >= 0.0 && v < 1.0; }
/// Every arrival of the trace stays within workload::kMaxArrivalUs.
bool trace_duration(double s) {
  return s > 0.0 && s * 1e6 <= static_cast<double>(workload::kMaxArrivalUs);
}

/// START:DURATION:FACTOR, all finite, FACTOR > 0.
bool parse_flash(const std::string& arg, workload::FlashCrowd* out) {
  const std::size_t p1 = arg.find(':');
  const std::size_t p2 = p1 == std::string::npos ? p1 : arg.find(':', p1 + 1);
  if (p2 == std::string::npos) return false;
  const std::string start = arg.substr(0, p1);
  const std::string duration = arg.substr(p1 + 1, p2 - p1 - 1);
  return parse_real(start, unbounded, &out->start_s) &&
         parse_real(duration, unbounded, &out->duration_s) &&
         parse_real(arg.substr(p2 + 1), positive, &out->factor);
}

bool parse_mix(const std::string& arg, workload::TraceMixEntry* out) {
  const std::size_t p1 = arg.find(':');
  const std::size_t p2 = p1 == std::string::npos ? p1 : arg.find(':', p1 + 1);
  if (p2 == std::string::npos) return false;
  const std::string model = arg.substr(0, p1);
  const std::string slo = arg.substr(p1 + 1, p2 - p1 - 1);
  if (model == "resnet18") {
    out->model = dnn::ModelKind::kResNet18;
  } else if (model == "resnet50") {
    out->model = dnn::ModelKind::kResNet50;
  } else if (model == "unet") {
    out->model = dnn::ModelKind::kUNet;
  } else if (model == "inceptionv3") {
    out->model = dnn::ModelKind::kInceptionV3;
  } else {
    return false;
  }
  if (slo == "hp") {
    out->slo = common::Priority::kHigh;
  } else if (slo == "lp") {
    out->slo = common::Priority::kLow;
  } else {
    return false;
  }
  return parse_real(arg.substr(p2 + 1), positive, &out->weight);
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  workload::TraceGenConfig config;
  std::vector<workload::TraceMixEntry> mix;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (arg == "--out") {
      out_path = value();
    } else if (arg == "--duration-s") {
      config.duration_s = real_arg(arg, value(), "seconds > 0, at most 2^53 us",
                                   trace_duration);
    } else if (arg == "--rate") {
      config.mean_rate_jps = real_arg(arg, value(), "a rate > 0", positive);
    } else if (arg == "--diurnal-amp") {
      config.diurnal_amplitude =
          real_arg(arg, value(), "an amplitude in [0, 1)", unit_interval);
    } else if (arg == "--diurnal-period-s") {
      config.diurnal_period_s =
          real_arg(arg, value(), "a period > 0", positive);
    } else if (arg == "--diurnal-phase") {
      config.diurnal_phase =
          real_arg(arg, value(), "a finite number", unbounded);
    } else if (arg == "--seed") {
      const char* text = value();
      require(parse_whole(text, &config.seed), arg, "an unsigned integer",
              text);
    } else if (arg == "--flash") {
      const char* text = value();
      workload::FlashCrowd f;
      require(parse_flash(text, &f), arg,
              "START:DURATION:FACTOR (finite, FACTOR > 0)", text);
      config.flashes.push_back(f);
    } else if (arg == "--mix") {
      const char* text = value();
      workload::TraceMixEntry e;
      require(parse_mix(text, &e), arg, "MODEL:SLO:WEIGHT (WEIGHT > 0)",
              text);
      mix.push_back(e);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      usage(argv[0]);
      return 2;
    }
  }

  if (mix.empty()) mix = workload::trace_mix(workload::mixed_taskset());

  const workload::Trace trace = workload::generate_trace(mix, config);
  if (out_path.empty()) {
    workload::write_trace_csv(std::cout, trace);
  } else {
    std::string error;
    if (!workload::save_trace_csv(out_path, trace, &error)) {
      std::fprintf(stderr, "write failed: %s\n", error.c_str());
      return 1;
    }
  }
  std::fprintf(stderr, "%zu rows, %.1f s, seed %llu\n", trace.rows.size(),
               config.duration_s,
               static_cast<unsigned long long>(config.seed));
  return 0;
}
