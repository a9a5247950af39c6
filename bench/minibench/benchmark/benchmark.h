// Minimal, release-built drop-in for the subset of google-benchmark used by
// the micro_* drivers.
//
// Why this exists: the repo's perf trajectory (BENCH_*.json) is gated in CI
// against absolute items/s numbers, and the distro's libbenchmark is a
// debug build (its own JSON says library_build_type: "debug" and it prints
// "***WARNING*** Library was built as DEBUG"), which taints every recorded
// baseline. Rather than depend on a rebuilt third-party library the build
// environment cannot fetch, the harness below is compiled with the same
// flags as the code under test, so `library_build_type` in the JSON context
// truthfully reports the build flavour of everything on the timed path.
//
// Implemented surface (exactly what bench/micro_*.cpp use):
//   - BENCHMARK(fn)->Arg(a)->Args({a,b})->Unit(benchmark::kMillisecond)
//     ->UseRealTime()
//   - State: range-for iteration protocol, range(i), iterations(),
//     SetItemsProcessed(), counters["name"] = value
//   - DoNotOptimize()
//   - Initialize / ReportUnrecognizedArguments / RunSpecifiedBenchmarks /
//     Shutdown
//   - Flags: --benchmark_out=<path>, --benchmark_out_format=json,
//     --benchmark_min_time=<secs>, --benchmark_filter=<substring>
//
// Measurement protocol mirrors google-benchmark: each benchmark instance is
// re-run with a growing iteration count until wall time reaches min_time
// (default 0.5 s); the timer covers only the `for (auto _ : state)` range;
// items_per_second divides by CPU time, matching the upstream definition the
// committed baselines and the CI regression gate consume — or, for a
// benchmark marked UseRealTime() (as upstream: one whose work runs on
// threads of its own, where process CPU time sums every thread), by wall
// time, with "/real_time" appended to its name as upstream does.
#pragma once

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace benchmark {

enum TimeUnit { kNanosecond, kMicrosecond, kMillisecond, kSecond };

inline const char* time_unit_name(TimeUnit u) {
  switch (u) {
    case kNanosecond: return "ns";
    case kMicrosecond: return "us";
    case kMillisecond: return "ms";
    case kSecond: return "s";
  }
  return "ns";
}

inline double time_unit_per_second(TimeUnit u) {
  switch (u) {
    case kNanosecond: return 1e9;
    case kMicrosecond: return 1e6;
    case kMillisecond: return 1e3;
    case kSecond: return 1.0;
  }
  return 1e9;
}

template <class Tp>
inline void DoNotOptimize(Tp& value) {
  asm volatile("" : "+r,m"(value) : : "memory");
}
template <class Tp>
inline void DoNotOptimize(Tp&& value) {
  asm volatile("" : "+r,m"(value) : : "memory");
}

class State;
using Function = void (*)(State&);

namespace internal {

inline double wall_now() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

inline double cpu_now() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

struct Instance;  // one (benchmark, args) pair

struct Family {
  std::string name;
  Function fn = nullptr;
  TimeUnit unit = kNanosecond;
  bool use_real_time = false;  // items/s from wall time
  std::vector<std::vector<std::int64_t>> arg_sets;  // empty -> one no-arg run
};

inline std::vector<std::unique_ptr<Family>>& families() {
  static std::vector<std::unique_ptr<Family>> f;
  return f;
}

struct Flags {
  std::string out_path;
  std::string out_format = "json";
  std::string filter;
  double min_time = 0.5;
};

inline Flags& flags() {
  static Flags f;
  return f;
}

/// Extra key/value pairs for the JSON `context` block (AddCustomContext).
inline std::vector<std::pair<std::string, std::string>>& custom_context() {
  static std::vector<std::pair<std::string, std::string>> ctx;
  return ctx;
}

}  // namespace internal

/// Registration handle returned by BENCHMARK(); supports the chained
/// configuration calls used by the drivers.
class Benchmark {
 public:
  explicit Benchmark(internal::Family* family) : family_(family) {}
  Benchmark* Arg(std::int64_t a) {
    family_->arg_sets.push_back({a});
    return this;
  }
  Benchmark* Args(const std::vector<std::int64_t>& args) {
    family_->arg_sets.push_back(args);
    return this;
  }
  Benchmark* Unit(TimeUnit u) {
    family_->unit = u;
    return this;
  }
  Benchmark* UseRealTime() {
    family_->use_real_time = true;
    return this;
  }

 private:
  internal::Family* family_;
};

inline Benchmark* RegisterBenchmark(const char* name, Function fn) {
  auto family = std::make_unique<internal::Family>();
  family->name = name;
  family->fn = fn;
  internal::families().push_back(std::move(family));
  // The Benchmark handle is only used for chained setup calls from static
  // initializers; it owns nothing.
  static std::vector<std::unique_ptr<Benchmark>> handles;
  handles.push_back(std::make_unique<Benchmark>(internal::families().back().get()));
  return handles.back().get();
}

class State {
 public:
  State(const std::vector<std::int64_t>& args, std::size_t iters)
      : args_(args), max_iterations_(iters) {}

  struct StateIterator {
    explicit StateIterator(State* parent, std::size_t count)
        : parent_(parent), remaining_(count) {}
    // Non-trivial destructor so `for (auto _ : state)` does not trip
    // -Wunused-but-set-variable on the discarded loop variable.
    struct Value {
      ~Value() {}  // NOLINT(modernize-use-equals-default)
    };
    Value operator*() const { return Value{}; }
    StateIterator& operator++() {
      --remaining_;
      return *this;
    }
    bool operator!=(const StateIterator&) {
      if (remaining_ != 0) return true;
      parent_->FinishKeepRunning();
      return false;
    }
    State* parent_;
    std::size_t remaining_;
  };

  StateIterator begin() {
    StartKeepRunning();
    return StateIterator(this, max_iterations_);
  }
  StateIterator end() { return StateIterator(this, 0); }

  std::int64_t range(std::size_t i = 0) const { return args_.at(i); }
  std::size_t range_count() const { return args_.size(); }
  std::size_t iterations() const { return max_iterations_; }
  void SetItemsProcessed(std::int64_t items) { items_processed_ = items; }

  std::map<std::string, double> counters;

  // Filled by the runner after the timed region.
  double wall_seconds() const { return wall_elapsed_; }
  double cpu_seconds() const { return cpu_elapsed_; }
  std::int64_t items_processed() const { return items_processed_; }

 private:
  void StartKeepRunning() {
    wall_start_ = internal::wall_now();
    cpu_start_ = internal::cpu_now();
  }
  void FinishKeepRunning() {
    wall_elapsed_ = internal::wall_now() - wall_start_;
    cpu_elapsed_ = internal::cpu_now() - cpu_start_;
  }

  std::vector<std::int64_t> args_;
  std::size_t max_iterations_ = 0;
  std::int64_t items_processed_ = 0;
  double wall_start_ = 0.0, cpu_start_ = 0.0;
  double wall_elapsed_ = 0.0, cpu_elapsed_ = 0.0;
};

namespace internal {

struct Result {
  std::string name;
  std::size_t family_index = 0;
  std::size_t instance_index = 0;
  std::size_t iterations = 0;
  double real_time = 0.0;  // per iteration, in `unit`
  double cpu_time = 0.0;   // per iteration, in `unit`
  TimeUnit unit = kNanosecond;
  bool has_items = false;
  double items_per_second = 0.0;
  std::map<std::string, double> counters;
};

inline std::string instance_name(const Family& family,
                                 const std::vector<std::int64_t>& args) {
  std::string name = family.name;
  for (const auto a : args) name += "/" + std::to_string(a);
  if (family.use_real_time) name += "/real_time";
  return name;
}

/// One adaptive-iteration measurement of a single (benchmark, args) pair.
inline Result run_instance(const Family& family, std::size_t family_index,
                           std::size_t instance_index,
                           const std::vector<std::int64_t>& args) {
  const double min_time = flags().min_time;
  std::size_t iters = 1;
  State state(args, iters);
  for (;;) {
    state = State(args, iters);
    family.fn(state);
    const double elapsed = state.wall_seconds();
    // Accept once past min_time (google-benchmark's significance rule,
    // minus its 10%-overhead refinements which need a calibrated clock).
    if (elapsed >= min_time || iters >= (1u << 30)) break;
    double multiplier = 2.0;
    if (elapsed > 1e-9) {
      multiplier = std::min(10.0, std::max(1.1, min_time * 1.4 / elapsed));
    } else {
      multiplier = 10.0;
    }
    iters = static_cast<std::size_t>(static_cast<double>(iters) * multiplier) + 1;
  }

  Result r;
  r.name = instance_name(family, args);
  r.family_index = family_index;
  r.instance_index = instance_index;
  r.iterations = state.iterations();
  r.unit = family.unit;
  const double per_iter_wall =
      state.wall_seconds() / static_cast<double>(state.iterations());
  const double per_iter_cpu =
      state.cpu_seconds() / static_cast<double>(state.iterations());
  r.real_time = per_iter_wall * time_unit_per_second(family.unit);
  r.cpu_time = per_iter_cpu * time_unit_per_second(family.unit);
  if (state.items_processed() > 0) {
    r.has_items = true;
    r.items_per_second =
        static_cast<double>(state.items_processed()) /
        std::max(1e-12, family.use_real_time ? state.wall_seconds()
                                              : state.cpu_seconds());
  }
  r.counters = state.counters;
  return r;
}

inline void print_console(const std::vector<Result>& results) {
  std::size_t width = 38;
  for (const auto& r : results) width = std::max(width, r.name.size() + 2);
  std::printf("%-*s %13s %13s %10s\n", static_cast<int>(width), "Benchmark",
              "Time", "CPU", "Iterations");
  for (std::size_t i = 0; i < width + 40; ++i) std::printf("-");
  std::printf("\n");
  for (const auto& r : results) {
    std::printf("%-*s %10.3g %s %10.3g %s %10zu", static_cast<int>(width),
                r.name.c_str(), r.real_time, time_unit_name(r.unit), r.cpu_time,
                time_unit_name(r.unit), r.iterations);
    if (r.has_items) {
      std::printf(" items_per_second=%.4g/s", r.items_per_second);
    }
    for (const auto& [k, v] : r.counters) std::printf(" %s=%.6g", k.c_str(), v);
    std::printf("\n");
  }
}

inline void write_json(const std::vector<Result>& results, const char* argv0) {
  if (flags().out_path.empty()) return;
  std::FILE* f = std::fopen(flags().out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "minibench: cannot open %s\n",
                 flags().out_path.c_str());
    return;
  }
  char date[64] = "";
  const std::time_t now = std::time(nullptr);
  std::tm tm_utc;
  gmtime_r(&now, &tm_utc);
  std::strftime(date, sizeof(date), "%Y-%m-%dT%H:%M:%S+00:00", &tm_utc);
  char host[256] = "unknown";
  gethostname(host, sizeof(host) - 1);
#ifdef NDEBUG
  const char* build_type = "release";
#else
  const char* build_type = "debug";
#endif
  std::fprintf(f,
               "{\n  \"context\": {\n"
               "    \"date\": \"%s\",\n"
               "    \"host_name\": \"%s\",\n"
               "    \"executable\": \"%s\",\n"
               "    \"num_cpus\": %ld,\n"
               "    \"harness\": \"minibench\",\n"
               "    \"library_build_type\": \"%s\"",
               date, host, argv0, sysconf(_SC_NPROCESSORS_ONLN), build_type);
  for (const auto& [key, value] : custom_context()) {
    std::fprintf(f, ",\n    \"%s\": \"%s\"", key.c_str(), value.c_str());
  }
  std::fprintf(f, "\n  },\n  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::fprintf(f,
                 "    {\n"
                 "      \"name\": \"%s\",\n"
                 "      \"family_index\": %zu,\n"
                 "      \"per_family_instance_index\": %zu,\n"
                 "      \"run_name\": \"%s\",\n"
                 "      \"run_type\": \"iteration\",\n"
                 "      \"repetitions\": 1,\n"
                 "      \"repetition_index\": 0,\n"
                 "      \"threads\": 1,\n"
                 "      \"iterations\": %zu,\n"
                 "      \"real_time\": %.17g,\n"
                 "      \"cpu_time\": %.17g,\n"
                 "      \"time_unit\": \"%s\"",
                 r.name.c_str(), r.family_index, r.instance_index,
                 r.name.c_str(), r.iterations, r.real_time, r.cpu_time,
                 time_unit_name(r.unit));
    if (r.has_items) {
      std::fprintf(f, ",\n      \"items_per_second\": %.17g",
                   r.items_per_second);
    }
    for (const auto& [k, v] : r.counters) {
      std::fprintf(f, ",\n      \"%s\": %.17g", k.c_str(), v);
    }
    std::fprintf(f, "\n    }%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

inline const char*& stored_argv0() {
  static const char* argv0 = "minibench";
  return argv0;
}

}  // namespace internal

/// Adds a key/value pair to the JSON report's `context` block (same API and
/// placement as google-benchmark). Call before RunSpecifiedBenchmarks().
inline void AddCustomContext(const std::string& key,
                             const std::string& value) {
  internal::custom_context().emplace_back(key, value);
}

inline void Initialize(int* argc, char** argv) {
  if (*argc > 0) internal::stored_argv0() = argv[0];
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const char* arg = argv[i];
    auto match = [arg](const char* prefix, const char** value) {
      const std::size_t n = std::strlen(prefix);
      if (std::strncmp(arg, prefix, n) != 0) return false;
      *value = arg + n;
      return true;
    };
    const char* value = nullptr;
    if (match("--benchmark_out_format=", &value)) {
      internal::flags().out_format = value;
    } else if (match("--benchmark_out=", &value)) {
      internal::flags().out_path = value;
    } else if (match("--benchmark_min_time=", &value)) {
      internal::flags().min_time = std::atof(value);
    } else if (match("--benchmark_filter=", &value)) {
      internal::flags().filter = value;
    } else {
      argv[out++] = argv[i];  // unrecognized: keep for the caller to report
    }
  }
  *argc = out;
}

inline bool ReportUnrecognizedArguments(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::fprintf(stderr, "minibench: unrecognized argument: %s\n", argv[i]);
  }
  return argc > 1;
}

inline std::size_t RunSpecifiedBenchmarks() {
  if (internal::flags().out_format != "json" &&
      !internal::flags().out_path.empty()) {
    std::fprintf(stderr, "minibench: only json output is supported\n");
  }
  std::vector<internal::Result> results;
  std::size_t family_index = 0;
  for (const auto& family : internal::families()) {
    const auto arg_sets = family->arg_sets.empty()
                              ? std::vector<std::vector<std::int64_t>>{{}}
                              : family->arg_sets;
    std::size_t instance_index = 0;
    for (const auto& args : arg_sets) {
      const std::string name = internal::instance_name(*family, args);
      if (!internal::flags().filter.empty() &&
          name.find(internal::flags().filter) == std::string::npos) {
        continue;
      }
      results.push_back(internal::run_instance(*family, family_index,
                                               instance_index, args));
      ++instance_index;
    }
    ++family_index;
  }
  internal::print_console(results);
  internal::write_json(results, internal::stored_argv0());
  return results.size();
}

inline void Shutdown() {}

}  // namespace benchmark

#define MINIBENCH_CONCAT2(a, b) a##b
#define MINIBENCH_CONCAT(a, b) MINIBENCH_CONCAT2(a, b)
#define BENCHMARK(fn)                                        \
  static ::benchmark::Benchmark* MINIBENCH_CONCAT(           \
      minibench_registration_, __LINE__) =                   \
      ::benchmark::RegisterBenchmark(#fn, fn)
