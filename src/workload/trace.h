// Production-trace replay and generation.
//
// A Trace is a time-sorted list of inference requests — arrival time in
// microseconds since trace start, model kind, and SLO class (hp = strict
// deadline, lp = best-effort) — the shape production serving logs reduce to.
// TraceDriver replays one through the ReleaseFn sink, so the same trace
// drives a single rt::Scheduler or a cluster::Router unchanged; rows are
// matched to registered tasks round-robin within their (model, SLO) class.
// TraceGenerator emits synthetic traces with diurnal and flash-crowd
// modulation via Poisson thinning, bit-reproducible from a seed.
//
// CSV format (docs/SCENARIOS.md): `arrival_us,model,slo` per row, header
// optional, '#' comments and blank lines skipped, models by zoo name
// (case-insensitive), slo in {hp, lp}. Parse errors carry 1-based line
// numbers. The scenario matrix generates its traces in code; the CSV path
// replays a user's own export (examples/trace_gen.cpp writes one).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/priority.h"
#include "common/time.h"
#include "dnn/zoo.h"
#include "sim/simulator.h"
#include "workload/driver.h"
#include "workload/taskset.h"

namespace daris::workload {

/// Largest arrival time a trace row may carry, in microseconds (2^53, about
/// 285 years). Up to it the value converts to a double exactly and its
/// nanosecond time (common::from_us) fits common::Time, which overflows at
/// about 9.22e15 us.
inline constexpr std::uint64_t kMaxArrivalUs = std::uint64_t{1} << 53;

/// One inference request of a trace.
struct TraceRow {
  std::uint64_t arrival_us = 0;  // microseconds since trace start
  dnn::ModelKind model = dnn::ModelKind::kResNet18;
  common::Priority slo = common::Priority::kHigh;
};

struct Trace {
  std::vector<TraceRow> rows;  // ascending arrival_us (parser enforces)

  common::Time duration() const {
    return rows.empty()
               ? 0
               : common::from_us(static_cast<double>(rows.back().arrival_us));
  }
};

/// Parses `arrival_us,model,slo` CSV. Returns false on the first malformed,
/// time-regressing or out-of-range (arrival_us > kMaxArrivalUs) row with
/// "line N: why" in *error (untouched on success). The optional header row
/// `arrival_us,model,slo` is skipped.
bool parse_trace_csv(std::istream& in, Trace* out, std::string* error);
bool load_trace_csv(const std::string& path, Trace* out, std::string* error);

/// Writes the CSV form (with header) that parse_trace_csv reads back.
void write_trace_csv(std::ostream& out, const Trace& trace);
bool save_trace_csv(const std::string& path, const Trace& trace,
                    std::string* error);

/// Replays a Trace through the ReleaseFn sink against a task set.
///
/// Rows map to task indices round-robin within their (model, SLO) class in
/// ascending task-id order, so a class served by several registered tasks
/// spreads its requests across them deterministically; rows of a class no
/// task serves are counted in unmatched() and skipped. A single release
/// event walks the row cursor and is re-armed in place per row (ties fire
/// in row order), so steady-state replay allocates nothing.
class TraceDriver {
 public:
  /// `trace` rows must be time-sorted (as the parser guarantees). Rows past
  /// `horizon` are not released.
  TraceDriver(sim::Simulator& sim, const TaskSetSpec& taskset, Trace trace,
              ReleaseFn release, common::Time horizon);

  /// Arms the first row's release.
  void start();

  /// Rows released so far.
  std::uint64_t arrivals() const { return arrivals_; }

  /// Rows skipped because no registered task serves their class.
  std::uint64_t unmatched() const { return unmatched_; }

 private:
  /// Dense class index; kPriorityCount (2) SLO classes per model kind.
  static int class_of(dnn::ModelKind model, common::Priority slo) {
    return static_cast<int>(model) * 2 + static_cast<int>(slo);
  }

  void arm(std::size_t row);
  void fire();

  sim::Simulator& sim_;
  Trace trace_;
  ReleaseFn release_;
  common::Time horizon_;
  std::vector<std::vector<int>> class_tasks_;  // task ids per class, asc
  std::vector<std::size_t> class_cursor_;      // round-robin position
  std::size_t next_row_ = 0;
  sim::EventHandle release_event_;  // re-armed in place per row
  std::uint64_t arrivals_ = 0;
  std::uint64_t unmatched_ = 0;
};

/// Share of one (model, SLO) class in a generated trace.
struct TraceMixEntry {
  dnn::ModelKind model = dnn::ModelKind::kResNet18;
  common::Priority slo = common::Priority::kHigh;
  double weight = 1.0;  // relative; normalised by the generator
};

/// The task set's demand mix: one entry per (model, SLO) class present,
/// weighted by the class's aggregate rate (sum of 1/T), in class order.
std::vector<TraceMixEntry> trace_mix(const TaskSetSpec& taskset);

/// A flash crowd: the arrival rate is multiplied by `factor` inside
/// [start_s, start_s + duration_s).
struct FlashCrowd {
  double start_s = 0.0;
  double duration_s = 0.0;
  double factor = 1.0;
};

struct TraceGenConfig {
  double duration_s = 30.0;
  /// Long-run base rate before modulation, requests per second.
  double mean_rate_jps = 1000.0;
  /// Diurnal sinusoid: rate(t) = mean * (1 + A * sin(2*pi*t/P + phase)).
  /// A in [0, 1); P defaults to a day but scenario traces compress it so a
  /// "day" fits a simulated half-minute.
  double diurnal_amplitude = 0.0;
  double diurnal_period_s = 86400.0;
  double diurnal_phase = 0.0;  // radians
  std::vector<FlashCrowd> flashes;
  std::uint64_t seed = 42;
};

/// Instantaneous rate of the configured process at `t_s` (exposed so tests
/// can integrate the intended rate against realised counts).
double trace_rate_at(const TraceGenConfig& config, double t_s);

/// Inhomogeneous-Poisson trace via thinning: candidate arrivals at the
/// envelope rate max_t rate(t), each kept with probability rate(t)/envelope.
/// Kept arrivals draw their class from `mix` (cumulative weights). Two
/// calls with equal (mix, config) produce identical traces.
Trace generate_trace(const std::vector<TraceMixEntry>& mix,
                     const TraceGenConfig& config);

}  // namespace daris::workload
