// Trace tooling (ROADMAP): folds a StageEvent stream into a migration /
// starvation summary so regressions show up in bench output and CI without
// loading the Chrome trace into Perfetto.
//
// A "stall" is the gap between a stage's measured execution time and the
// MRET prediction in force when it was dispatched — sustained large stalls
// mean the context was starved of SMs (oversubscription, bandwidth, or a
// mis-sized partition). Migrations are detected from consecutive stage
// events of the same task landing on a different context or GPU.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "metrics/collector.h"

namespace daris::metrics {

struct TraceReport {
  std::uint64_t stages = 0;            // stage events folded
  std::uint64_t tasks = 0;             // distinct tasks seen
  std::uint64_t context_switches = 0;  // same GPU, different context
  std::uint64_t gpu_migrations = 0;    // different GPU (cluster runs)
  std::uint64_t starved_stages = 0;    // execution >= kStarvationFactor x MRET

  double worst_stall_us = 0.0;  // max over all stages of (execution - MRET)
  int worst_stall_task = -1;
  std::size_t worst_stall_stage = 0;

  /// Worst stall per task, indexed by task id (0 for tasks never stalled).
  std::vector<double> worst_stall_per_task_us;

  /// Human-readable multi-line summary (bench / CI output).
  std::string to_string() const;
};

/// A stage counts as starved when its measured execution time is at least
/// this many times its MRET prediction.
inline constexpr double kStarvationFactor = 2.0;

/// Folds a stage-event stream (as recorded by Collector::stage_trace) into a
/// TraceReport.
TraceReport trace_report(const std::vector<StageEvent>& stages);

}  // namespace daris::metrics
