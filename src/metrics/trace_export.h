// Chrome-trace (about://tracing / Perfetto) export of scheduler activity.
//
// Produces the JSON array format: one complete event ("ph":"X") per stage
// execution, grouped by lane, so a run can be inspected visually — which
// queue starved, where migrations landed, how staging interleaves HP and LP
// stages. Each span's args carry the task's class and whether the stage
// finished past its Eq. 8 virtual deadline.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "metrics/collector.h"
#include "metrics/eventlog.h"
#include "metrics/timeseries.h"

namespace daris::metrics {

struct TraceSpan {
  std::string name;      // e.g. "task3.stage1"
  int group = 0;         // pid lane (device id, or -1 on a single GPU)
  int lane = 0;          // tid lane (task id, or context id per device)
  Time begin = 0;
  Duration duration = 0;
  Priority priority = Priority::kHigh;
  bool missed = false;   // the stage finished past its virtual deadline
};

/// Collects spans during a run; the scheduler-facing side is just a vector.
class TraceRecorder {
 public:
  void add(TraceSpan span) { spans_.push_back(std::move(span)); }
  const std::vector<TraceSpan>& spans() const { return spans_; }
  bool empty() const { return spans_.empty(); }
  std::size_t size() const { return spans_.size(); }

  /// Builds stage spans from a stage trace, one lane per task (pid -1).
  void add_stage_events(const std::vector<StageEvent>& stages);

  /// Cluster variant: groups stage spans by the executing *device* (pid =
  /// GPU id, tid = context id), so spans share lanes with the per-GPU
  /// counter tracks and instant events of the unified export below.
  void add_stage_events_by_gpu(const std::vector<StageEvent>& stages);

 private:
  std::vector<TraceSpan> spans_;
};

/// Serialises spans to the Chrome trace-event JSON array format.
/// Timestamps are microseconds as the format requires.
std::string to_chrome_trace_json(const std::vector<TraceSpan>& spans);

/// Unified export: complete events ("ph":"X") from `spans`, counter tracks
/// ("ph":"C") from the sampler, and instant events ("ph":"i") from the
/// event log, on shared per-GPU lanes (pid = device id; -1 = fleet lane).
/// One trace file then shows stages, utilisation curves, and fault markers
/// together in Perfetto. Null `series`/`log` sections are omitted; with
/// both null the output is byte-identical to the single-argument overload.
std::string to_chrome_trace_json(const std::vector<TraceSpan>& spans,
                                 const TimeSeries* series,
                                 const EventLog* log);

}  // namespace daris::metrics
