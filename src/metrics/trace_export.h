// Chrome-trace (about://tracing / Perfetto) export of scheduler activity.
//
// Produces the JSON array format: one complete event ("ph":"X") per stage
// execution, rendered straight from the collector's StageEvent trace and
// grouped by lane, so a run can be inspected visually — which queue
// starved, where migrations landed, how staging interleaves HP and LP
// stages. Each span's args carry the task's class and whether the stage
// finished past its Eq. 8 virtual deadline.
#pragma once

#include <string>
#include <vector>

#include "metrics/collector.h"
#include "metrics/eventlog.h"
#include "metrics/timeseries.h"

namespace daris::metrics {

/// Serialises a stage trace to the Chrome trace-event JSON array format:
/// one complete event ("ph":"X") per stage, named "task<i>.stage<j>" and
/// backdated by its measured execution time. Lanes: pid is the stage's
/// device (-1 on a single GPU); tid is the task id on a single GPU and the
/// context on a fleet device, so fleet spans share lanes with the per-GPU
/// counter tracks and instant events below.
///
/// Optional sections follow the spans: counter tracks ("ph":"C") from the
/// sampler and instant events ("ph":"i") from the event log, on the same
/// per-GPU pid lanes (-1 = fleet lane). One trace file then shows stages,
/// utilisation curves, and fault markers together in Perfetto. Null
/// `series`/`log` sections are omitted.
///
/// Every "ts" and "dur" is in microseconds with three decimals: the exact
/// simulated nanosecond, never rounded or in exponent form.
std::string to_chrome_trace_json(const std::vector<StageEvent>& stages,
                                 const TimeSeries* series = nullptr,
                                 const EventLog* log = nullptr);

}  // namespace daris::metrics
