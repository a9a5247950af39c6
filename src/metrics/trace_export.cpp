#include "metrics/trace_export.h"

#include <cstdio>
#include <sstream>

namespace daris::metrics {

namespace {
std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (u < 0x20) {  // control characters are invalid raw in JSON
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", u);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

/// One stage execution on (group, lane): backdated by its measured
/// execution time, with the task's class and the virtual-deadline miss.
TraceSpan stage_span(const StageEvent& s, int group, int lane) {
  TraceSpan span;
  span.name =
      "task" + std::to_string(s.task_id) + ".stage" + std::to_string(s.stage);
  span.group = group;
  span.lane = lane;
  const auto dur = static_cast<Duration>(s.execution_us * common::kMicrosecond);
  span.begin = s.when - dur;
  span.duration = dur;
  span.priority = s.priority;
  span.missed = s.missed;
  return span;
}
}  // namespace

void TraceRecorder::add_stage_events(const std::vector<StageEvent>& stages) {
  for (const auto& s : stages) add(stage_span(s, -1, s.task_id));
}

void TraceRecorder::add_stage_events_by_gpu(
    const std::vector<StageEvent>& stages) {
  for (const auto& s : stages) add(stage_span(s, s.gpu, s.context));
}

std::string to_chrome_trace_json(const std::vector<TraceSpan>& spans) {
  return to_chrome_trace_json(spans, nullptr, nullptr);
}

std::string to_chrome_trace_json(const std::vector<TraceSpan>& spans,
                                 const TimeSeries* series,
                                 const EventLog* log) {
  std::ostringstream out;
  out << "[";
  bool first = true;
  for (const auto& s : spans) {
    if (!first) out << ",";
    first = false;
    out << "\n  {\"name\": \"" << escape(s.name) << "\","
        << " \"ph\": \"X\","
        << " \"pid\": " << s.group << ","
        << " \"tid\": " << s.lane << ","
        << " \"ts\": " << common::to_us(s.begin) << ","
        << " \"dur\": " << common::to_us(s.duration) << ","
        << " \"args\": {\"priority\": \""
        << common::priority_name(s.priority) << "\", \"missed\": "
        << (s.missed ? "true" : "false") << "}}";
  }
  if (series != nullptr) {
    // One counter track per sampler track, on the device's pid lane. The
    // counter name doubles as the series key Perfetto plots.
    for (int t = 0; t < series->track_count(); ++t) {
      const std::string name = escape(series->track_name(t));
      for (std::size_t i = 0; i < series->size(); ++i) {
        if (!first) out << ",";
        first = false;
        out << "\n  {\"name\": \"" << name << "\","
            << " \"ph\": \"C\","
            << " \"pid\": " << series->track_device(t) << ","
            << " \"ts\": " << common::to_us(series->stamp(i)) << ","
            << " \"args\": {\"value\": " << series->value(t, i) << "}}";
      }
    }
  }
  if (log != nullptr) {
    for (const FleetEvent& ev : log->events()) {
      if (!first) out << ",";
      first = false;
      // "i" instants: scope "p" draws a device-wide marker line (faults,
      // drains); routing-level records mark just their own lane row.
      const bool device_wide = ev.kind == EventKind::kFault ||
                               ev.kind == EventKind::kDrain ||
                               ev.kind == EventKind::kRehome;
      out << "\n  {\"name\": \"" << event_kind_name(ev.kind) << ":"
          << event_cause_name(ev.cause) << "\","
          << " \"ph\": \"i\","
          << " \"s\": \"" << (device_wide ? 'p' : 't') << "\","
          << " \"pid\": " << ev.gpu << ","
          << " \"tid\": " << ev.task << ","
          << " \"ts\": " << common::to_us(ev.when) << ","
          << " \"args\": {\"peer\": " << ev.peer << ", \"value\": "
          << ev.value << "}}";
    }
  }
  out << "\n]\n";
  return out.str();
}

}  // namespace daris::metrics
