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

/// A simulated time as microseconds with three decimals: the exact
/// nanosecond, never in exponent form (the ostream default rounds to six
/// significant digits, 10-100 us past one second).
struct Us {
  Time t;
};
std::ostream& operator<<(std::ostream& out, Us us) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", common::to_us(us.t));
  return out << buf;
}
}  // namespace

std::string to_chrome_trace_json(const std::vector<StageEvent>& stages,
                                 const TimeSeries* series,
                                 const EventLog* log) {
  std::ostringstream out;
  out << "[";
  bool first = true;
  for (const StageEvent& s : stages) {
    if (!first) out << ",";
    first = false;
    const auto dur =
        static_cast<Duration>(s.execution_us * common::kMicrosecond);
    out << "\n  {\"name\": \"task" << s.task_id << ".stage" << s.stage
        << "\","
        << " \"ph\": \"X\","
        << " \"pid\": " << s.gpu << ","
        << " \"tid\": " << (s.gpu < 0 ? s.task_id : s.context) << ","
        << " \"ts\": " << Us{s.when - dur} << ","
        << " \"dur\": " << Us{dur} << ","
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
            << " \"ts\": " << Us{series->stamp(i)} << ","
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
          << " \"ts\": " << Us{ev.when} << ","
          << " \"args\": {\"peer\": " << ev.peer << ", \"value\": "
          << ev.value << "}}";
    }
  }
  out << "\n]\n";
  return out.str();
}

}  // namespace daris::metrics
