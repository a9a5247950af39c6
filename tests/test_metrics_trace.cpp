#include <gtest/gtest.h>

#include <cctype>
#include <string>

#include "metrics/eventlog.h"
#include "metrics/timeseries.h"
#include "metrics/trace_export.h"
#include "metrics/trace_report.h"

namespace daris::metrics {
namespace {

using common::from_ms;

TEST(TraceExport, EmptyIsValidJsonArray) {
  EXPECT_EQ(to_chrome_trace_json({}), "[\n]\n");
}

TEST(TraceExport, SpanFieldsSerialised) {
  TraceSpan s;
  s.name = "task1.stage0";
  s.group = 2;
  s.lane = 1;
  s.begin = from_ms(1.0);
  s.duration = from_ms(0.5);
  s.priority = common::Priority::kLow;
  s.missed = true;
  const std::string json = to_chrome_trace_json({s});
  EXPECT_NE(json.find("\"name\": \"task1.stage0\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"tid\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"ts\": 1000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\": 500"), std::string::npos);
  EXPECT_NE(json.find("\"priority\": \"LP\""), std::string::npos);
  EXPECT_NE(json.find("\"missed\": true"), std::string::npos);
}

TEST(TraceExport, EscapesQuotesInNames) {
  TraceSpan s;
  s.name = "we\"ird\\name";
  const std::string json = to_chrome_trace_json({s});
  EXPECT_NE(json.find("we\\\"ird\\\\name"), std::string::npos);
}

TEST(TraceExport, EscapesControlCharacters) {
  TraceSpan s;
  s.name = std::string("line\nbreak\ttab\x01raw", 18);
  const std::string json = to_chrome_trace_json({s});
  EXPECT_NE(json.find("line\\u000abreak\\u0009tab\\u0001raw"),
            std::string::npos);
  EXPECT_EQ(json.find("line\nbreak"), std::string::npos)
      << "no raw control characters may survive inside the name string";
}

TEST(TraceExport, NullSectionsMatchSpanOnlyOverload) {
  TraceSpan s;
  s.name = "task0.stage0";
  s.begin = from_ms(1.0);
  s.duration = from_ms(2.0);
  const std::vector<TraceSpan> spans = {s};
  EXPECT_EQ(to_chrome_trace_json(spans),
            to_chrome_trace_json(spans, nullptr, nullptr));
}

TEST(TraceExport, UnifiedGoldenOutput) {
  TraceSpan s;
  s.name = "a";
  TimeSeries series;
  series.add_track("gpu/util", 0, [] { return 1.5; });
  series.sample_now(common::from_us(5.0));
  EventLog log;
  log.append(common::from_us(7.0), EventKind::kFault, EventCause::kFailStop,
             /*gpu=*/1, /*peer=*/-1, /*task=*/-1, /*value=*/2.0);
  const std::string json = to_chrome_trace_json({s}, &series, &log);
  EXPECT_EQ(json,
            "[\n"
            "  {\"name\": \"a\", \"ph\": \"X\", \"pid\": 0, \"tid\": 0,"
            " \"ts\": 0, \"dur\": 0,"
            " \"args\": {\"priority\": \"HP\", \"missed\": false}},\n"
            "  {\"name\": \"gpu/util\", \"ph\": \"C\", \"pid\": 0,"
            " \"ts\": 5, \"args\": {\"value\": 1.5}},\n"
            "  {\"name\": \"fault:fail-stop\", \"ph\": \"i\", \"s\": \"p\","
            " \"pid\": 1, \"tid\": -1, \"ts\": 7,"
            " \"args\": {\"peer\": -1, \"value\": 2}}\n"
            "]\n");
}

TEST(TraceExport, RoutingInstantsMarkOwnLaneOnly) {
  // Device-lifecycle instants (fault/drain/rehome) draw process-wide marker
  // lines (scope "p"); routing records stay on their own thread row ("t").
  EventLog log;
  log.append(0, EventKind::kAdmit, EventCause::kHomeAdmit, 0, -1, 3);
  log.append(0, EventKind::kDrain, EventCause::kScaleDown, 1);
  const std::string json = to_chrome_trace_json({}, nullptr, &log);
  EXPECT_NE(json.find("\"name\": \"admit:home-admit\", \"ph\": \"i\","
                      " \"s\": \"t\""),
            std::string::npos);
  EXPECT_NE(json.find("\"name\": \"drain:scale-down\", \"ph\": \"i\","
                      " \"s\": \"p\""),
            std::string::npos);
}

TEST(TraceExport, OrderingIsStable) {
  // Spans first, then counter samples grouped by track in registration
  // order, then instants in append order — and the whole export is a pure
  // function of its inputs (two calls are byte-identical).
  TraceSpan s;
  s.name = "span";
  TimeSeries series;
  series.add_track("first", 0, [] { return 1.0; });
  series.add_track("second", 1, [] { return 2.0; });
  series.sample_now(0);
  series.sample_now(common::from_us(10.0));
  EventLog log;
  log.append(common::from_us(3.0), EventKind::kReject, EventCause::kBacklog,
             0, -1, 7);
  const std::string json = to_chrome_trace_json({s}, &series, &log);
  EXPECT_EQ(json, to_chrome_trace_json({s}, &series, &log));
  const std::size_t span_pos = json.find("\"span\"");
  const std::size_t first_pos = json.find("\"first\"");
  const std::size_t second_pos = json.find("\"second\"");
  const std::size_t instant_pos = json.find("\"reject:backlog\"");
  ASSERT_NE(span_pos, std::string::npos);
  ASSERT_NE(first_pos, std::string::npos);
  ASSERT_NE(second_pos, std::string::npos);
  ASSERT_NE(instant_pos, std::string::npos);
  EXPECT_LT(span_pos, first_pos);
  EXPECT_LT(json.rfind("\"first\""), second_pos)
      << "all of track 0's samples precede track 1's";
  EXPECT_LT(second_pos, instant_pos);
}

// Minimal recursive-descent JSON syntax checker: enough grammar to certify
// the export parses (objects, arrays, strings with escapes, numbers,
// true/false/null). Returns false on any syntax error or trailing garbage.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}
  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') return ++pos_, true;
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') return ++pos_, true;
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') return ++pos_, true;
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') return ++pos_, true;
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c == '"') return ++pos_, true;
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char esc = s_[pos_];
        if (esc == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() ||
                std::isxdigit(static_cast<unsigned char>(s_[pos_])) == 0) {
              return false;
            }
          }
        } else if (std::string("\"\\/bfnrt").find(esc) == std::string::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (std::isdigit(static_cast<unsigned char>(peek())) != 0) ++pos_;
    if (peek() == '.') {
      ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek())) != 0) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek())) != 0) ++pos_;
    }
    return pos_ > start;
  }
  bool literal(const char* word) {
    const std::string w(word);
    if (s_.compare(pos_, w.size(), w) != 0) return false;
    pos_ += w.size();
    return true;
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
  }
  const std::string& s_;
  std::size_t pos_ = 0;
};

TEST(TraceExport, UnifiedExportParsesAsJson) {
  TraceSpan hostile;
  hostile.name = "we\"ird\\na\nme\x02";
  hostile.group = -1;
  hostile.lane = 3;
  hostile.begin = from_ms(0.25);
  hostile.duration = from_ms(1.75);
  hostile.missed = true;
  TimeSeries series;
  series.add_track("gpu/util", 0, [] { return 0.125; });
  series.add_track("fleet/backlog", -1, [] { return 42.0; });
  for (int i = 0; i < 5; ++i) {
    series.sample_now(common::from_us(100.0 * i));
  }
  EventLog log;
  log.append(common::from_us(50.0), EventKind::kMigrate, EventCause::kSpill,
             0, 1, 9);
  log.append(common::from_us(60.0), EventKind::kTransfer,
             EventCause::kColdModel, 1, -1, 9, 44.5);
  log.append(common::from_us(70.0), EventKind::kFault, EventCause::kStraggler,
             2, -1, -1, 0.5);
  const std::string json = to_chrome_trace_json({hostile}, &series, &log);
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  // And the sanity check that the checker rejects broken input.
  EXPECT_FALSE(JsonChecker("[{\"a\": }]").valid());
  EXPECT_FALSE(JsonChecker("[1, 2").valid());
  EXPECT_FALSE(JsonChecker(std::string("[\"a\nb\"]")).valid());
}

TEST(TraceRecorder, BuildsStageSpansBackdatedByExecution) {
  StageEvent s;
  s.task_id = 2;
  s.stage = 1;
  s.when = from_ms(5.0);
  s.execution_us = 1000.0;
  TraceRecorder rec;
  rec.add_stage_events({s});
  ASSERT_EQ(rec.size(), 1u);
  EXPECT_EQ(rec.spans()[0].name, "task2.stage1");
  EXPECT_EQ(rec.spans()[0].begin, from_ms(4.0));
  EXPECT_EQ(rec.spans()[0].duration, from_ms(1.0));
}

TEST(TraceRecorder, StageSpansCarryClassAndVirtualDeadlineMiss) {
  StageEvent late_lp;
  late_lp.task_id = 4;
  late_lp.priority = common::Priority::kLow;
  late_lp.missed = true;
  late_lp.context = 2;
  late_lp.gpu = 1;
  StageEvent on_time_hp = late_lp;
  on_time_hp.priority = common::Priority::kHigh;
  on_time_hp.missed = false;
  TraceRecorder rec;
  rec.add_stage_events({late_lp, on_time_hp});
  rec.add_stage_events_by_gpu({late_lp, on_time_hp});
  ASSERT_EQ(rec.size(), 4u);
  for (std::size_t i = 0; i < 4; i += 2) {
    EXPECT_EQ(rec.spans()[i].priority, common::Priority::kLow);
    EXPECT_TRUE(rec.spans()[i].missed);
    EXPECT_EQ(rec.spans()[i + 1].priority, common::Priority::kHigh);
    EXPECT_FALSE(rec.spans()[i + 1].missed);
  }
}

TEST(TraceRecorder, MultipleSpansCommaSeparated) {
  TraceRecorder rec;
  rec.add(TraceSpan{});
  rec.add(TraceSpan{});
  const std::string json = to_chrome_trace_json(rec.spans());
  // Two objects, one comma between them.
  std::size_t count = 0, pos = 0;
  while ((pos = json.find("\"ph\"", pos)) != std::string::npos) {
    ++count;
    ++pos;
  }
  EXPECT_EQ(count, 2u);
}

StageEvent stage_ev(int task, std::size_t stage, double exec_us,
                    double mret_us, int context, int gpu) {
  StageEvent s;
  s.task_id = task;
  s.stage = stage;
  s.execution_us = exec_us;
  s.mret_us = mret_us;
  s.context = context;
  s.gpu = gpu;
  return s;
}

TEST(TraceReport, EmptyStream) {
  const TraceReport r = trace_report({});
  EXPECT_EQ(r.stages, 0u);
  EXPECT_EQ(r.tasks, 0u);
  EXPECT_EQ(r.gpu_migrations, 0u);
  EXPECT_EQ(r.worst_stall_task, -1);
  EXPECT_FALSE(r.to_string().empty());
}

TEST(TraceReport, CountsMigrationsFromConsecutiveStages) {
  // Task 0 moves context (same GPU) then moves GPU; task 1 never moves.
  const std::vector<StageEvent> stream = {
      stage_ev(0, 0, 100, 100, /*context=*/0, /*gpu=*/0),
      stage_ev(1, 0, 100, 100, 2, 0),
      stage_ev(0, 1, 100, 100, 1, 0),  // context switch
      stage_ev(0, 2, 100, 100, 1, 1),  // GPU migration
      stage_ev(1, 1, 100, 100, 2, 0),
  };
  const TraceReport r = trace_report(stream);
  EXPECT_EQ(r.stages, 5u);
  EXPECT_EQ(r.tasks, 2u);
  EXPECT_EQ(r.context_switches, 1u);
  EXPECT_EQ(r.gpu_migrations, 1u);
}

TEST(TraceReport, StarvationAndWorstStall) {
  const std::vector<StageEvent> stream = {
      stage_ev(0, 0, 150, 100, 0, 0),   // stalled 50us but not starved
      stage_ev(3, 1, 900, 300, 0, 0),   // starved (3x) and worst stall
      stage_ev(3, 2, 400, 250, 0, 0),   // below the 2x default factor
  };
  const TraceReport r = trace_report(stream);
  EXPECT_EQ(r.starved_stages, 1u);
  EXPECT_DOUBLE_EQ(r.worst_stall_us, 600.0);
  EXPECT_EQ(r.worst_stall_task, 3);
  EXPECT_EQ(r.worst_stall_stage, 1u);
  ASSERT_EQ(r.worst_stall_per_task_us.size(), 4u);
  EXPECT_DOUBLE_EQ(r.worst_stall_per_task_us[0], 50.0);
  EXPECT_DOUBLE_EQ(r.worst_stall_per_task_us[3], 600.0);
  EXPECT_NE(r.to_string().find("worst stall"), std::string::npos);
}

TEST(TraceReport, StarvationFactorConfigurable) {
  const std::vector<StageEvent> stream = {
      stage_ev(0, 0, 150, 100, 0, 0),
  };
  EXPECT_EQ(trace_report(stream, 1.4).starved_stages, 1u);
  EXPECT_EQ(trace_report(stream, 2.0).starved_stages, 0u);
}

TEST(CollectorRouting, PerGpuAndFleetCounters) {
  Collector c;
  c.set_gpu_count(2);
  c.on_route(0);
  c.on_route(0);
  c.on_route(1);
  c.record(0, EventKind::kAdmit, EventCause::kHomeAdmit, 0);
  c.record(0, EventKind::kMigrate, EventCause::kSpill, /*gpu=*/0, /*peer=*/1);
  c.record(0, EventKind::kReject, EventCause::kPeerReject, 1);
  c.record(0, EventKind::kReject, EventCause::kInfeasible, 0);
  c.record(0, EventKind::kTransfer, EventCause::kColdModel, 1, -1, -1,
           /*mb=*/44.5);
  c.record(0, EventKind::kTransfer, EventCause::kColdModel, 1, -1, -1,
           /*mb=*/0.5);
  EXPECT_EQ(c.routing(0).routed, 2u);
  EXPECT_EQ(c.routing(0).home_admits, 1u);
  EXPECT_EQ(c.routing(0).migrated_out, 1u);
  EXPECT_EQ(c.routing(0).infeasible, 1u);
  EXPECT_EQ(c.routing(1).migrated_in, 1u);
  EXPECT_EQ(c.routing(1).dropped, 1u);
  EXPECT_EQ(c.routing(1).transfers_in, 2u);
  EXPECT_DOUBLE_EQ(c.routing(1).transferred_mb, 45.0);
  const RoutingCounters fleet = c.fleet_routing();
  EXPECT_EQ(fleet.routed, 3u);
  EXPECT_EQ(fleet.migrated_in, 1u);
  EXPECT_EQ(fleet.migrated_out, 1u);
  EXPECT_EQ(fleet.dropped, 1u);
  EXPECT_EQ(fleet.infeasible, 1u);
  EXPECT_EQ(fleet.transfers_in, 2u);
  EXPECT_DOUBLE_EQ(fleet.transferred_mb, 45.0);
}

}  // namespace
}  // namespace daris::metrics
