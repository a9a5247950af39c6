#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <string>

#include "common/log.h"
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

/// One stage of `task` ending at `end_ms` after `exec_us` of execution.
StageEvent span_stage(int task, std::size_t stage, double end_ms,
                      double exec_us, int context, int gpu) {
  StageEvent s;
  s.task_id = task;
  s.stage = stage;
  s.when = from_ms(end_ms);
  s.execution_us = exec_us;
  s.context = context;
  s.gpu = gpu;
  return s;
}

TEST(TraceExport, SpanFieldsSerialised) {
  StageEvent s = span_stage(1, 0, /*end_ms=*/1.5, /*exec_us=*/500.0,
                            /*context=*/1, /*gpu=*/2);
  s.priority = common::Priority::kLow;
  s.missed = true;
  const std::string json = to_chrome_trace_json({s});
  EXPECT_NE(json.find("\"name\": \"task1.stage0\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"tid\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"ts\": 1000.000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\": 500.000"), std::string::npos);
  EXPECT_NE(json.find("\"priority\": \"LP\""), std::string::npos);
  EXPECT_NE(json.find("\"missed\": true"), std::string::npos);
}

TEST(TraceExport, TimestampsKeepNanosecondResolution) {
  // Past one second the ostream default (six significant digits) printed
  // "ts": 2.9964e+07 here, 123 ns early; later stamps rounded by up to
  // 50 us, enough to overlap neighbouring spans on one lane.
  StageEvent s;
  s.when = 29'965'000'123;  // 29.965000123 s
  s.execution_us = 1000.0;
  const std::string json = to_chrome_trace_json({s});
  EXPECT_NE(json.find("\"ts\": 29964000.123,"), std::string::npos) << json;
  EXPECT_NE(json.find("\"dur\": 1000.000,"), std::string::npos) << json;
  EXPECT_EQ(json.find("e+"), std::string::npos) << json;
}

TEST(TraceExport, EscapesQuotesInNames) {
  TimeSeries series;
  series.add_track("we\"ird\\name", 0, [] { return 0.0; });
  series.sample_now(0);
  const std::string json = to_chrome_trace_json({}, &series, nullptr);
  EXPECT_NE(json.find("we\\\"ird\\\\name"), std::string::npos);
}

TEST(TraceExport, EscapesControlCharacters) {
  TimeSeries series;
  series.add_track(std::string("line\nbreak\ttab\x01raw", 18), 0,
                   [] { return 0.0; });
  series.sample_now(0);
  const std::string json = to_chrome_trace_json({}, &series, nullptr);
  EXPECT_NE(json.find("line\\u000abreak\\u0009tab\\u0001raw"),
            std::string::npos);
  EXPECT_EQ(json.find("line\nbreak"), std::string::npos)
      << "no raw control characters may survive inside the name string";
}

TEST(TraceExport, UnifiedGoldenOutput) {
  const StageEvent s = span_stage(0, 0, 0.0, 0.0, /*context=*/0, /*gpu=*/0);
  TimeSeries series;
  series.add_track("gpu/util", 0, [] { return 1.5; });
  series.sample_now(common::from_us(5.0));
  EventLog log;
  log.append(common::from_us(7.0), EventKind::kFault, EventCause::kFailStop,
             /*gpu=*/1, /*peer=*/-1, /*task=*/-1, /*value=*/2.0);
  const std::string json = to_chrome_trace_json({s}, &series, &log);
  EXPECT_EQ(json,
            "[\n"
            "  {\"name\": \"task0.stage0\", \"ph\": \"X\", \"pid\": 0,"
            " \"tid\": 0, \"ts\": 0.000, \"dur\": 0.000,"
            " \"args\": {\"priority\": \"HP\", \"missed\": false}},\n"
            "  {\"name\": \"gpu/util\", \"ph\": \"C\", \"pid\": 0,"
            " \"ts\": 5.000, \"args\": {\"value\": 1.5}},\n"
            "  {\"name\": \"fault:fail-stop\", \"ph\": \"i\", \"s\": \"p\","
            " \"pid\": 1, \"tid\": -1, \"ts\": 7.000,"
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
  const StageEvent s = span_stage(5, 0, 1.0, 10.0, 0, 0);
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
  const std::size_t span_pos = json.find("\"task5.stage0\"");
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
  StageEvent late = span_stage(3, 1, 2.0, 1750.0, 0, -1);
  late.missed = true;
  const StageEvent on_gpu = span_stage(4, 0, 3.0, 250.0, 2, 1);
  TimeSeries series;
  series.add_track("we\"ird\\na\nme\x02", 0, [] { return 0.125; });
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
  const std::string json =
      to_chrome_trace_json({late, on_gpu}, &series, &log);
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  // And the sanity check that the checker rejects broken input.
  EXPECT_FALSE(JsonChecker("[{\"a\": }]").valid());
  EXPECT_FALSE(JsonChecker("[1, 2").valid());
  EXPECT_FALSE(JsonChecker(std::string("[\"a\nb\"]")).valid());
}

TEST(TraceExport, StageSpansBackdatedByExecution) {
  const StageEvent s = span_stage(2, 1, /*end_ms=*/5.0, /*exec_us=*/1000.0,
                                  /*context=*/0, /*gpu=*/-1);
  const std::string json = to_chrome_trace_json({s});
  EXPECT_NE(json.find("\"name\": \"task2.stage1\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\": 4000.000, \"dur\": 1000.000"),
            std::string::npos)
      << json;
}

TEST(TraceExport, StageSpansCarryClassMissAndLane) {
  // A single-GPU stage (gpu -1) sits on its task's lane; a fleet stage on
  // its device's context lane.
  StageEvent late_lp = span_stage(4, 0, 1.0, 10.0, /*context=*/2, -1);
  late_lp.priority = common::Priority::kLow;
  late_lp.missed = true;
  StageEvent on_time_hp = late_lp;
  on_time_hp.priority = common::Priority::kHigh;
  on_time_hp.missed = false;
  on_time_hp.gpu = 1;
  const std::string json = to_chrome_trace_json({late_lp, on_time_hp});
  EXPECT_NE(json.find("\"pid\": -1, \"tid\": 4,"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"pid\": 1, \"tid\": 2,"), std::string::npos)
      << json;
  const std::size_t second = json.find("\"pid\": 1");
  EXPECT_LT(json.find("\"priority\": \"LP\", \"missed\": true"), second);
  EXPECT_GT(json.find("\"priority\": \"HP\", \"missed\": false"), second);
}

TEST(TraceExport, MultipleSpansCommaSeparated) {
  const std::string json = to_chrome_trace_json({StageEvent{}, StageEvent{}});
  // Two objects, one comma between them.
  std::size_t count = 0, pos = 0;
  while ((pos = json.find("\"ph\"", pos)) != std::string::npos) {
    ++count;
    ++pos;
  }
  EXPECT_EQ(count, 2u);
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
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
      stage_ev(3, 2, 400, 250, 0, 0),   // below kStarvationFactor (2x)
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

TEST(TraceReport, StarvedAtStarvationFactor) {
  // MRET 100 us: starved from kStarvationFactor x 100 us of execution on.
  const double at = kStarvationFactor * 100.0;
  const std::vector<StageEvent> stream = {
      stage_ev(0, 0, at - 1.0, 100, 0, 0),
      stage_ev(1, 0, at, 100, 0, 0),
  };
  EXPECT_EQ(trace_report(stream).starved_stages, 1u);
}

TEST(CollectorRouting, PerGpuAndFleetCounters) {
  Collector c;
  c.set_gpu_count(2);
  c.enable_event_log(64);
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
  c.record(0, EventKind::kCoalesce, EventCause::kCoalesced, 1, -1, 3,
           /*mb=*/12.25);
  c.record(0, EventKind::kSteal, EventCause::kBacklogSteal, /*gpu=*/0,
           /*peer=*/1, 3);
  c.record(0, EventKind::kRehome, EventCause::kDemandShift, 0, 1, 3);
  c.record(0, EventKind::kRehome, EventCause::kNone, 1, 0, 4);  // fault's
  c.record(0, EventKind::kDrain, EventCause::kScaleDown, 1);
  c.record(0, EventKind::kFault, EventCause::kFailStop, 1, -1, -1,
           /*lost=*/3.0);
  c.record(0, EventKind::kFault, EventCause::kStraggler, 0, -1, -1, 0.5);
  c.record(0, EventKind::kFault, EventCause::kScaleUp, 2, -1, -1, 1.0);
  c.record(0, EventKind::kRetry, EventCause::kBackoff, -1, -1, 3, 2.0);
  c.record(0, EventKind::kRetry, EventCause::kBackoff, -1, -1, 3, 3.0);
  c.record(0, EventKind::kRetry, EventCause::kBudgetExhausted, 0, -1, 3, 1.0);
  c.record(0, EventKind::kRetry, EventCause::kExpired, -1, -1, 3, 2.0);
  c.record(0, EventKind::kRetry, EventCause::kMaxAttempts, -1, -1, 3, 3.0);
  c.record(0, EventKind::kHedge, EventCause::kHedgeLaunch, 0, 1, 3);
  c.record(0, EventKind::kHedge, EventCause::kHedgeWin, 0, 1, 3);
  c.record(0, EventKind::kHedge, EventCause::kHedgeCancel, 0, 1, 3);
  c.record(0, EventKind::kBreaker, EventCause::kBreakerOpen, 0, -1, -1, 0.6);
  c.record(0, EventKind::kBreaker, EventCause::kBreakerHalfOpen, 0, -1, -1);
  c.record(0, EventKind::kBreaker, EventCause::kBreakerClose, 0, -1, -1, 0.1);
  // The measured group: one count() each (hedge waste twice).
  c.count(&FleetCounters::steal_scans);
  c.count(&FleetCounters::rehome_rounds);
  c.count(&FleetCounters::transfer_cancels);
  c.count(&FleetCounters::first_attempts);
  c.count(&FleetCounters::retry_admits);
  c.count(&FleetCounters::hedge_waste);
  c.count(&FleetCounters::hedge_waste);
  c.count(&FleetCounters::hedge_rescued_misses);
  EXPECT_EQ(c.routing(0).routed, 2u);
  EXPECT_EQ(c.routing(0).home_admits, 1u);
  EXPECT_EQ(c.routing(0).migrated_out, 1u);
  EXPECT_EQ(c.routing(0).infeasible, 1u);
  EXPECT_EQ(c.routing(0).steals_out, 1u);
  EXPECT_EQ(c.routing(1).migrated_in, 1u);
  EXPECT_EQ(c.routing(1).dropped, 1u);
  EXPECT_EQ(c.routing(1).transfers_in, 2u);
  EXPECT_DOUBLE_EQ(c.routing(1).transferred_mb, 45.0);
  EXPECT_EQ(c.routing(1).steals_in, 1u);
  EXPECT_EQ(c.routing(1).coalesced, 1u);
  EXPECT_DOUBLE_EQ(c.routing(1).coalesced_mb, 12.25);
  const RoutingCounters fleet = c.fleet_routing();
  EXPECT_EQ(fleet.routed, 3u);
  EXPECT_EQ(fleet.migrated_in, 1u);
  EXPECT_EQ(fleet.migrated_out, 1u);
  EXPECT_EQ(fleet.dropped, 1u);
  EXPECT_EQ(fleet.infeasible, 1u);
  EXPECT_EQ(fleet.transfers_in, 2u);
  EXPECT_DOUBLE_EQ(fleet.transferred_mb, 45.0);

  const FleetCounters& f = c.fleet_counters();
  EXPECT_EQ(f.cross_gpu_migrations, 1u);
  EXPECT_EQ(f.drops, 2u);  // every shed, infeasible included
  EXPECT_EQ(f.infeasible_rejects, 1u);
  EXPECT_EQ(f.transfers, 2u);
  EXPECT_DOUBLE_EQ(f.transferred_mb, 45.0);
  EXPECT_EQ(f.coalesced_transfers, 1u);
  EXPECT_DOUBLE_EQ(f.coalesced_mb_saved, 12.25);
  EXPECT_EQ(f.steals, 1u);
  EXPECT_EQ(f.rehomes, 1u);    // demand shifts only, not a fault's rehome
  EXPECT_EQ(f.jobs_lost, 3u);  // fail-stop value; stragglers lose nothing
  EXPECT_EQ(f.retries, 2u);
  EXPECT_EQ(f.retry_abandoned_budget, 1u);
  EXPECT_EQ(f.retry_abandoned_expired, 1u);
  EXPECT_EQ(f.retry_abandoned_attempts, 1u);
  EXPECT_EQ(f.hedges, 1u);
  EXPECT_EQ(f.hedge_wins, 1u);
  EXPECT_EQ(f.hedge_cancels, 1u);
  EXPECT_EQ(f.breaker_opens, 1u);
  EXPECT_EQ(f.breaker_closes, 1u);
  EXPECT_EQ(f.steal_scans, 1u);
  EXPECT_EQ(f.rehome_rounds, 1u);
  EXPECT_EQ(f.transfer_cancels, 1u);
  EXPECT_EQ(f.first_attempts, 1u);
  EXPECT_EQ(f.retry_admits, 1u);
  EXPECT_EQ(f.hedge_waste, 2u);
  EXPECT_EQ(f.hedge_rescued_misses, 1u);

  // No record implies a measured count: folding the log leaves them zero.
  ASSERT_NE(c.event_log(), nullptr);
  const FleetCounters folded = c.event_log()->fold_counts(2).fleet;
  EXPECT_EQ(folded.cross_gpu_migrations, f.cross_gpu_migrations);
  EXPECT_EQ(folded.breaker_closes, f.breaker_closes);
  EXPECT_EQ(folded.steal_scans, 0u);
  EXPECT_EQ(folded.rehome_rounds, 0u);
  EXPECT_EQ(folded.transfer_cancels, 0u);
  EXPECT_EQ(folded.first_attempts, 0u);
  EXPECT_EQ(folded.retry_admits, 0u);
  EXPECT_EQ(folded.hedge_waste, 0u);
  EXPECT_EQ(folded.hedge_rescued_misses, 0u);
}

/// Restores the global log threshold on scope exit.
class LogLevelGuard {
 public:
  LogLevelGuard() : saved_(common::log_level()) {}
  ~LogLevelGuard() { common::set_log_level(saved_); }

 private:
  common::LogLevel saved_;
};

TEST(CollectorNarration, RecordWritesOneLinePerLifecycleRecordAtInfo) {
  LogLevelGuard guard;
  common::set_log_level(common::LogLevel::kInfo);
  Collector c;
  testing::internal::CaptureStderr();
  c.record(common::from_sec(1.5) + 7, EventKind::kFault, EventCause::kFailStop,
           1, -1, -1, 3.0);
  const std::string fault = testing::internal::GetCapturedStderr();
  EXPECT_NE(fault.find("fault:fail-stop"), std::string::npos) << fault;
  EXPECT_NE(fault.find("t=1500000.007us"), std::string::npos) << fault;
  EXPECT_EQ(std::count(fault.begin(), fault.end(), '\n'), 1) << fault;

  // Per-job routing and retry records narrate at debug only.
  testing::internal::CaptureStderr();
  for (const EventKind kind :
       {EventKind::kAdmit, EventKind::kReject, EventKind::kMigrate,
        EventKind::kTransfer, EventKind::kCoalesce, EventKind::kRetry}) {
    c.record(0, kind, EventCause::kNone, 0, -1, 2);
  }
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
}

}  // namespace
}  // namespace daris::metrics
