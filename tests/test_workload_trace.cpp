// Trace replay and generation: CSV parsing with line-numbered rejection,
// bit-identical replay, generator statistical sanity, and the equivalence
// between a periodic trace and PeriodicDriver (same ReleaseFn stream).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "workload/driver.h"
#include "workload/taskset.h"
#include "workload/trace.h"

namespace daris::workload {
namespace {

using common::Priority;

// --- CSV parsing ----------------------------------------------------------

Trace parse_ok(const std::string& csv) {
  std::istringstream in(csv);
  Trace trace;
  std::string error;
  EXPECT_TRUE(parse_trace_csv(in, &trace, &error)) << error;
  return trace;
}

std::string parse_error(const std::string& csv) {
  std::istringstream in(csv);
  Trace trace;
  std::string error;
  EXPECT_FALSE(parse_trace_csv(in, &trace, &error));
  return error;
}

TEST(TraceCsv, ParsesRowsHeaderCommentsAndBlanks) {
  const Trace t = parse_ok(
      "arrival_us,model,slo\n"
      "# warm-up burst\n"
      "\n"
      "100,resnet18,hp\n"
      "250,UNet,lp\n"
      "250,inceptionv3,lp\n");
  ASSERT_EQ(t.rows.size(), 3u);
  EXPECT_EQ(t.rows[0].arrival_us, 100u);
  EXPECT_EQ(t.rows[0].model, dnn::ModelKind::kResNet18);
  EXPECT_EQ(t.rows[0].slo, Priority::kHigh);
  EXPECT_EQ(t.rows[1].arrival_us, 250u);
  EXPECT_EQ(t.rows[1].model, dnn::ModelKind::kUNet);
  EXPECT_EQ(t.rows[1].slo, Priority::kLow);
  EXPECT_EQ(t.rows[2].model, dnn::ModelKind::kInceptionV3);
  EXPECT_EQ(t.duration(), common::from_us(250.0));
}

TEST(TraceCsv, RejectsMalformedRowsWithLineNumbers) {
  // Each case: (csv, expected line number of the failure). The header (line
  // 1) and a comment (line 2) pad the line counter so the number proves the
  // parser reports the *file* line, not the row index.
  const std::pair<const char*, const char*> cases[] = {
      {"arrival_us,model,slo\n#c\n100,resnet18\n", "line 3"},
      {"arrival_us,model,slo\n#c\nabc,resnet18,hp\n", "line 3"},
      {"arrival_us,model,slo\n#c\n100,vgg16,hp\n", "line 3"},
      {"arrival_us,model,slo\n#c\n100,resnet18,medium\n", "line 3"},
      {"arrival_us,model,slo\n#c\n100,resnet18,hp,extra\n", "line 3"},
      {"arrival_us,model,slo\n100,resnet18,hp\n99,resnet18,hp\n", "line 3"},
      {"100,resnet18,hp\n-5,resnet18,hp\n", "line 2"},
  };
  for (const auto& [csv, want] : cases) {
    const std::string error = parse_error(csv);
    EXPECT_NE(error.find(want), std::string::npos)
        << "csv:\n" << csv << "error: " << error;
  }
}

TEST(TraceCsv, ArrivalTimesStopAtTheLargestExactTime) {
  // 2^53 us is the bound: it parses and keeps a positive duration; one
  // microsecond more would reach the simulator's clock rounded (and, a
  // little further on, overflowed to a time in the past).
  const Trace at_bound =
      parse_ok("100,resnet18,hp\n9007199254740992,resnet18,hp\n");
  ASSERT_EQ(at_bound.rows.size(), 2u);
  EXPECT_EQ(at_bound.rows[1].arrival_us, kMaxArrivalUs);
  EXPECT_GT(at_bound.duration(), 0);
  for (const char* csv : {"100,resnet18,hp\n9007199254740993,resnet18,hp\n",
                          "100,resnet18,hp\n10000000000000000,resnet18,hp\n",
                          "100,resnet18,hp\n18446744073709551615,unet,lp\n"}) {
    const std::string error = parse_error(csv);
    EXPECT_NE(error.find("line 2: arrival_us"), std::string::npos)
        << "csv:\n" << csv << "error: " << error;
  }
}

TEST(TraceCsv, RoundTripsThroughWriter) {
  TraceGenConfig cfg;
  cfg.duration_s = 0.5;
  cfg.mean_rate_jps = 400.0;
  const Trace t = generate_trace(trace_mix(mixed_taskset()), cfg);
  ASSERT_GT(t.rows.size(), 0u);

  std::ostringstream out;
  write_trace_csv(out, t);
  const Trace back = parse_ok(out.str());
  ASSERT_EQ(back.rows.size(), t.rows.size());
  for (std::size_t i = 0; i < t.rows.size(); ++i) {
    EXPECT_EQ(back.rows[i].arrival_us, t.rows[i].arrival_us);
    EXPECT_EQ(back.rows[i].model, t.rows[i].model);
    EXPECT_EQ(back.rows[i].slo, t.rows[i].slo);
  }
}

// --- replay ---------------------------------------------------------------

using ReleaseLog = std::vector<std::pair<common::Time, int>>;

ReleaseLog replay(const TaskSetSpec& taskset, const Trace& trace,
                  common::Time horizon, std::uint64_t* arrivals = nullptr,
                  std::uint64_t* unmatched = nullptr) {
  sim::Simulator sim;
  ReleaseLog log;
  TraceDriver driver(
      sim, taskset, trace,
      [&](int task_id) { log.emplace_back(sim.now(), task_id); }, horizon);
  driver.start();
  sim.run();
  if (arrivals != nullptr) *arrivals = driver.arrivals();
  if (unmatched != nullptr) *unmatched = driver.unmatched();
  return log;
}

TEST(TraceDriver, ReplayIsBitIdentical) {
  TraceGenConfig cfg;
  cfg.duration_s = 2.0;
  cfg.mean_rate_jps = 800.0;
  cfg.diurnal_amplitude = 0.4;
  cfg.diurnal_period_s = 1.0;
  const TaskSetSpec taskset = mixed_taskset();
  const Trace trace = generate_trace(trace_mix(taskset), cfg);
  ASSERT_GT(trace.rows.size(), 1000u);

  const common::Time horizon = common::from_sec(2.0);
  const ReleaseLog a = replay(taskset, trace, horizon);
  const ReleaseLog b = replay(taskset, trace, horizon);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_TRUE(a == b) << "same trace, same task set => same release stream";
}

TEST(TraceDriver, RoundRobinSpreadsAClassAcrossItsTasks) {
  // Two HP ResNet18 tasks: rows of that class must alternate between them
  // in ascending task-id order.
  TaskSetSpec taskset;
  for (int i = 0; i < 2; ++i) {
    rt::TaskSpec spec;
    spec.model = dnn::ModelKind::kResNet18;
    spec.period = common::from_ms(10.0);
    spec.relative_deadline = spec.period;
    spec.priority = Priority::kHigh;
    taskset.tasks.push_back(spec);
  }
  Trace trace;
  for (int i = 0; i < 6; ++i) {
    TraceRow row;
    row.arrival_us = static_cast<std::uint64_t>(100 * (i + 1));
    trace.rows.push_back(row);
  }
  const ReleaseLog log = replay(taskset, trace, common::from_sec(1.0));
  ASSERT_EQ(log.size(), 6u);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(log[static_cast<std::size_t>(i)].second, i % 2);
  }
}

TEST(TraceDriver, CountsUnmatchedRowsAndSkipsThem) {
  TaskSetSpec taskset;
  rt::TaskSpec spec;
  spec.model = dnn::ModelKind::kResNet18;
  spec.period = common::from_ms(10.0);
  spec.relative_deadline = spec.period;
  spec.priority = Priority::kHigh;
  taskset.tasks.push_back(spec);

  Trace trace;
  TraceRow hp;
  hp.arrival_us = 100;
  TraceRow lp;  // no registered task serves (resnet18, lp)
  lp.arrival_us = 200;
  lp.slo = Priority::kLow;
  TraceRow hp2;
  hp2.arrival_us = 300;
  trace.rows = {hp, lp, hp2};

  std::uint64_t arrivals = 0;
  std::uint64_t unmatched = 0;
  const ReleaseLog log =
      replay(taskset, trace, common::from_sec(1.0), &arrivals, &unmatched);
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(arrivals, 2u);
  EXPECT_EQ(unmatched, 1u);
  EXPECT_EQ(log[0].first, common::from_us(100.0));
  EXPECT_EQ(log[1].first, common::from_us(300.0));
}

// --- the periodic-trace = PeriodicDriver equivalence ----------------------

TEST(TraceDriver, PeriodicTraceMatchesPeriodicDriverExactly) {
  // One task per (model, SLO) class, whole-microsecond periods and phases,
  // no simultaneous releases: the round-robin row mapping is then the
  // identity, and the trace form of the periodic schedule must produce the
  // byte-identical ReleaseFn stream.
  TaskSetSpec taskset;
  const struct {
    dnn::ModelKind model;
    Priority slo;
    std::uint64_t period_us;
    std::uint64_t phase_us;
  } defs[] = {
      {dnn::ModelKind::kResNet18, Priority::kHigh, 9973, 11},
      {dnn::ModelKind::kUNet, Priority::kLow, 14009, 503},
      {dnn::ModelKind::kInceptionV3, Priority::kLow, 23003, 1009},
  };
  for (const auto& d : defs) {
    rt::TaskSpec spec;
    spec.model = d.model;
    spec.priority = d.slo;
    spec.period = common::from_us(static_cast<double>(d.period_us));
    spec.relative_deadline = spec.period;
    spec.phase = common::from_us(static_cast<double>(d.phase_us));
    taskset.tasks.push_back(spec);
  }

  const double horizon_s = 1.0;
  const auto horizon = common::from_sec(horizon_s);

  // The same schedule as rows, time-sorted; prime periods with distinct
  // offsets never coincide inside the horizon (asserted below).
  std::vector<std::pair<std::uint64_t, int>> schedule;
  for (int t = 0; t < 3; ++t) {
    const auto& d = defs[t];
    for (std::uint64_t us = d.phase_us;
         common::from_us(static_cast<double>(us)) <= horizon;
         us += d.period_us) {
      schedule.emplace_back(us, t);
    }
  }
  std::sort(schedule.begin(), schedule.end());
  std::set<std::uint64_t> times;
  for (const auto& [us, t] : schedule) {
    ASSERT_TRUE(times.insert(us).second) << "collision at " << us << "us";
  }
  Trace trace;
  for (const auto& [us, t] : schedule) {
    TraceRow row;
    row.arrival_us = us;
    row.model = defs[t].model;
    row.slo = defs[t].slo;
    trace.rows.push_back(row);
  }

  ReleaseLog from_periodic;
  {
    sim::Simulator sim;
    PeriodicDriver driver(
        sim, taskset,
        [&](int task_id) { from_periodic.emplace_back(sim.now(), task_id); },
        horizon);
    driver.start();
    sim.run();
  }
  const ReleaseLog from_trace = replay(taskset, trace, horizon);

  ASSERT_GT(from_periodic.size(), 100u);
  ASSERT_EQ(from_trace.size(), from_periodic.size());
  EXPECT_TRUE(from_trace == from_periodic)
      << "a periodic trace must replay as the PeriodicDriver schedule";
}

// --- generator ------------------------------------------------------------

TEST(TraceGen, IsDeterministicPerSeedAndSensitiveToIt) {
  TraceGenConfig cfg;
  cfg.duration_s = 1.0;
  cfg.mean_rate_jps = 500.0;
  const auto mix = trace_mix(mixed_taskset());
  const Trace a = generate_trace(mix, cfg);
  const Trace b = generate_trace(mix, cfg);
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    EXPECT_EQ(a.rows[i].arrival_us, b.rows[i].arrival_us);
    EXPECT_EQ(a.rows[i].model, b.rows[i].model);
    EXPECT_EQ(a.rows[i].slo, b.rows[i].slo);
  }
  cfg.seed = 43;
  const Trace c = generate_trace(mix, cfg);
  EXPECT_NE(a.rows.size(), c.rows.size());
}

TEST(TraceGen, MeanRateWithinTolerance) {
  TraceGenConfig cfg;
  cfg.duration_s = 20.0;
  cfg.mean_rate_jps = 1000.0;
  const Trace t = generate_trace(trace_mix(mixed_taskset()), cfg);
  // 20k expected arrivals, Poisson sd ~ 141: +-5% is > 7 sigma.
  const double realised =
      static_cast<double>(t.rows.size()) / cfg.duration_s;
  EXPECT_NEAR(realised, cfg.mean_rate_jps, 0.05 * cfg.mean_rate_jps);
  EXPECT_TRUE(std::is_sorted(
      t.rows.begin(), t.rows.end(),
      [](const TraceRow& a, const TraceRow& b) {
        return a.arrival_us < b.arrival_us;
      }));
}

TEST(TraceGen, DiurnalModulationShapesTheRate) {
  TraceGenConfig cfg;
  cfg.duration_s = 10.0;
  cfg.mean_rate_jps = 1000.0;
  cfg.diurnal_amplitude = 0.8;
  cfg.diurnal_period_s = 10.0;
  // sin > 0 over the first half-period, < 0 over the second.
  EXPECT_GT(trace_rate_at(cfg, 2.5), 1700.0);
  EXPECT_LT(trace_rate_at(cfg, 7.5), 300.0);

  const Trace t = generate_trace(trace_mix(mixed_taskset()), cfg);
  std::uint64_t first_half = 0;
  std::uint64_t second_half = 0;
  for (const auto& row : t.rows) {
    (row.arrival_us < 5'000'000 ? first_half : second_half)++;
  }
  // Expected split 9:1; 3:1 is a generous floor.
  EXPECT_GT(first_half, 3 * second_half);
}

TEST(TraceGen, FlashCrowdMultipliesTheWindowRate) {
  TraceGenConfig cfg;
  cfg.duration_s = 6.0;
  cfg.mean_rate_jps = 500.0;
  FlashCrowd flash;
  flash.start_s = 2.0;
  flash.duration_s = 1.0;
  flash.factor = 4.0;
  cfg.flashes.push_back(flash);
  EXPECT_DOUBLE_EQ(trace_rate_at(cfg, 1.0), 500.0);
  EXPECT_DOUBLE_EQ(trace_rate_at(cfg, 2.5), 2000.0);
  EXPECT_DOUBLE_EQ(trace_rate_at(cfg, 3.5), 500.0);

  const Trace t = generate_trace(trace_mix(mixed_taskset()), cfg);
  std::uint64_t in_flash = 0;
  std::uint64_t before = 0;
  for (const auto& row : t.rows) {
    if (row.arrival_us >= 2'000'000 && row.arrival_us < 3'000'000) {
      ++in_flash;
    } else if (row.arrival_us < 2'000'000) {
      ++before;
    }
  }
  // 4x the rate in the window vs 2x the pre-window duration: expect about
  // 2x the count, and well above it at minimum.
  EXPECT_GT(in_flash, before);
}

TEST(TraceGen, MixWeightsShapeClassShares) {
  std::vector<TraceMixEntry> mix(2);
  mix[0].model = dnn::ModelKind::kResNet18;
  mix[0].slo = Priority::kHigh;
  mix[0].weight = 3.0;
  mix[1].model = dnn::ModelKind::kUNet;
  mix[1].slo = Priority::kLow;
  mix[1].weight = 1.0;
  TraceGenConfig cfg;
  cfg.duration_s = 10.0;
  cfg.mean_rate_jps = 1000.0;
  const Trace t = generate_trace(mix, cfg);
  std::uint64_t hp = 0;
  for (const auto& row : t.rows) {
    if (row.slo == Priority::kHigh) {
      EXPECT_EQ(row.model, dnn::ModelKind::kResNet18);
      ++hp;
    } else {
      EXPECT_EQ(row.model, dnn::ModelKind::kUNet);
    }
  }
  const double share =
      static_cast<double>(hp) / static_cast<double>(t.rows.size());
  EXPECT_NEAR(share, 0.75, 0.03);
}

TEST(TraceMix, WeightsClassesByAggregateRate) {
  // Two HP ResNet18 tasks at 10ms + one LP UNet task at 20ms: class weights
  // must come out 200:50 in class order.
  TaskSetSpec taskset;
  for (int i = 0; i < 3; ++i) {
    rt::TaskSpec spec;
    spec.model = i < 2 ? dnn::ModelKind::kResNet18 : dnn::ModelKind::kUNet;
    spec.priority = i < 2 ? Priority::kHigh : Priority::kLow;
    spec.period = common::from_ms(i < 2 ? 10.0 : 20.0);
    spec.relative_deadline = spec.period;
    taskset.tasks.push_back(spec);
  }
  const auto mix = trace_mix(taskset);
  ASSERT_EQ(mix.size(), 2u);
  EXPECT_EQ(mix[0].model, dnn::ModelKind::kResNet18);
  EXPECT_EQ(mix[0].slo, Priority::kHigh);
  EXPECT_DOUBLE_EQ(mix[0].weight, 200.0);
  EXPECT_EQ(mix[1].model, dnn::ModelKind::kUNet);
  EXPECT_EQ(mix[1].slo, Priority::kLow);
  EXPECT_DOUBLE_EQ(mix[1].weight, 50.0);
}

TEST(TraceCsv, DiurnalReplayTraceRoundTripsAtWorkloadSize) {
  // The diurnal-replay scenario's trace (src/experiments/scenarios.cpp),
  // through the writer and back: the reader's test at workload size.
  TraceGenConfig cfg;
  cfg.duration_s = 30.0;
  cfg.mean_rate_jps = 1260.0;
  cfg.diurnal_amplitude = 0.5;
  cfg.diurnal_period_s = 20.0;
  cfg.flashes.push_back({22.0, 3.0, 2.5});  // start_s, duration_s, factor
  cfg.seed = 42;
  const Trace trace = generate_trace(trace_mix(mixed_taskset()), cfg);
  EXPECT_GT(trace.rows.size(), 45000u);
  EXPECT_LT(trace.rows.size(), 55000u);

  std::ostringstream out;
  write_trace_csv(out, trace);
  const Trace back = parse_ok(out.str());
  ASSERT_EQ(back.rows.size(), trace.rows.size());
  EXPECT_TRUE(std::equal(
      trace.rows.begin(), trace.rows.end(), back.rows.begin(),
      [](const TraceRow& a, const TraceRow& b) {
        return a.arrival_us == b.arrival_us && a.model == b.model &&
               a.slo == b.slo;
      }));

  // Every row must map to a task of the mixed set (no unmatched classes).
  std::uint64_t unmatched = 0;
  replay(mixed_taskset(), back, common::from_sec(30.0), nullptr, &unmatched);
  EXPECT_EQ(unmatched, 0u);
}

}  // namespace
}  // namespace daris::workload
