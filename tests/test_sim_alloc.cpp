// Allocation accounting for the event engine: steady-state scheduling must
// not touch the heap. Callbacks with <= 48 bytes of captures are stored
// inline in pooled event nodes, and the pool, position index, and heap are
// recycled, so after a warm-up burst that sizes them, an equally-sized burst
// of schedule/run (or reschedule) cycles performs zero allocations.
//
// The global operator new/delete overrides below count every allocation in
// this test binary; gtest itself allocates, so the measured windows contain
// only engine calls.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "cluster/fleet.h"
#include "experiments/runner.h"
#include "metrics/eventlog.h"
#include "metrics/timeseries.h"
#include "sim/sharded.h"
#include "sim/simulator.h"
#include "workload/driver.h"
#include "workload/taskset.h"
#include "workload/trace.h"

namespace {
// Atomic (relaxed): the sharded steady-state test below runs engine code on
// pool worker threads, and every thread's allocations must land in the count.
std::atomic<std::size_t> g_allocations{0};
}  // namespace

// GCC's allocation tracking cannot see that this override pair is an
// internally matched malloc/free (it flags the free below as mismatched
// with the replaced operator new under sanitizer instrumentation).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace daris::sim {
namespace {

constexpr int kBurst = 1024;

// 40 bytes of value captures + one reference: 48 bytes, the inline limit.
void schedule_burst(Simulator& sim, std::uint64_t& sink) {
  for (int i = 0; i < kBurst; ++i) {
    const auto a = static_cast<std::uint64_t>(i);
    const std::uint64_t b = a + 1, c = a + 2, d = a + 3, e = a + 4;
    sim.schedule_after(i + 1, [a, b, c, d, e, &sink] {
      sink += a + b + c + d + e;
    });
  }
  sim.run();
}

TEST(SimulatorAlloc, SteadyStateSchedulingDoesNotAllocate) {
  Simulator sim;
  std::uint64_t sink = 0;
  schedule_burst(sim, sink);  // warm-up: sizes the pool, index, and heap
  const std::size_t before = g_allocations;
  schedule_burst(sim, sink);
  const std::size_t after = g_allocations;
  EXPECT_EQ(after - before, 0u)
      << "steady-state schedule/run cycles must reuse pooled nodes";
  EXPECT_GT(sink, 0u);
}

TEST(SimulatorAlloc, RescheduleDoesNotAllocate) {
  Simulator sim;
  std::uint64_t sink = 0;
  std::vector<EventHandle> handles;
  handles.reserve(kBurst);
  for (int i = 0; i < kBurst; ++i) {
    const auto a = static_cast<std::uint64_t>(i);
    handles.push_back(
        sim.schedule_after(i + 1, [a, &sink] { sink += a; }));
  }
  const std::size_t before = g_allocations;
  for (int round = 0; round < 4; ++round) {
    for (const auto& h : handles) {
      sim.reschedule_after(h, (round + 2) * kBurst);
    }
  }
  const std::size_t after = g_allocations;
  EXPECT_EQ(after - before, 0u) << "reschedule must sift in place";
  sim.run();
  EXPECT_GT(sink, 0u);
}

// The Clockwork baseline packs its per-job completion state behind one
// pointer: the callback captures {server*, deadline, priority} (~24 bytes;
// see src/baselines/clockwork_server.cpp, which static_asserts the real
// lambda). This pins that shape to the inline path, so a burst of packed
// completions allocates nothing once the pool is warm.
TEST(SimulatorAlloc, ClockworkShapedCaptureStaysInline) {
  struct ServerState {
    std::uint64_t completed = 0;
    std::int64_t last_deadline = 0;
    int last_priority = 0;
  };
  ServerState state;
  Simulator sim;
  auto burst = [&sim, &state] {
    for (int i = 0; i < kBurst; ++i) {
      const std::int64_t deadline = i + 1;
      const int priority = i & 1;
      auto cb = [srv = &state, deadline, priority] {
        ++srv->completed;
        srv->last_deadline = deadline;
        srv->last_priority = priority;
      };
      static_assert(sizeof(cb) <= Callback::kInlineCapacity,
                    "packed completion context must fit inline");
      sim.schedule_after(i + 1, std::move(cb));
    }
    sim.run();
  };
  burst();  // warm-up sizes the pool
  const std::size_t before = g_allocations;
  burst();
  const std::size_t after = g_allocations;
  EXPECT_EQ(after - before, 0u)
      << "a packed <=48-byte completion context must not allocate";
  EXPECT_EQ(state.completed, 2u * kBurst);
}

// The release drivers' fire paths capture {this, task_id} (<= 16 bytes) and
// re-arm a pooled event in place, so steady-state arrival generation rides
// the inline path: after the first event warms the pool, the rest of an
// open-loop run performs zero heap allocations.
TEST(SimulatorAlloc, OpenLoopDriverSteadyStateDoesNotAllocate) {
  using namespace daris;
  const workload::TaskSetSpec taskset = workload::mixed_taskset();
  Simulator sim;
  std::uint64_t released = 0;
  workload::OpenLoopDriver driver(
      sim, taskset, [&released](int) { ++released; },
      common::from_sec(2.0));
  driver.start();
  sim.run_until(common::from_ms(100.0));  // warm-up sizes pool and heap
  ASSERT_GT(released, 0u);
  const std::size_t before = g_allocations;
  sim.run_until(common::from_sec(2.0));
  sim.run();
  const std::size_t after = g_allocations;
  EXPECT_EQ(after - before, 0u)
      << "steady-state open-loop arrivals must not allocate";
  EXPECT_GT(driver.arrivals(), 1000u);
}

// Trace replay walks a single re-armed event down the preloaded row list:
// after the first release, the whole replay allocates nothing.
TEST(SimulatorAlloc, TraceDriverSteadyStateDoesNotAllocate) {
  using namespace daris;
  const workload::TaskSetSpec taskset = workload::mixed_taskset();
  workload::TraceGenConfig cfg;
  cfg.duration_s = 2.0;
  cfg.mean_rate_jps = 1000.0;
  const workload::Trace trace =
      workload::generate_trace(workload::trace_mix(taskset), cfg);
  ASSERT_GT(trace.rows.size(), 1000u);

  Simulator sim;
  std::uint64_t released = 0;
  workload::TraceDriver driver(
      sim, taskset, trace, [&released](int) { ++released; },
      common::from_sec(2.0));
  driver.start();
  sim.run_until(common::from_ms(100.0));
  ASSERT_GT(released, 0u);
  const std::size_t before = g_allocations;
  sim.run_until(common::from_sec(2.0));
  sim.run();
  const std::size_t after = g_allocations;
  EXPECT_EQ(after - before, 0u)
      << "steady-state trace replay must not allocate";
  EXPECT_EQ(driver.arrivals(), trace.rows.size());
  EXPECT_EQ(driver.unmatched(), 0u);
}

// The telemetry sampler's whole steady state is one re-armed pooled event
// appending to reserved tracks: after start() reserves one slot per tick, a
// full horizon of cadence ticks performs zero allocations — the invariant
// that lets telemetry stay on in perf-sensitive runs.
TEST(SimulatorAlloc, TelemetrySamplerTicksDoNotAllocate) {
  using daris::metrics::TimeSeries;
  Simulator sim;
  double gauge = 0.0;
  TimeSeries series;
  series.add_track("gauge_a", -1, [&gauge] { return gauge; });
  series.add_track("gauge_b", 0, [&gauge] { return gauge * 2.0; });
  series.start(sim, daris::common::from_us(100.0),
               daris::common::from_ms(100.0));  // 1001 ticks
  const std::size_t before = g_allocations;
  sim.run();
  const std::size_t after = g_allocations;
  EXPECT_EQ(after - before, 0u)
      << "sampler ticks must only append within the reservation and re-arm "
         "in place";
  EXPECT_EQ(series.size(), 1001u);
}

// Event-log appends inside the reservation are plain POD pushes.
TEST(SimulatorAlloc, EventLogAppendsWithinReservationDoNotAllocate) {
  using daris::metrics::EventCause;
  using daris::metrics::EventKind;
  daris::metrics::EventLog log;
  log.reserve(kBurst);
  const std::size_t before = g_allocations;
  for (int i = 0; i < kBurst; ++i) {
    log.append(i, EventKind::kAdmit, EventCause::kHomeAdmit, i & 3, -1, i);
  }
  const std::size_t after = g_allocations;
  EXPECT_EQ(after - before, 0u)
      << "appends within the reservation must be allocation-free";
  EXPECT_EQ(log.size(), static_cast<std::size_t>(kBurst));
}

// Sharded engine steady state: self-re-arming device-local actors on every
// shard plus a control timer that cross-schedules onto a rotating shard each
// window — the fleet's event shape in miniature. After a warm-up horizon
// sizes every shard's slab pool and heap (and the control heap), further
// windows perform zero allocations on ANY thread: the dispatch protocol is
// a couple of atomics and a parked-pool wake, never a heap touch.
// g_allocations is atomic precisely so the pool workers' (absence of)
// allocations is visible here.
TEST(SimulatorAlloc, ShardedSteadyStateDoesNotAllocate) {
  constexpr int kShards = 4;
  constexpr common::Time kLocalPeriod = 10'000;    // ns
  constexpr common::Time kControlPeriod = 50'000;  // ns

  struct LocalActor {
    Simulator* sim = nullptr;
    std::uint64_t* sink = nullptr;
    void arm(common::Time when) {
      sim->schedule_at(when, [this] {
        ++*sink;
        arm(sim->now() + kLocalPeriod);
      });
    }
  };
  struct ControlActor {
    ShardedSimulator* sharded = nullptr;
    std::uint64_t* sinks = nullptr;
    int next = 0;
    void arm(common::Time when) {
      sharded->control().schedule_at(when, [this] {
        const int g = next;
        next = (next + 1) % kShards;
        std::uint64_t* sink = sinks + g;
        sharded->shard(g).schedule_at(
            sharded->now() + kLocalPeriod / 2, [sink] { ++*sink; });
        arm(sharded->now() + kControlPeriod);
      });
    }
  };

  ShardedSimulator sharded(kShards, 2);  // 2 lanes: one real pool worker
  ASSERT_EQ(sharded.threads(), 2);
  std::uint64_t local_sinks[kShards] = {};
  std::uint64_t cross_sinks[kShards] = {};
  LocalActor locals[kShards];
  for (int g = 0; g < kShards; ++g) {
    locals[g] = {&sharded.shard(g), &local_sinks[g]};
    locals[g].arm(kLocalPeriod);
  }
  ControlActor control{&sharded, cross_sinks};
  control.arm(kControlPeriod);

  sharded.run_until(common::from_ms(1.0));  // warm-up sizes pools and heaps
  const std::size_t before = g_allocations;
  sharded.run_until(common::from_ms(3.0));
  const std::size_t after = g_allocations;
  EXPECT_EQ(after - before, 0u)
      << "sharded steady-state windows must not allocate on any lane";
  for (int g = 0; g < kShards; ++g) {
    EXPECT_GT(local_sinks[g], 200u) << "shard " << g;
    EXPECT_GT(cross_sinks[g], 10u) << "shard " << g;
  }
}

// Fleet registration is pay-as-you-go: a task is one entry in the fleet's
// shared task table, each (task, device) pair is an 8-byte slot in its
// scheduler's slot vector, its AFET seed is the one copy the table keeps of
// each distinct profile, and the pair's MRET record only appears once the
// device admits a job of the task. Registering 512 tasks on a 16-device
// fleet — add_task, per-device set_afet, Algorithm 1 — must cost fewer than
// 0.1 allocations per pair.
TEST(SimulatorAlloc, FleetRegistrationCostsUnderATenthOfAnAllocationPerPair) {
  using namespace daris;
  constexpr int kDevices = 16;
  const workload::TaskSetSpec taskset =
      workload::replicated_taskset(workload::mixed_taskset(), kDevices);
  ASSERT_EQ(taskset.tasks.size(), 512u);
  ShardedSimulator sharded(kDevices, 1);
  cluster::FleetConfig cfg;
  cfg.num_gpus = kDevices;
  metrics::Collector collector;
  cluster::Fleet fleet(sharded, cfg, &collector);
  const exp::CompiledModels models =
      exp::compile_models(taskset, cfg.sched.batch, cfg.gpu);
  // Synthetic AFET, one profile per model, built outside the measured
  // window.
  std::vector<std::vector<double>> afet;
  for (const auto& t : taskset.tasks) {
    afet.emplace_back(models.of(t.model)->stage_count(), 400.0);
  }

  const std::size_t before = g_allocations;
  for (std::size_t i = 0; i < taskset.tasks.size(); ++i) {
    const rt::TaskSpec& t = taskset.tasks[i];
    const int id = fleet.add_task(t, models.of(t.model),
                                  static_cast<int>(i) % kDevices);
    for (int g = 0; g < kDevices; ++g) fleet.set_afet(id, g, afet[i]);
  }
  fleet.run_offline_phase();
  const std::size_t allocations = g_allocations - before;

  const std::size_t pairs = taskset.tasks.size() * kDevices;
  EXPECT_LT(10 * allocations, pairs)
      << allocations << " allocations for " << pairs << " pairs";
  const rt::Scheduler& last = fleet.scheduler(kDevices - 1);
  EXPECT_EQ(last.task_count(), 512);
  EXPECT_EQ(last.records(), 0u);
  EXPECT_EQ(last.mret_total_us(511),
            400.0 * static_cast<double>(last.model(511).stage_count()));
}

TEST(SimulatorAlloc, OversizedCapturesFallBackToTheHeap) {
  Simulator sim;
  std::uint64_t sink = 0;
  // 56 bytes of captures: one past the inline limit, to prove the counter
  // actually observes the engine (and that big captures still work).
  const std::uint64_t a = 1, b = 2, c = 3, d = 4, e = 5, f = 6;
  const std::size_t before = g_allocations;
  sim.schedule_after(1, [a, b, c, d, e, f, &sink] {
    sink += a + b + c + d + e + f;
  });
  const std::size_t after = g_allocations;
  EXPECT_GT(after - before, 0u);
  sim.run();
  EXPECT_EQ(sink, 21u);
}

}  // namespace
}  // namespace daris::sim
