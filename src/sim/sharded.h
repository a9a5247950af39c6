// Sharded parallel discrete-event simulation.
//
// A multi-GPU fleet multiplies event churn by the number of devices, but most
// of those events never leave their device: kernel completions, stage
// advances, and fluid-executor retimes touch one Gpu + Scheduler pair only.
// ShardedSimulator exploits that by giving every device its own slab-pooled
// Simulator (the PR 3 engine, unchanged — each shard keeps the full
// (when, seq) tie-break contract) plus one *control* shard for everything
// that spans devices: arrival drivers, router placements and weight-transfer
// deliveries, rebalancer steals/re-homes, fleet fault injection, and the
// telemetry sampler.
//
// Execution alternates two phases under a conservative time-window barrier:
//
//  1. Parallel phase. Let Tc be the control shard's next event time. Every
//     device shard with an event due strictly *before* Tc runs its local
//     events before Tc on a small spin-then-sleep thread pool (the calling
//     thread drains its own share). Shards never touch each other's state,
//     so any interleaving of this phase produces the same result.
//  2. Control phase. The control shard drains serially through Tc —
//     including events its callbacks schedule at Tc — in (when, seq) order.
//     Control callbacks may freely poke device shards (release a job, steal
//     a stage, cancel events): the workers are parked at the barrier, and
//     the phase transition establishes happens-before in both directions.
//
// Two pieces of shared state keep a window's cost proportional to the
// shards that have work in it, not to the fleet size:
//
//  - Clock floor. A device shard follows the control shard's clock
//    (Simulator::follow_clock): its now() is the later of its own clock and
//    the control clock, so a control callback on a quiet shard reads Tc
//    without the barrier re-stamping every shard clock each window.
//  - Head table. Every device shard mirrors its earliest event time into a
//    table the barrier owns (Simulator::mirror_head). The table is laid out
//    lane-major — each lane's shards in a run of whole cache lines — so the
//    writes a lane makes in the parallel phase never share a line with
//    another lane's. A lane runs only the shards whose head is due, and the
//    "any work this window?" check scans the same table.
//
// Ties at Tc therefore execute control-first, which is exactly the order a
// single event heap produces for the fleet's timer-driven control events (a
// periodic timer re-armed at tick T for tick T+P draws a smaller sequence
// number than any device event scheduled later in real time), so runs
// reproduce the single-heap scenario fingerprints (.baseline_scenarios.json)
// byte-for-byte.
// Cross-shard delivery order is a pure function of (config, seed): the control
// shard's serial (when, seq) order *is* the seeded total order in which
// cross-device events land, independent of thread count and scheduling noise.
//
// This is the only engine a cluster::Fleet runs on: one shard per device,
// with one lane (no pool) unless more are asked for.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/time.h"
#include "sim/simulator.h"

namespace daris::sim {

class ShardedSimulator {
 public:
  /// `device_shards` device-local heaps plus one control heap.
  ///
  /// `threads` is the total worker-lane count *including* the calling thread;
  /// <= 0 picks min(hardware_concurrency, device_shards). 1 drains shards
  /// inline with no pool. The pool is spawned once at construction and
  /// parked between windows, so steady-state windows allocate nothing.
  explicit ShardedSimulator(int device_shards, int threads = 0);
  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;
  ~ShardedSimulator();

  /// The control shard: drivers, router, rebalancer, faults, telemetry.
  Simulator& control() { return control_; }
  const Simulator& control() const { return control_; }

  int device_shards() const { return static_cast<int>(shards_.size()); }

  /// The i-th device shard (0 <= i < device_shards()); device i lives on it.
  Simulator& shard(int i) { return *shards_[i]; }

  /// Appends a fresh device shard, whose now() reads the control shard's
  /// (live GPU add). Must be called from the control phase — i.e. from a
  /// control-shard callback or outside run_until() — never from a device
  /// event. Returns the new shard index.
  int add_shard();

  /// Worker-lane count actually in use (>= 1; includes the calling thread).
  int threads() const { return threads_; }

  /// Fleet-wide clock == the control shard's clock. A device shard's own
  /// clock only ever runs ahead of it within the current window.
  common::Time now() const { return control_.now(); }

  /// The earliest event time shard `i` has published to the head table
  /// (kTimeInfinity when idle). Equal to shard(i).next_event_time() whenever
  /// the shard is not running; read it from the control phase.
  common::Time published_head(int i) const {
    const auto s = static_cast<std::size_t>(i);
    return heads_[head_line(s)].head[head_column(s)];
  }

  /// Runs the two-phase window loop until every shard is drained up to (and
  /// including) `deadline`; all clocks end at `deadline`. Returns the number
  /// of events executed across all shards.
  std::size_t run_until(common::Time deadline);

  /// Pending events across the control shard and every device shard.
  std::size_t pending() const;
  bool empty() const;

  /// Pre-sizes the control heap and each device-shard heap.
  void reserve(std::size_t control_events, std::size_t per_shard_events);

  /// Self-profiler counters: the engine counters folded across all shards
  /// (every field summed; heap_high_water becomes a fleet-wide upper bound,
  /// as per-shard peaks need not coincide in time) plus the barrier's own.
  struct Stats : Simulator::Stats {
    std::uint64_t windows_dispatched = 0;  // parallel phases with work due
    std::uint64_t windows_skipped = 0;     // windows no device shard needed
    std::uint64_t shard_runs = 0;          // device-shard drains, all lanes
    // Phase clocks: the calling thread's wall clock inside run_until, in ms.
    // Parallel is every dispatched parallel phase, its own lane plus the
    // wait for the others; lane wait is the part of it spent waiting after
    // its own lane finished; control is the rest — the serial control
    // phases and the any-work checks of skipped windows. Host timing: it
    // varies run to run, unlike every other field.
    double wall_ms_control = 0.0;
    double wall_ms_parallel = 0.0;
    double wall_ms_lane_wait = 0.0;
  };
  Stats stats() const;

 private:
  /// Cache-line-sized run of head-table entries.
  static constexpr std::size_t kHeadsPerLine = 8;
  struct alignas(64) HeadLine {
    common::Time head[kHeadsPerLine];
  };

  /// Shard s's head-table entry is lane s % threads_, position
  /// s / threads_ within that lane's run of lane_lines_ lines.
  std::size_t head_line(std::size_t s) const {
    const auto lanes = static_cast<std::size_t>(threads_);
    return (s % lanes) * lane_lines_ + s / lanes / kHeadsPerLine;
  }
  std::size_t head_column(std::size_t s) const {
    return s / static_cast<std::size_t>(threads_) % kHeadsPerLine;
  }
  /// Rebuilds the head table for `shards` device shards (doubling each
  /// lane's run when it must grow) and re-points every shard's mirror at
  /// it, which writes the current heads.
  void layout_heads(std::size_t shards);
  /// Drains the due shards among [lane, lane + threads_, ...) through
  /// `bound`.
  std::size_t run_lane(int lane, common::Time bound, std::size_t num_shards);
  /// Parallel phase: every device shard with an event due by `bound` runs
  /// run_until(bound).
  std::size_t drain_shards(common::Time bound);
  void worker_loop(int lane);

  Simulator control_;
  std::vector<std::unique_ptr<Simulator>> shards_;
  int threads_ = 1;
  /// Head table (see the file comment), kTimeInfinity in unused entries.
  std::vector<HeadLine> heads_;
  std::size_t lane_lines_ = 0;  // lines per lane
  /// Per-lane shard-run counters, one cache line each; summed by stats().
  struct alignas(64) LaneCounter {
    std::uint64_t shard_runs = 0;
  };
  std::vector<LaneCounter> lane_runs_;
  std::uint64_t windows_dispatched_ = 0;
  std::uint64_t windows_skipped_ = 0;
  // Phase clocks (Stats), caller thread only: two clock reads per
  // dispatched window, three when other lanes run, none for a skipped one.
  using Clock = std::chrono::steady_clock;
  Clock::duration run_wall_{};
  Clock::duration parallel_wall_{};
  Clock::duration lane_wait_wall_{};
  // True when worker lanes exceed hardware cores; disables every spin path
  // (hot mode included) so oversubscribed runs cost futex waits, not quanta.
  bool oversubscribed_ = false;

  // Pool coordination. A window dispatch publishes (bound_, active_shards_)
  // and bumps epoch_; workers spin briefly on epoch_ and fall back to
  // cv_work_. Completion is a pending_workers_ countdown the caller spins on
  // (cv_done_ fallback, entered only after flagging caller_waiting_ so the
  // last worker's notify is elided on the spin-success path). epoch_/
  // sleepers_/caller_waiting_/pending_workers_ use seq_cst where the "new
  // epoch missed by a worker about to sleep" and "finished worker missed by
  // a caller about to wait" races must resolve Dekker-style. While hot_ is
  // set (inside run_until) workers spin between windows without ever taking
  // the futex path: fleet windows are microseconds apart and a sleep/wake
  // cycle per window would dominate the run.
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  alignas(64) std::atomic<std::uint64_t> epoch_{0};
  alignas(64) std::atomic<int> pending_workers_{0};
  alignas(64) std::atomic<std::size_t> drained_{0};
  std::atomic<int> sleepers_{0};
  std::atomic<bool> stop_{false};
  std::atomic<bool> hot_{false};
  std::atomic<bool> caller_waiting_{false};
  common::Time bound_ = 0;          // published by the epoch_ bump
  std::size_t active_shards_ = 0;   // ditto
};

}  // namespace daris::sim
