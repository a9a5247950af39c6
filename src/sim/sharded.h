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
//     device shard runs its local events strictly *before* Tc on a small
//     spin-then-sleep thread pool (the calling thread drains its own share).
//     Shards never touch each other's state, so any interleaving of this
//     phase produces the same result.
//  2. Control phase. All device clocks advance to Tc, then the control shard
//     drains serially through Tc — including events its callbacks schedule at
//     Tc — in (when, seq) order. Control callbacks may freely poke device
//     shards (release a job, steal a stage, cancel events): the workers are
//     parked at the barrier, and the phase transition establishes
//     happens-before in both directions.
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
#include <condition_variable>
#include <cstddef>
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

  /// Appends a fresh device shard whose clock starts at the control shard's
  /// now() (live GPU add). Must be called from the control phase — i.e. from
  /// a control-shard callback or outside run_until() — never from a device
  /// event. Returns the new shard index.
  int add_shard();

  /// Worker-lane count actually in use (>= 1; includes the calling thread).
  int threads() const { return threads_; }

  /// Fleet-wide clock == the control shard's clock. Device shards only ever
  /// trail it by the current window.
  common::Time now() const { return control_.now(); }

  /// Runs the two-phase window loop until every shard is drained up to (and
  /// including) `deadline`; all clocks end at `deadline`. Returns the number
  /// of events executed across all shards.
  std::size_t run_until(common::Time deadline);

  /// Pending events across the control shard and every device shard.
  std::size_t pending() const;
  bool empty() const;

  /// Pre-sizes the control heap and each device-shard heap.
  void reserve(std::size_t control_events, std::size_t per_shard_events);

  /// Self-profiler counters folded across all shards. Sums every field;
  /// heap_high_water becomes a fleet-wide upper bound (per-shard peaks need
  /// not coincide in time).
  Simulator::Stats stats() const;

 private:
  /// Drains shards [lane, lane + threads_, ...) through `bound`.
  std::size_t run_lane(int lane, common::Time bound, std::size_t num_shards);
  /// Parallel phase: every device shard runs run_until(bound).
  std::size_t drain_shards(common::Time bound);
  void worker_loop(int lane);

  Simulator control_;
  std::vector<std::unique_ptr<Simulator>> shards_;
  int threads_ = 1;
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
