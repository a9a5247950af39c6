// Run self-profiler: counters describing how the *simulator* spent a run —
// events dispatched, event-heap high-water mark, callbacks stored inline vs
// spilled to the heap, the sharded barrier's window and shard-run counts and
// its phase clocks (the engine's own sim::ShardedSimulator::Stats, which
// RunProfile extends; the barrier's part stays zero outside fleets),
// fluid-solver flushes and the dirty-context hit rate, and host wall-clock
// per phase. Filled by the experiment runners from the simulator's stats()
// and gpusim::Gpu::solver_stats(); printed by the figure/scenario benches
// under --profile and embedded in the minibench JSON context. Plain
// counters only: the header depends on the sim layer and nothing else above
// common/.
#pragma once

#include <cstdint>
#include <string>

#include "sim/sharded.h"

namespace daris::metrics {

/// The event engine's counters (events_executed, callbacks_inline,
/// callbacks_heap, heap_high_water, pool_slots), the sharded barrier's
/// (windows_dispatched, windows_skipped, shard_runs and the wall_ms_control,
/// wall_ms_parallel and wall_ms_lane_wait phase clocks), plus the layers
/// above them.
struct RunProfile : sim::ShardedSimulator::Stats {
  // Fluid rate solver (gpusim::Gpu::solver_stats(), summed over devices).
  std::uint64_t solver_flushes = 0;          // flush_rates() invocations
  std::uint64_t solver_contexts_solved = 0;  // dirty: water-fill recomputed
  std::uint64_t solver_contexts_reused = 0;  // clean: cached shares reused

  // Per-device task records the run created (rt::Scheduler::task): the
  // (task, device) pairs that admitted a job, out of tasks x devices.
  std::uint64_t task_records = 0;

  // Host wall-clock, per phase.
  double wall_ms_offline = 0.0;  // model compile + AFET profiling + Alg. 1
  double wall_ms_alg1 = 0.0;     // the Algorithm 1 part of wall_ms_offline
  double wall_ms_run = 0.0;      // the simulated horizon
  double wall_ms_total = 0.0;

  /// Fraction of per-flush context visits served from the cached
  /// water-fill (the PR 5 incremental-solver payoff).
  double dirty_hit_rate() const {
    const std::uint64_t visits =
        solver_contexts_solved + solver_contexts_reused;
    return visits == 0 ? 0.0
                       : static_cast<double>(solver_contexts_reused) /
                             static_cast<double>(visits);
  }
  /// Fraction of scheduled callbacks that stayed inline (no allocation).
  double inline_rate() const {
    const std::uint64_t total = callbacks_inline + callbacks_heap;
    return total == 0 ? 0.0
                      : static_cast<double>(callbacks_inline) /
                            static_cast<double>(total);
  }

  RunProfile& operator+=(const RunProfile& o);

  /// Human-readable multi-line block (the --profile output).
  std::string to_string() const;

  /// Appends the profile as a JSON object. Wall-clock fields are host
  /// timing — excluded by callers that need deterministic digests.
  void append_json(std::string* out) const;
};

}  // namespace daris::metrics
