// Run self-profiler: counters describing how the *simulator* spent a run —
// events dispatched, event-heap high-water mark, callbacks stored inline vs
// spilled to the heap, fluid-solver flushes and the dirty-context hit rate,
// the sharded barrier's window and shard-run counts (fleet runs), and host
// wall-clock per phase. Filled by the experiment runners from
// sim::Simulator::stats() and gpusim::Gpu::solver_stats(); printed by the
// figure/scenario benches under --profile and embedded in the minibench
// JSON context. Plain counters only, so this header depends on nothing
// above common/.
#pragma once

#include <cstdint>
#include <string>

namespace daris::metrics {

struct RunProfile {
  // Event engine (sim::Simulator::stats()).
  std::uint64_t events_executed = 0;
  std::uint64_t callbacks_inline = 0;  // stored in the pooled node
  std::uint64_t callbacks_heap = 0;    // captures > 48B: spilled
  std::uint64_t heap_high_water = 0;   // max concurrently-pending events
  std::uint64_t pool_slots = 0;        // event-node slots ever handed out

  // Sharded barrier (sim::ShardedSimulator::stats(); zero outside fleets).
  std::uint64_t windows_dispatched = 0;  // parallel phases with work due
  std::uint64_t windows_skipped = 0;     // windows no device shard needed
  std::uint64_t shard_runs = 0;          // device-shard drains, all lanes

  // Fluid rate solver (gpusim::Gpu::solver_stats(), summed over devices).
  std::uint64_t solver_flushes = 0;          // flush_rates() invocations
  std::uint64_t solver_contexts_solved = 0;  // dirty: water-fill recomputed
  std::uint64_t solver_contexts_reused = 0;  // clean: cached shares reused

  // Host wall-clock, per phase.
  double wall_ms_offline = 0.0;  // model compile + AFET profiling + Alg. 1
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
