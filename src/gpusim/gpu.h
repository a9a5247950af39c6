// Simulated GPU with MPS-style contexts and CUDA-stream semantics.
//
// Execution model (re-evaluated at every state change, i.e. a fluid
// processor-sharing approximation):
//   1. Within each context, concurrently resident kernels water-fill the
//      context's SM quota, each capped at its own parallelism.
//   2. If the sum of allocations across contexts exceeds the physical SM
//      count (oversubscription), allocations are rescaled proportionally.
//   3. A kernel allocated s SMs with P blocks progresses at rate
//      P / waves(P, s) where waves interpolates between ceil(P/s) (hard wave
//      quantisation) and P/s (ideal fluid) — tail waves waste SMs unless
//      other kernels fill them, which is why colocation can beat batching.
//   4. Multiple streams resident in one context pay an efficiency penalty
//      (driver serialisation / shared cache), and heavy global
//      oversubscription pays an L2-contention penalty.
//   5. Aggregate memory-bandwidth demand above the spec's bandwidth rescales
//      every kernel's progress (fluid stall model).
//
// Allocation engine (see docs/ARCHITECTURE.md "Executor model"): resident
// kernels are bucketed per context in parallelism-sorted small vectors, and
// each context's water-fill is cached and recomputed only when that context
// changed (kernel added or removed) — the dirty flag each kernel event
// sets; the flush that consumes it re-solves only what the epoch actually
// touched. The per-context efficiency factors that need
// transcendentals (the small-quota exp penalty) or counts (the intra-context
// penalty) are cached the same way. Predicted kernel completions live in a
// Gpu-internal index (per-kernel fire time + a tie-break number drawn from
// the simulator); only the earliest is mirrored as a real simulator event,
// so a rate change re-keys N completions with N scalar writes and at most
// one heap operation instead of N heap reschedules. All global folds (total
// allocation, L2 block pressure, bandwidth demand) intentionally run in the
// exact summation order of the historical from-scratch solver, and the
// completion index reproduces its (time, sequence) keys exactly, so the
// simulated timelines are bit-identical to it (figure outputs are
// byte-stable across the swap). Wholesale deferral of the solve to the end
// of the timestamp was measured to NOT be outcome-equivalent — it permutes
// tie-break sequence draws against launch events in structurally
// synchronised bursts, and one flipped tie cascades through the jitter RNG —
// so same-tick events each run the (cheap, incremental) solve instead, and
// the coalescing lives in the caches plus a settle guard that skips the
// already-settled tick.
//
// Kernel-launch latency is serialised within a stream (the GPU is idle for
// that stream while a launch is in flight), which is what batching amortises
// and spatial colocation hides.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "common/rng.h"
#include "common/time.h"
#include "gpusim/gpu_spec.h"
#include "gpusim/kernel.h"
#include "sim/simulator.h"

namespace daris::gpusim {

using common::Time;

using ContextId = int;
using StreamId = int;

class Gpu {
 public:
  Gpu(sim::Simulator& sim, GpuSpec spec, std::uint64_t seed = 0x5EEDull);
  Gpu(const Gpu&) = delete;
  Gpu& operator=(const Gpu&) = delete;

  const GpuSpec& spec() const { return spec_; }
  sim::Simulator& simulator() { return sim_; }

  /// Replaces the device spec mid-run (straggler / clock-throttle injection:
  /// cluster::Fleet::slow_gpu feeds the node's re-resolved spec through
  /// here). Progress is settled under the old rates first, then every
  /// resident kernel's rate — and its predicted completion — is re-derived
  /// from the new SM count and bandwidth, drawing fresh tie-break numbers
  /// exactly as any other rate change does, so the run stays deterministic.
  /// Context quotas are untouched: a slowdown shrinks the physical SM count
  /// under the existing partition and the oversubscription rescale (step 2
  /// of the solve) charges every context proportionally.
  void set_spec(const GpuSpec& spec);

  /// Fail-stop: drops all queued commands and resident kernels without
  /// running their completion callbacks, after folding the final busy
  /// interval (under the old rates) into the utilisation integral. Pending
  /// launch events go stale via the per-stream generation guard and the
  /// mirrored completion event is cancelled, so a halted device fires no
  /// further events. Dropped kernels do not count as completed. The device
  /// stays structurally valid (contexts/streams remain) but idle.
  void halt();

  /// Creates an MPS context limited to `sm_quota` SMs (Eq. 9 output). The
  /// quota is fixed for the context's lifetime: DARIS adapts at run time by
  /// staging and migration between these partitions, never by resizing one.
  ContextId create_context(double sm_quota);

  /// Creates an in-order stream bound to `ctx`.
  StreamId create_stream(ContextId ctx);

  /// Enqueues a kernel launch on a stream (asynchronous, FIFO order).
  void launch_kernel(StreamId s, const KernelDesc& desc);

  /// Enqueues a host callback; runs once all prior work on the stream is
  /// complete (models cudaLaunchHostFunc / event-driven stage completion).
  /// Callbacks with <= sim::Callback::kInlineCapacity bytes of captures are
  /// stored inline (no allocation), same as simulator events.
  void enqueue_callback(StreamId s, sim::Callback fn);

  /// Number of enqueued-but-unfinished commands on the stream (0 = idle).
  std::size_t stream_depth(StreamId s) const;

  /// Integral of busy SMs over time, in SM-nanoseconds.
  double busy_sm_integral() const;

  /// Average SM utilisation in [0,1] over [0, horizon].
  double utilization(Time horizon) const;

  /// Completed kernel count (for tests / microbenchmarks).
  std::uint64_t kernels_completed() const { return kernels_completed_; }

  /// Self-profiler counters for the incremental rate solver: flush count
  /// and, per flush, how many contexts were re-solved (dirty) vs served
  /// from their cached water-fill. Maintained unconditionally; reading
  /// them cannot perturb the run.
  struct SolverStats {
    std::uint64_t flushes = 0;
    std::uint64_t contexts_solved = 0;
    std::uint64_t contexts_reused = 0;
  };
  const SolverStats& solver_stats() const { return solver_stats_; }

  /// Test/tooling snapshot of one resident kernel's allocation state.
  struct ActiveKernelInfo {
    StreamId stream = -1;
    ContextId ctx = 0;
    double parallelism = 0.0;
    double mem_intensity = 0.0;
    double remaining = 0.0;  // SM-us
    double rate = 0.0;       // SM (work per us)
  };

  /// Snapshot of all resident kernels in arrival order, with remaining
  /// work reported as of now. Rates are always current (every mutation
  /// re-solves inline), and the fold is const and non-mutating — like
  /// busy_sm_integral() — so observing a run cannot perturb its
  /// floating-point settle intervals or its byte-stable timeline. The
  /// differential test compares these rates against a from-scratch
  /// reference solver.
  std::vector<ActiveKernelInfo> debug_active_kernels() const;

 private:
  struct Command {
    enum class Kind { kKernel, kCallback } kind;
    KernelDesc kernel;
    sim::Callback callback;
  };

  struct StreamState {
    // Move-only: the queue holds move-only Callbacks, and deque's copy ctor
    // is unconstrained, so without the deleted copy the vector growth path
    // would select an ill-formed copy over the (throwing) move.
    StreamState() = default;
    StreamState(StreamState&&) = default;
    StreamState& operator=(StreamState&&) = default;
    StreamState(const StreamState&) = delete;
    StreamState& operator=(const StreamState&) = delete;

    ContextId ctx = 0;
    std::deque<Command> queue;
    bool busy = false;           // a kernel is launching or resident
    KernelDesc in_flight;        // the kernel being launched/executed
    std::uint64_t gen = 0;       // guards stale launch events
    double jitter_dev = 0.0;     // AR(1) interference state
  };

  struct ContextState {
    double quota = 0.0;
    // Kernel launches serialise within a context (driver context lock):
    // only one launch can be in flight; further streams queue here. This is
    // why multiple MPS contexts out-launch one multi-stream context.
    bool launching = false;
    std::deque<StreamId> launch_queue;

    // --- Incrementally maintained allocation bucket ---
    // Resident kernels sorted by (parallelism, arrival) — the exact order
    // the historical global sort produced per context — plus the cached
    // water-fill shares aligned with it. `dirty` marks the bucket (or, after
    // set_spec, the efficiency factors) as changed since the last flush;
    // clean contexts reuse their cached shares verbatim.
    std::vector<int> members;    // slots, insertion-sorted by parallelism
    std::vector<double> shares;  // cached water-fill, aligned with members
    double eff_intra = 1.0;      // cached 1/(1 + a*min(m-1, sat))
    double eff_quota = 1.0;      // cached 1 - a*exp(-quota/q0)
    bool dirty = false;
  };

  struct ActiveKernel {
    StreamId stream = -1;
    ContextId ctx = 0;
    double parallelism = 1.0;
    double mem_intensity = 0.0;
    double remaining = 0.0;  // SM-us
    double rate = 0.0;       // SM (work per us)
    Time last_update = 0;
    // Predicted completion in the two-level queue: absolute fire time
    // (kTimeInfinity while unscheduled/starved) and the tie-break number
    // drawn when the rate last changed — exactly the (when, seq) key a
    // per-kernel simulator event would carry. Completion staleness cannot
    // occur: the armed head is the only path that retires a kernel.
    Time fire_time = common::kTimeInfinity;
    std::uint64_t vseq = 0;
    int bucket_pos = -1;  // index into contexts_[ctx].members/shares
  };

  void advance_stream(StreamId s);
  void begin_launch(StreamId s);
  void on_launch_done(StreamId s, std::uint64_t gen);
  /// Retires the resident kernel in `slot`: settles progress, removes it
  /// from its bucket and the arrival order, re-solves rates, and advances
  /// the owning stream.
  void complete_kernel(int slot);
  /// Fires when the earliest predicted completion is due (the single
  /// simulator event the two-level completion queue maintains).
  void on_completion_event();
  /// Mirrors the queue head — `best` is the slot with the earliest
  /// (fire_time, vseq), found by flush_rates' apply pass, or -1 when no
  /// completion is pending — into the simulator, preserving its exact key;
  /// no-op when the armed head is unchanged.
  void arm_completion_event(int best);
  void settle_progress();
  /// Marks a context's cached water-fill (and the global aggregates) stale.
  void mark_context_dirty(ContextId ctx);
  /// Re-solves rates for the current resident set: water-fills dirty
  /// contexts, re-derives the global scale factors, re-keys the predicted
  /// completions whose rate changed, and re-arms the completion event.
  void flush_rates();
  double quantized_rate(double parallelism, double share) const;
  double context_eff_quota(double quota) const;
  int acquire_slot();

  sim::Simulator& sim_;
  GpuSpec spec_;
  common::Rng rng_;
  // Per-launch jitter constants hoisted out of the AR(1) draw (same
  // operations, precomputed once — the draw stays bit-identical).
  double jitter_rho_ = 0.0;
  double jitter_innovation_scale_ = 1.0;
  std::vector<ContextState> contexts_;
  std::vector<StreamState> streams_;
  // Slot-stable storage for resident kernels (free-listed; slots never
  // move), the arrival-order view the global folds iterate, and the
  // per-timestamp dirty state of the epoch-coalesced solver.
  std::vector<ActiveKernel> slots_;
  std::vector<int> free_slots_;
  std::vector<int> order_;  // arrival order (historical active_ vector order)
  // Two-level completion queue head: the one simulator event mirroring the
  // earliest predicted completion, and the (slot, key) it is armed for.
  sim::EventHandle completion_event_;
  int armed_slot_ = -1;
  Time armed_time_ = 0;
  std::uint64_t armed_seq_ = 0;
  // Scratch buffer for flush_rates(), reused across calls so the rate
  // solver does not allocate in steady state (matching the event engine's
  // guarantee).
  std::vector<double> wf_raw_;
  double busy_integral_ = 0.0;  // SM-ns
  Time busy_last_update_ = 0;
  std::uint64_t kernels_completed_ = 0;
  SolverStats solver_stats_;
};

}  // namespace daris::gpusim
