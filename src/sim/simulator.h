// Discrete-event simulation engine.
//
// The GPU model reschedules kernel-completion events every time the fluid
// rate allocation changes, and a multi-GPU fleet multiplies that churn by the
// number of devices, so the engine is built around three ideas:
//
//  - Event nodes live in a chunked slab pool with a free list. Slabs are
//    allocated once and never relocated (growing a flat vector would move
//    every node — and its callback — through a type-erased move on each
//    doubling), and a node is recycled as soon as its event fires or is
//    cancelled, so steady-state simulation does no per-event allocation
//    (callbacks with small captures are stored inline in the node, see
//    sim/callback.h).
//  - The priority queue is an indexed 4-ary heap whose entries carry the sort
//    key (when, seq) inline — comparisons never chase into the pool — plus
//    the pool slot; a dense side array maps each slot to its heap position,
//    so cancel() removes the entry eagerly (swap-with-last plus one sift)
//    instead of leaving tombstones behind. The heap therefore holds exactly
//    the live events: pending() is its size and the queue genuinely shrinks
//    under cancel-heavy load.
//  - reschedule() moves a pending event to a new time by sifting it in place,
//    replacing the cancel-then-schedule round trip on the hottest path.
//
// Handles encode (pool slot, generation): the slot makes lookup O(1) and the
// generation — bumped every time a node is recycled — makes handles of fired
// or cancelled events go stale, so cancel()/reschedule() of an old handle is
// a safe no-op. Ties in time are broken by a monotone sequence number
// assigned at schedule (and reassigned on reschedule, exactly as a
// cancel+schedule pair would), which keeps runs deterministic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/time.h"
#include "sim/callback.h"

namespace daris::sim {

using common::Duration;
using common::Time;

/// Handle identifying a scheduled event; usable for cancellation and
/// in-place rescheduling. Stale handles (fired/cancelled events) are safe.
struct EventHandle {
  std::uint64_t id = 0;
  bool valid() const { return id != 0; }
};

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time: the later of this queue's own clock and the
  /// clock it follows (follow_clock; none by default).
  Time now() const { return now_ < *floor_ ? *floor_ : now_; }

  /// Schedules `cb` to run at absolute time `when`. Times in the past are
  /// clamped to now(): the event fires on the current tick, after events
  /// already queued for it (it draws a fresh sequence number).
  EventHandle schedule_at(Time when, Callback cb);

  /// Schedules `cb` to run `delay` after now (negative delays clamp to 0).
  EventHandle schedule_after(Duration delay, Callback cb);

  /// Cancels a pending event; safe to call with stale or invalid handles.
  void cancel(EventHandle handle);

  /// Moves a pending event to absolute time `when` in place: no allocation,
  /// the callback stays put, and the handle remains valid. The event draws a
  /// fresh sequence number, so ties at the new time order exactly as a
  /// cancel()+schedule_at() pair would. Calling it from inside the event's
  /// own callback re-arms the event (the periodic-timer pattern). Returns
  /// false — and does nothing — when the handle is stale or invalid.
  bool reschedule(EventHandle handle, Time when);

  /// Draws the next tie-break sequence number without scheduling anything.
  /// Support for two-level queues: a client that keeps many logical timers
  /// in its own ordered index and mirrors only the earliest into the
  /// simulator draws one number per logical (re)arm — exactly what a direct
  /// schedule/reschedule would have drawn — and later schedules its head
  /// event with that number, so ties against unrelated events break as if
  /// every logical timer sat in this queue individually. Each drawn number
  /// must be used for at most one pending event at a time.
  std::uint64_t draw_sequence() { return next_seq_++; }

  /// schedule_at() with an explicit tie-break number previously obtained
  /// from draw_sequence() (see there for the two-level-queue contract).
  EventHandle schedule_at_with_sequence(Time when, std::uint64_t seq,
                                        Callback cb);

  /// reschedule() with an explicit tie-break number previously obtained
  /// from draw_sequence(). Returns false — and does nothing — when the
  /// handle is stale or invalid.
  bool reschedule_with_sequence(EventHandle handle, Time when,
                                std::uint64_t seq);

  /// Runs until the queue is empty or `deadline` is reached. Events exactly
  /// at `deadline` are executed. Returns the number of events executed.
  std::size_t run_until(Time deadline);

  /// Runs until the queue is empty.
  std::size_t run();

  /// Executes the single next event, if any. Returns false when idle.
  bool step();

  bool empty() const { return heap_.empty(); }

  /// Number of pending (non-cancelled) events.
  std::size_t pending() const { return heap_.size(); }

  /// Absolute time of the earliest pending event, or kTimeInfinity when the
  /// queue is empty. Drives the conservative window in sim/sharded.h: the
  /// barrier runs every other shard strictly past this instant before the
  /// owning shard executes it.
  Time next_event_time() const {
    return heap_.empty() ? common::kTimeInfinity : heap_[0].when;
  }

  /// Advances the own clock to `when` without executing anything; no-op
  /// when `when` is not ahead of it.
  void advance_to(Time when) {
    if (now_ < when) now_ = when;
  }

  // --- sharded-engine hooks (sim/sharded.h) -------------------------------

  /// From now on now() never reads earlier than `leader.now()`: a device
  /// shard follows the control shard, so callbacks the control phase runs
  /// on a quiet shard (job releases, steals) observe the fleet-wide time
  /// without the barrier re-stamping every shard clock per window. The
  /// leader must outlive this simulator and must not advance while this
  /// one runs on another thread.
  void follow_clock(const Simulator& leader) { floor_ = &leader.now_; }

  /// Keeps `*slot` equal to next_event_time() from now on (written at once,
  /// then after every operation that can move the earliest event), so the
  /// barrier can tell which shards have work due without touching their
  /// heaps. nullptr stops the mirroring.
  void mirror_head(Time* slot) {
    head_ = slot;
    publish_head();
  }

  /// Pre-sizes the pool and heap for `events` concurrently-pending events.
  void reserve(std::size_t events);

  /// Self-profiler counters, accumulated since construction. Maintained
  /// unconditionally (one increment per event on paths that already touch
  /// the same cache lines) so profiling a run cannot change it.
  struct Stats {
    std::uint64_t events_executed = 0;   // fire_top() invocations
    std::uint64_t callbacks_inline = 0;  // scheduled with inline captures
    std::uint64_t callbacks_heap = 0;    // captures > kInlineCapacity
    std::uint64_t heap_high_water = 0;   // max concurrently-pending events
    std::uint64_t pool_slots = 0;        // event-node slots handed out
  };
  Stats stats() const {
    Stats s = stats_;
    s.pool_slots = pool_size_;
    return s;
  }

 private:
  static constexpr std::uint32_t kNpos = 0xffffffffu;
  static constexpr std::uint32_t kSlabShift = 8;  // 256 nodes per slab
  static constexpr std::uint32_t kSlabSize = 1u << kSlabShift;

  struct Node {
    std::uint32_t gen = 0;  // bumped on recycle; stale-handle detection
    std::uint32_t next_free = kNpos;
    // Number of fire_top() frames currently executing this node's callback.
    // A callback may re-arm its event at the current tick and pump a nested
    // step() that fires it again reentrantly, so a single "firing slot"
    // cannot represent the chain; the node is recycled only when the
    // outermost frame unwinds (and the event was not left re-armed).
    std::uint32_t firing_depth = 0;
    Callback cb;
  };

  /// Heap entry: sort key inline (cache-friendly compares) + owning slot.
  struct HeapEntry {
    Time when = 0;
    std::uint64_t seq = 0;  // tie-break order among equal times
    std::uint32_t slot = kNpos;
  };

  Node& node(std::uint32_t slot) {
    return slabs_[slot >> kSlabShift][slot & (kSlabSize - 1)];
  }
  const Node& node(std::uint32_t slot) const {
    return slabs_[slot >> kSlabShift][slot & (kSlabSize - 1)];
  }

  /// Handle for the node currently in `slot`.
  EventHandle handle_for(std::uint32_t slot) const {
    return EventHandle{((static_cast<std::uint64_t>(slot) + 1) << 32) |
                       node(slot).gen};
  }
  /// Slot for a handle, or kNpos when the handle is stale/invalid.
  std::uint32_t decode(EventHandle handle) const;

  std::uint32_t acquire_node();
  void release_node(std::uint32_t slot);

  /// Shared tail of reschedule/reschedule_with_sequence once the handle is
  /// decoded and validated: clamp, re-key, sift (or re-arm a firing node).
  void reschedule_resolved(std::uint32_t slot, std::uint32_t pos, Time when,
                           std::uint64_t seq);

  static bool earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }
  void heap_push(HeapEntry entry);
  void heap_remove(std::size_t pos);
  std::size_t sift_up(std::size_t pos);
  void sift_down(std::size_t pos);

  /// Pops and executes the heap root (the heap must be non-empty).
  void fire_top();

  /// Writes the earliest event time to the mirror slot, if any.
  void publish_head() {
    if (head_ != nullptr) *head_ = next_event_time();
  }

  static constexpr Time kNoFloor = INT64_MIN;

  Time now_ = 0;
  const Time* floor_ = &kNoFloor;  // follow_clock target
  Time* head_ = nullptr;           // mirror_head slot
  std::uint64_t next_seq_ = 1;
  std::vector<std::unique_ptr<Node[]>> slabs_;
  std::uint32_t pool_size_ = 0;  // slots handed out across all slabs
  // Heap position per pool slot (kNpos when off the heap), kept outside Node:
  // sift loops write one back-pointer per level, and the dense 4-byte stride
  // keeps those writes cache-resident where the ~64-byte Node stride did not.
  std::vector<std::uint32_t> pos_;
  std::vector<HeapEntry> heap_;  // ordered by (when, seq)
  std::uint32_t free_head_ = kNpos;
  Stats stats_;
};

}  // namespace daris::sim
