#include "sim/simulator.h"

#include <algorithm>
#include <utility>

namespace daris::sim {

std::uint32_t Simulator::decode(EventHandle handle) const {
  if (!handle.valid()) return kNpos;
  const std::uint32_t slot = static_cast<std::uint32_t>(handle.id >> 32) - 1;
  if (slot >= pool_size_) return kNpos;
  if (node(slot).gen != static_cast<std::uint32_t>(handle.id)) return kNpos;
  return slot;
}

std::uint32_t Simulator::acquire_node() {
  if (free_head_ != kNpos) {
    const std::uint32_t slot = free_head_;
    Node& n = node(slot);
    free_head_ = n.next_free;
    n.next_free = kNpos;
    return slot;
  }
  if (pool_size_ == slabs_.size() * kSlabSize) {
    slabs_.push_back(std::make_unique<Node[]>(kSlabSize));
  }
  pos_.push_back(kNpos);
  return pool_size_++;
}

void Simulator::release_node(std::uint32_t slot) {
  Node& n = node(slot);
  ++n.gen;  // stale out every handle to this incarnation
  n.cb.reset();
  n.next_free = free_head_;
  free_head_ = slot;
}

std::size_t Simulator::sift_up(std::size_t pos) {
  const HeapEntry entry = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 4;
    if (!earlier(entry, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    pos_[heap_[pos].slot] = static_cast<std::uint32_t>(pos);
    pos = parent;
  }
  heap_[pos] = entry;
  pos_[entry.slot] = static_cast<std::uint32_t>(pos);
  return pos;
}

void Simulator::sift_down(std::size_t pos) {
  const HeapEntry entry = heap_[pos];
  const std::size_t size = heap_.size();
  for (;;) {
    const std::size_t first_child = 4 * pos + 1;
    if (first_child >= size) break;
    const std::size_t last_child = std::min(first_child + 4, size);
    std::size_t best = first_child;
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], entry)) break;
    heap_[pos] = heap_[best];
    pos_[heap_[pos].slot] = static_cast<std::uint32_t>(pos);
    pos = best;
  }
  heap_[pos] = entry;
  pos_[entry.slot] = static_cast<std::uint32_t>(pos);
}

void Simulator::heap_push(HeapEntry entry) {
  pos_[entry.slot] = static_cast<std::uint32_t>(heap_.size());
  heap_.push_back(entry);
  if (heap_.size() > stats_.heap_high_water) {
    stats_.heap_high_water = heap_.size();
  }
  sift_up(heap_.size() - 1);
}

void Simulator::heap_remove(std::size_t pos) {
  pos_[heap_[pos].slot] = kNpos;
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;
  heap_[pos] = last;
  pos_[last.slot] = static_cast<std::uint32_t>(pos);
  if (sift_up(pos) == pos) sift_down(pos);
}

EventHandle Simulator::schedule_at(Time when, Callback cb) {
  return schedule_at_with_sequence(when, next_seq_++, std::move(cb));
}

EventHandle Simulator::schedule_after(Duration delay, Callback cb) {
  return schedule_at(now() + (delay < 0 ? 0 : delay), std::move(cb));
}

void Simulator::cancel(EventHandle handle) {
  const std::uint32_t slot = decode(handle);
  if (slot == kNpos) return;
  const std::uint32_t pos = pos_[slot];
  if (pos == kNpos) return;  // the currently-firing event: already off the heap
  heap_remove(pos);
  publish_head();
  if (node(slot).firing_depth == 0) release_node(slot);
  // A firing node is recycled by fire_top() once its callback chain unwinds;
  // here the cancel only undoes a reschedule() made during that callback.
}

void Simulator::reschedule_resolved(std::uint32_t slot, std::uint32_t pos,
                                    Time when, std::uint64_t seq) {
  const Time t = now();
  if (when < t) when = t;
  if (pos != kNpos) {
    heap_[pos].when = when;
    heap_[pos].seq = seq;
    if (sift_up(pos) == pos) sift_down(pos);
  } else {
    heap_push(HeapEntry{when, seq, slot});  // re-arm from the event's callback
  }
  publish_head();
}

bool Simulator::reschedule(EventHandle handle, Time when) {
  const std::uint32_t slot = decode(handle);
  if (slot == kNpos) return false;
  const std::uint32_t pos = pos_[slot];
  if (pos == kNpos && node(slot).firing_depth == 0) return false;
  // Drawn only once validity is established, same slot a cancel+schedule gets.
  reschedule_resolved(slot, pos, when, next_seq_++);
  return true;
}

EventHandle Simulator::schedule_at_with_sequence(Time when, std::uint64_t seq,
                                                 Callback cb) {
  const Time t = now();
  if (when < t) when = t;  // clamp: past events fire on the current tick
  if (cb.on_heap()) {
    ++stats_.callbacks_heap;
  } else {
    ++stats_.callbacks_inline;
  }
  const std::uint32_t slot = acquire_node();
  node(slot).cb = std::move(cb);
  heap_push(HeapEntry{when, seq, slot});
  publish_head();
  return handle_for(slot);
}

bool Simulator::reschedule_with_sequence(EventHandle handle, Time when,
                                         std::uint64_t seq) {
  const std::uint32_t slot = decode(handle);
  if (slot == kNpos) return false;
  const std::uint32_t pos = pos_[slot];
  if (pos == kNpos && node(slot).firing_depth == 0) return false;
  reschedule_resolved(slot, pos, when, seq);
  return true;
}

void Simulator::fire_top() {
  ++stats_.events_executed;
  const std::uint32_t slot = heap_[0].slot;
  now_ = heap_[0].when;
  heap_remove(0);
  // Slab addresses are stable, so the callback runs in place: the node is
  // neither on the heap nor on the free list while it fires, so nothing can
  // overwrite it. The firing depth (not a flag: callbacks may pump a nested
  // step() that reentrantly fires the same re-armed event) defers recycling
  // until the outermost frame unwinds with the event not re-armed.
  Node& n = node(slot);
  ++n.firing_depth;
  n.cb();
  --n.firing_depth;
  if (n.firing_depth == 0 && pos_[slot] == kNpos) release_node(slot);
}

bool Simulator::step() {
  if (heap_.empty()) return false;
  fire_top();
  publish_head();
  return true;
}

std::size_t Simulator::run_until(Time deadline) {
  std::size_t executed = 0;
  while (!heap_.empty() && heap_[0].when <= deadline) {
    fire_top();
    ++executed;
  }
  if (now_ < deadline) now_ = deadline;
  publish_head();
  return executed;
}

std::size_t Simulator::run() {
  std::size_t executed = 0;
  while (!heap_.empty()) {
    fire_top();
    ++executed;
  }
  publish_head();
  return executed;
}

void Simulator::reserve(std::size_t events) {
  while (slabs_.size() * kSlabSize < events) {
    slabs_.push_back(std::make_unique<Node[]>(kSlabSize));
  }
  pos_.reserve(events);
  heap_.reserve(events);
}

}  // namespace daris::sim
