#include "sim/sharded.h"

#include <algorithm>
#include <cassert>
#include <iterator>

namespace daris::sim {

namespace {

// One busy-wait step. Windows are typically a handful of microseconds of
// simulation work, so a short spin beats a futex round trip; the pause/yield
// keeps the spinning hardware thread polite.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::this_thread::yield();
#endif
}

// Spin budget before falling back to the condition variable. Generous enough
// that back-to-back windows never sleep, small enough that an idle pool
// (e.g. during a long serial control cascade) parks within ~100us.
constexpr int kSpinIterations = 20000;

}  // namespace

ShardedSimulator::ShardedSimulator(int device_shards, int threads) {
  if (device_shards < 0) device_shards = 0;
  const unsigned hw_raw = std::thread::hardware_concurrency();
  const int hw = static_cast<int>(hw_raw == 0 ? 1 : hw_raw);
  if (threads <= 0) threads = hw;
  threads_ = std::max(1, std::min(threads, std::max(device_shards, 1)));
  lane_runs_.resize(static_cast<std::size_t>(threads_));
  shards_.reserve(static_cast<std::size_t>(device_shards) + 4);
  for (int i = 0; i < device_shards; ++i) {
    shards_.push_back(std::make_unique<Simulator>());
    shards_.back()->follow_clock(control_);
  }
  layout_heads(shards_.size());
  // More lanes than cores (explicitly requested — the differential tests do
  // this to force real cross-thread execution on small CI boxes): spinning
  // would burn whole scheduler quanta per window, so the pool drops straight
  // to the futex path and never goes hot.
  oversubscribed_ = threads_ > hw;
  // Lanes 0..threads_-2 are pool workers; lane threads_-1 is the caller.
  for (int lane = 0; lane + 1 < threads_; ++lane) {
    workers_.emplace_back([this, lane] { worker_loop(lane); });
  }
}

ShardedSimulator::~ShardedSimulator() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_.store(true, std::memory_order_seq_cst);
    cv_work_.notify_all();
  }
  for (auto& w : workers_) w.join();
}

int ShardedSimulator::add_shard() {
  shards_.push_back(std::make_unique<Simulator>());
  shards_.back()->follow_clock(control_);
  layout_heads(shards_.size());  // a live add is rare: O(shards) is fine
  return static_cast<int>(shards_.size()) - 1;
}

void ShardedSimulator::layout_heads(std::size_t shards) {
  const std::size_t lanes = static_cast<std::size_t>(threads_);
  const std::size_t per_lane = (shards + lanes - 1) / lanes;
  std::size_t lines = std::max<std::size_t>(lane_lines_, 1);
  while (lines * kHeadsPerLine < per_lane) lines *= 2;
  lane_lines_ = lines;
  HeadLine idle;
  std::fill(std::begin(idle.head), std::end(idle.head),
            common::kTimeInfinity);
  heads_.assign(lanes * lane_lines_, idle);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards_[s]->mirror_head(&heads_[head_line(s)].head[head_column(s)]);
  }
}

std::size_t ShardedSimulator::run_lane(int lane, common::Time bound,
                                       std::size_t num_shards) {
  // The lane's heads are its own run of lines, in shard order.
  const HeadLine* heads =
      heads_.data() + static_cast<std::size_t>(lane) * lane_lines_;
  const auto lanes = static_cast<std::size_t>(threads_);
  std::size_t executed = 0;
  std::uint64_t runs = 0;
  std::size_t k = 0;
  for (std::size_t s = static_cast<std::size_t>(lane); s < num_shards;
       s += lanes, ++k) {
    if (heads[k / kHeadsPerLine].head[k % kHeadsPerLine] > bound) continue;
    executed += shards_[s]->run_until(bound);
    ++runs;
  }
  lane_runs_[static_cast<std::size_t>(lane)].shard_runs += runs;
  return executed;
}

std::size_t ShardedSimulator::drain_shards(common::Time bound) {
  const std::size_t n = shards_.size();
  if (n == 0) return 0;
  // Window fast path: the head table is quiescent here (the previous
  // parallel phase completed through the pending_workers_ barrier), so it
  // can be scanned directly. Windows whose shards hold nothing at or before
  // `bound` — back-to-back control timers, mostly — skip the dispatch
  // entirely. Unused entries hold kTimeInfinity.
  bool any_work = false;
  for (const HeadLine& line : heads_) {
    for (const common::Time head : line.head) any_work |= head <= bound;
    if (any_work) break;
  }
  if (!any_work) {
    ++windows_skipped_;
    return 0;
  }
  ++windows_dispatched_;
  const Clock::time_point start = Clock::now();
  if (workers_.empty()) {
    const std::size_t executed = run_lane(0, bound, n);
    parallel_wall_ += Clock::now() - start;
    return executed;
  }
  bound_ = bound;
  active_shards_ = n;
  drained_.store(0, std::memory_order_relaxed);
  wake_workers();
  const std::size_t executed = run_lane(threads_ - 1, bound, n);
  const Clock::time_point lane_done = Clock::now();
  join_workers();
  const Clock::time_point end = Clock::now();
  parallel_wall_ += end - start;
  lane_wait_wall_ += end - lane_done;
  return executed + drained_.load(std::memory_order_relaxed);
}

void ShardedSimulator::wake_workers() {
  pending_workers_.store(static_cast<int>(workers_.size()),
                         std::memory_order_relaxed);
  epoch_.fetch_add(1, std::memory_order_seq_cst);
  if (sleepers_.load(std::memory_order_seq_cst) > 0) {
    // A worker past its sleepers_ increment is inside the mutex until it
    // enters cv_work_.wait(), so locking here cannot race ahead of it.
    std::lock_guard<std::mutex> lk(mu_);
    cv_work_.notify_all();
  }
}

void ShardedSimulator::join_workers() {
  for (int spin = oversubscribed_ ? kSpinIterations : 0;
       pending_workers_.load(std::memory_order_acquire) > 0; ++spin) {
    if (spin < kSpinIterations) {
      cpu_relax();
      continue;
    }
    caller_waiting_.store(true, std::memory_order_seq_cst);
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_done_.wait(lk, [&] {
        return pending_workers_.load(std::memory_order_seq_cst) == 0;
      });
    }
    caller_waiting_.store(false, std::memory_order_relaxed);
  }
}

void ShardedSimulator::for_each_shard(const std::function<void(int)>& fn) {
  assert(!in_run_ && "for_each_shard runs outside run_until only");
  // The pool stays cold (hot_ is off outside run_until): woken through the
  // futex path, each worker parks again once its spin budget runs out. With
  // no workers the caller's lane is every shard.
  active_shards_ = shards_.size();
  pass_ = &fn;
  wake_workers();
  run_pass(threads_ - 1);
  join_workers();
  pass_ = nullptr;
}

void ShardedSimulator::run_pass(int lane) const {
  const auto lanes = static_cast<std::size_t>(threads_);
  for (std::size_t s = static_cast<std::size_t>(lane); s < active_shards_;
       s += lanes) {
    (*pass_)(static_cast<int>(s));
  }
}

void ShardedSimulator::worker_loop(int lane) {
  std::uint64_t seen = 0;
  for (;;) {
    int spin = oversubscribed_ ? kSpinIterations : 0;
    std::uint64_t e = epoch_.load(std::memory_order_seq_cst);
    while (e == seen && !stop_.load(std::memory_order_acquire)) {
      if (!oversubscribed_ && hot_.load(std::memory_order_relaxed)) {
        // Mid-run: the next window is microseconds away. Spin flat out —
        // a futex round trip here would cost more than the window itself.
        cpu_relax();
        spin = 0;
      } else if (++spin > kSpinIterations) {
        std::unique_lock<std::mutex> lk(mu_);
        sleepers_.fetch_add(1, std::memory_order_seq_cst);
        cv_work_.wait(lk, [&] {
          return epoch_.load(std::memory_order_seq_cst) != seen ||
                 stop_.load(std::memory_order_acquire);
        });
        sleepers_.fetch_sub(1, std::memory_order_seq_cst);
        spin = 0;
      } else {
        cpu_relax();
      }
      e = epoch_.load(std::memory_order_seq_cst);
    }
    if (e == seen) return;  // stop_ with no new work
    seen = e;
    if (pass_ != nullptr) {
      run_pass(lane);
    } else {
      const std::size_t executed = run_lane(lane, bound_, active_shards_);
      if (executed != 0) {
        drained_.fetch_add(executed, std::memory_order_relaxed);
      }
    }
    if (pending_workers_.fetch_sub(1, std::memory_order_seq_cst) == 1) {
      // Last worker out: notify only if the caller gave up spinning —
      // caller_waiting_ vs pending_workers_ is the same Dekker pairing as
      // epoch_ vs sleepers_, so a caller about to wait cannot be missed.
      if (caller_waiting_.load(std::memory_order_seq_cst)) {
        std::lock_guard<std::mutex> lk(mu_);
        cv_done_.notify_one();
      }
    }
  }
}

std::size_t ShardedSimulator::run_until(common::Time deadline) {
  // Keep the pool hot for the whole run: between windows workers spin on
  // epoch_ instead of parking, so per-window dispatch is a fetch_add plus a
  // few cache-line transfers. They fall back to the futex path once the run
  // returns and hot_ drops.
  if (!workers_.empty() && !oversubscribed_) {
    hot_.store(true, std::memory_order_relaxed);
  }
  in_run_ = true;
  const Clock::time_point run_start = Clock::now();
  std::size_t executed = 0;
  for (;;) {
    const common::Time tc = control_.next_event_time();
    if (tc > deadline) {
      // No control work left in the window: drain every shard through the
      // deadline and advance all clocks to it.
      executed += drain_shards(deadline);
      executed += control_.run_until(deadline);
      for (auto& s : shards_) s->advance_to(deadline);
      hot_.store(false, std::memory_order_relaxed);
      in_run_ = false;
      run_wall_ += Clock::now() - run_start;
      return executed;
    }
    // Parallel phase: device-local events strictly before Tc.
    executed += drain_shards(tc - 1);
    // Control phase: the serial (when, seq)-ordered batch at Tc, cascades
    // included. Device clocks need no update: each shard's now() reads the
    // control clock as its floor.
    executed += control_.run_until(tc);
  }
}

void ShardedSimulator::reserve(std::size_t control_events,
                               std::size_t per_shard_events) {
  control_.reserve(control_events);
  for (auto& s : shards_) s->reserve(per_shard_events);
}

ShardedSimulator::Stats ShardedSimulator::stats() const {
  Stats total;
  static_cast<Simulator::Stats&>(total) = control_.stats();
  for (const auto& s : shards_) {
    const Simulator::Stats st = s->stats();
    total.events_executed += st.events_executed;
    total.callbacks_inline += st.callbacks_inline;
    total.callbacks_heap += st.callbacks_heap;
    total.heap_high_water += st.heap_high_water;
    total.pool_slots += st.pool_slots;
  }
  total.windows_dispatched = windows_dispatched_;
  total.windows_skipped = windows_skipped_;
  for (const LaneCounter& lane : lane_runs_) {
    total.shard_runs += lane.shard_runs;
  }
  using Ms = std::chrono::duration<double, std::milli>;
  total.wall_ms_control = Ms(run_wall_ - parallel_wall_).count();
  total.wall_ms_parallel = Ms(parallel_wall_).count();
  total.wall_ms_lane_wait = Ms(lane_wait_wall_).count();
  return total;
}

}  // namespace daris::sim
