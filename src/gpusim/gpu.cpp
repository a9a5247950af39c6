#include "gpusim/gpu.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace daris::gpusim {

namespace {
constexpr double kEpsilonWork = 1e-9;   // SM-us below which a kernel is done
constexpr double kRateTolerance = 1e-9;
}  // namespace

Gpu::Gpu(sim::Simulator& sim, GpuSpec spec, std::uint64_t seed)
    : sim_(sim),
      spec_(spec),
      rng_(seed),
      jitter_rho_(std::clamp(spec_.jitter_rho, 0.0, 0.999)),
      jitter_innovation_scale_(std::sqrt(1.0 - jitter_rho_ * jitter_rho_)) {}

double Gpu::context_eff_quota(double quota) const {
  return 1.0 -
         spec_.quota_penalty_a * std::exp(-quota / spec_.quota_penalty_q0);
}

ContextId Gpu::create_context(double sm_quota) {
  assert(sm_quota > 0.0);
  ContextState state;
  state.quota = sm_quota;
  state.eff_quota = context_eff_quota(sm_quota);
  contexts_.push_back(std::move(state));
  return static_cast<ContextId>(contexts_.size()) - 1;
}

void Gpu::set_spec(const GpuSpec& spec) {
  spec_ = spec;
  jitter_rho_ = std::clamp(spec_.jitter_rho, 0.0, 0.999);
  jitter_innovation_scale_ = std::sqrt(1.0 - jitter_rho_ * jitter_rho_);
  // Quota-shaped efficiency caches depend on the spec's penalty constants;
  // recompute them (water-fill shares depend only on quota + members and
  // stay valid, but the rate recompute below consumes eff_quota).
  for (auto& cs : contexts_) {
    cs.eff_quota = context_eff_quota(cs.quota);
    // eff_intra depends on alpha_intra/intra_saturation; force a re-solve.
    cs.dirty = true;
  }
  if (!order_.empty() || completion_event_.valid()) flush_rates();
}

void Gpu::halt() {
  // Fold the final interval under the old rates so utilisation up to the
  // failure instant is preserved, then drop everything.
  settle_progress();
  for (auto& st : streams_) {
    st.queue.clear();
    st.busy = false;
    ++st.gen;  // pending on_launch_done events go stale
  }
  for (auto& cs : contexts_) {
    cs.launching = false;
    cs.launch_queue.clear();
    cs.members.clear();
    cs.shares.clear();
    cs.eff_intra = 1.0;
    cs.dirty = false;
  }
  for (const int slot : order_) {
    auto& ak = slots_[static_cast<std::size_t>(slot)];
    ak.fire_time = common::kTimeInfinity;
    ak.bucket_pos = -1;
    free_slots_.push_back(slot);
  }
  order_.clear();
  arm_completion_event(-1);
}

StreamId Gpu::create_stream(ContextId ctx) {
  assert(ctx >= 0 && ctx < static_cast<int>(contexts_.size()));
  StreamState s;
  s.ctx = ctx;
  streams_.push_back(std::move(s));
  return static_cast<StreamId>(streams_.size()) - 1;
}

void Gpu::launch_kernel(StreamId s, const KernelDesc& desc) {
  Command cmd{Command::Kind::kKernel, desc, {}};
  streams_[static_cast<std::size_t>(s)].queue.push_back(std::move(cmd));
  advance_stream(s);
}

void Gpu::enqueue_callback(StreamId s, sim::Callback fn) {
  Command cmd{Command::Kind::kCallback, {}, std::move(fn)};
  streams_[static_cast<std::size_t>(s)].queue.push_back(std::move(cmd));
  advance_stream(s);
}

std::size_t Gpu::stream_depth(StreamId s) const {
  const auto& st = streams_[static_cast<std::size_t>(s)];
  return st.queue.size() + (st.busy ? 1 : 0);
}

void Gpu::advance_stream(StreamId s) {
  auto& st = streams_[static_cast<std::size_t>(s)];
  // Run host callbacks immediately: in-order semantics guarantee all prior
  // kernels have completed whenever the stream head is reached while idle.
  while (!st.busy && !st.queue.empty() &&
         st.queue.front().kind == Command::Kind::kCallback) {
    auto fn = std::move(st.queue.front().callback);
    st.queue.pop_front();
    fn();
  }
  if (st.busy || st.queue.empty()) return;

  // Head is a kernel: begin the launch phase (stream busy, no SMs used).
  // Launches serialise within the context; wait for the context lock.
  st.busy = true;
  st.in_flight = st.queue.front().kernel;
  st.queue.pop_front();
  auto& ctx = contexts_[static_cast<std::size_t>(st.ctx)];
  if (ctx.launching) {
    ctx.launch_queue.push_back(s);
    return;
  }
  begin_launch(s);
}

void Gpu::begin_launch(StreamId s) {
  auto& st = streams_[static_cast<std::size_t>(s)];
  contexts_[static_cast<std::size_t>(st.ctx)].launching = true;
  const std::uint64_t gen = ++st.gen;
  sim_.schedule_after(common::from_us(spec_.launch_overhead_us),
                      [this, s, gen] { on_launch_done(s, gen); });
}

int Gpu::acquire_slot() {
  if (!free_slots_.empty()) {
    const int slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  slots_.emplace_back();
  return static_cast<int>(slots_.size()) - 1;
}

void Gpu::on_launch_done(StreamId s, std::uint64_t gen) {
  auto& st = streams_[static_cast<std::size_t>(s)];
  if (st.gen != gen) return;  // stale
  assert(st.busy);
  const KernelDesc desc = st.in_flight;

  // Release the context launch lock and start the next queued launch.
  auto& ctx_state = contexts_[static_cast<std::size_t>(st.ctx)];
  ctx_state.launching = false;
  if (!ctx_state.launch_queue.empty()) {
    const StreamId next = ctx_state.launch_queue.front();
    ctx_state.launch_queue.pop_front();
    begin_launch(next);
  }

  // Per-execution jitter models clock/cache variability, amplified by the
  // number of co-resident kernels and persistent across consecutive kernels
  // of a stream (AR(1)): interference states outlive single kernels, which
  // is what lets whole stages overshoot the MRET window (Fig. 9).
  double jitter = 1.0;
  if (spec_.jitter_cv > 0.0) {
    const double cv =
        spec_.jitter_cv *
        (1.0 + spec_.jitter_load_slope * static_cast<double>(order_.size()));
    const double innovation =
        rng_.normal(0.0, cv * jitter_innovation_scale_);
    st.jitter_dev = jitter_rho_ * st.jitter_dev + innovation;
    jitter = std::max(0.5, 1.0 + st.jitter_dev);
  }

  // Residency state updates eagerly; progress needs no settling here —
  // rates are unchanged until the solve below, which settles first (and
  // the new kernel starts with none).
  const int slot = acquire_slot();
  ActiveKernel& ak = slots_[static_cast<std::size_t>(slot)];
  ak.stream = s;
  ak.ctx = st.ctx;
  ak.parallelism = std::max(1.0, desc.parallelism);
  ak.mem_intensity = std::max(0.0, desc.mem_intensity);
  ak.remaining = std::max(kEpsilonWork, desc.work * jitter);
  ak.rate = 0.0;
  ak.last_update = sim_.now();
  ak.fire_time = common::kTimeInfinity;
  ak.vseq = 0;
  order_.push_back(slot);

  // Insert into the context bucket keeping (parallelism, arrival) order —
  // the per-context order the historical global sort produced. Linear from
  // the tail: buckets are small and arrivals often near-sorted.
  auto& members = ctx_state.members;
  std::size_t pos = members.size();
  while (pos > 0 &&
         slots_[static_cast<std::size_t>(members[pos - 1])].parallelism >
             ak.parallelism) {
    --pos;
  }
  members.insert(members.begin() + static_cast<std::ptrdiff_t>(pos), slot);
  ak.bucket_pos = static_cast<int>(pos);
  for (std::size_t i = pos + 1; i < members.size(); ++i) {
    slots_[static_cast<std::size_t>(members[i])].bucket_pos =
        static_cast<int>(i);
  }

  mark_context_dirty(st.ctx);
  flush_rates();
}

void Gpu::on_completion_event() {
  // The single mirrored event fired: the armed head names the due kernel's
  // slot directly — O(1), replacing the historical scan of the resident set
  // for the (stream, generation) match.
  const int slot = armed_slot_;
  armed_slot_ = -1;
  completion_event_ = sim::EventHandle{};  // consumed by firing
  if (slot < 0) return;  // defensive: disarmed concurrently
  complete_kernel(slot);
}

void Gpu::complete_kernel(int slot) {
  ActiveKernel& ak = slots_[static_cast<std::size_t>(slot)];
  // Settle before removal so the finished kernel's busy contribution over
  // its final interval is folded into the integral (skipped when an earlier
  // same-tick event already settled everything; see flush_rates).
  if (busy_last_update_ != sim_.now()) settle_progress();
  // Floating-point residue is expected; anything material is a logic error.
  assert(ak.remaining < 1.0 && "kernel completed with work left");
  const ContextId ctx = ak.ctx;
  const StreamId s = ak.stream;

  auto& members = contexts_[static_cast<std::size_t>(ctx)].members;
  const std::size_t pos = static_cast<std::size_t>(ak.bucket_pos);
  members.erase(members.begin() + static_cast<std::ptrdiff_t>(pos));
  for (std::size_t i = pos; i < members.size(); ++i) {
    slots_[static_cast<std::size_t>(members[i])].bucket_pos =
        static_cast<int>(i);
  }
  order_.erase(std::find(order_.begin(), order_.end(), slot));
  ak.fire_time = common::kTimeInfinity;
  ak.bucket_pos = -1;
  free_slots_.push_back(slot);
  ++kernels_completed_;

  streams_[static_cast<std::size_t>(s)].busy = false;
  mark_context_dirty(ctx);
  flush_rates();  // before advance_stream: the solver position the
                  // historical code re-solved at (tie-break parity)
  advance_stream(s);
}

void Gpu::arm_completion_event(int best) {
  if (best < 0) {
    if (completion_event_.valid()) {
      sim_.cancel(completion_event_);
      completion_event_ = sim::EventHandle{};
    }
    armed_slot_ = -1;
    return;
  }
  const auto& bk = slots_[static_cast<std::size_t>(best)];
  if (armed_slot_ == best && completion_event_.valid() &&
      armed_time_ == bk.fire_time && armed_seq_ == bk.vseq) {
    return;  // head unchanged: the mirrored event is already correct
  }
  // Mirror with the kernel's exact key so ties against unrelated simulator
  // events break as if this completion had sat in the heap all along.
  if (!sim_.reschedule_with_sequence(completion_event_, bk.fire_time,
                                     bk.vseq)) {
    completion_event_ = sim_.schedule_at_with_sequence(
        bk.fire_time, bk.vseq, [this] { on_completion_event(); });
  }
  armed_slot_ = best;
  armed_time_ = bk.fire_time;
  armed_seq_ = bk.vseq;
}

void Gpu::settle_progress() {
  const Time now = sim_.now();
  double busy = 0.0;
  for (const int slot : order_) {
    auto& k = slots_[static_cast<std::size_t>(slot)];
    const double dt_us = common::to_us(now - k.last_update);
    if (dt_us > 0.0) {
      k.remaining = std::max(0.0, k.remaining - k.rate * dt_us);
      busy += k.rate * static_cast<double>(now - k.last_update);
    }
    k.last_update = now;
  }
  busy_integral_ += busy;
  busy_last_update_ = now;
}

double Gpu::quantized_rate(double parallelism, double share) const {
  if (share <= 0.0) return 0.0;
  if (parallelism <= share) return parallelism;  // single wave
  const double fluid_waves = parallelism / share;
  const double hard_waves = std::ceil(fluid_waves - 1e-12);
  const double waves = spec_.quant_smoothing * fluid_waves +
                       (1.0 - spec_.quant_smoothing) * hard_waves;
  return parallelism / waves;
}

void Gpu::mark_context_dirty(ContextId ctx) {
  contexts_[static_cast<std::size_t>(ctx)].dirty = true;
}

void Gpu::flush_rates() {
  ++solver_stats_.flushes;
  const Time now = sim_.now();
  // Progress must be settled under the *old* rates before any rate changes.
  // busy_last_update_ only moves in settle_progress(), and kernels added
  // since start settled (last_update = add time), so equality means every
  // resident kernel is already settled to this tick (the completion handler
  // settles eagerly; launch-only ticks still need the settle).
  if (busy_last_update_ != now) settle_progress();

  // 1. Water-fill each dirty context's quota among its resident kernels;
  //    clean contexts keep their cached shares (bit-identical by
  //    determinism: same bucket + quota reproduce the same fill). Within a
  //    context, ascending parallelism gets its full demand first (max-min
  //    fairness). The global allocation total folds in the same pass; its
  //    summation order — (context asc, fill order), like every global fold
  //    below (pressure and bandwidth use arrival order) — intentionally
  //    replicates the historical from-scratch solver, so the rates come out
  //    bit-identical to it.
  //    `shares` only grows (its first members.size() entries are the fill),
  //    so a flush never value-initialises or reallocates it in steady state.
  double total_alloc = 0.0;
  for (auto& cs : contexts_) {
    const std::size_t m = cs.members.size();
    if (cs.dirty) {
      ++solver_stats_.contexts_solved;
      if (cs.shares.size() < m) cs.shares.resize(m);
      double quota = cs.quota;
      std::size_t left = m;
      for (std::size_t i = 0; i < m; ++i) {
        const double fair = quota / static_cast<double>(left);
        const double alloc = std::min(
            slots_[static_cast<std::size_t>(cs.members[i])].parallelism, fair);
        cs.shares[i] = alloc;
        quota -= alloc;
        --left;
      }
      const auto active = static_cast<double>(m);
      cs.eff_intra =
          1.0 / (1.0 + spec_.alpha_intra *
                           std::min(active - 1.0, spec_.intra_saturation));
      cs.dirty = false;
    } else {
      ++solver_stats_.contexts_reused;
    }
    for (std::size_t i = 0; i < m; ++i) total_alloc += cs.shares[i];
  }

  // 2. Oversubscription: rescale when allocations exceed physical SMs.
  const double sm = static_cast<double>(spec_.sm_count);
  const bool rescale = total_alloc > sm;
  const double scale = rescale ? sm / total_alloc : 1.0;

  // Global L2-contention penalty grows with resident-block pressure: the
  // blocks all resident kernels *could* run concurrently, regardless of
  // whether they queue behind a quota or behind SM sharing. A single
  // many-stream context thrashes the same caches as many one-stream
  // contexts.
  double pressure = 0.0;
  for (const int slot : order_) {
    pressure +=
        std::min(slots_[static_cast<std::size_t>(slot)].parallelism, sm);
  }
  const double excess = std::max(0.0, pressure / sm - 1.0);
  const double eff_os = 1.0 / (1.0 + spec_.kappa_oversub * excess);

  // 3/4. Per-kernel rate with wave quantisation, the small-slice penalty,
  // and the intra-context multi-stream penalty (both cached per context).
  // The scratch only grows; its first order_.size() entries are this
  // flush's.
  std::vector<double>& raw = wf_raw_;
  if (raw.size() < order_.size()) raw.resize(order_.size());
  double bw_demand = 0.0;
  for (std::size_t k = 0; k < order_.size(); ++k) {
    const auto& ak = slots_[static_cast<std::size_t>(order_[k])];
    const auto& cs = contexts_[static_cast<std::size_t>(ak.ctx)];
    double share = cs.shares[static_cast<std::size_t>(ak.bucket_pos)];
    if (rescale) share *= scale;
    raw[k] = quantized_rate(ak.parallelism, share) * cs.eff_intra * eff_os *
             cs.eff_quota;
    bw_demand += raw[k] * ak.mem_intensity;
  }

  // 5. Memory-bandwidth cap (fluid stall).
  const double phi =
      bw_demand > spec_.mem_bandwidth ? spec_.mem_bandwidth / bw_demand : 1.0;

  // The queue head (earliest (fire_time, vseq); vseq uniqueness makes the
  // order total and the scan order-independent) folds in the same pass.
  int best = -1;
  for (std::size_t k = 0; k < order_.size(); ++k) {
    const int slot = order_[k];
    auto& ak = slots_[static_cast<std::size_t>(slot)];
    const double new_rate = raw[k] * phi;
    const bool changed = std::abs(new_rate - ak.rate) > kRateTolerance ||
                         ak.fire_time == common::kTimeInfinity;
    if (changed) {
      ak.rate = new_rate;
      ak.last_update = now;
      if (ak.rate <= 0.0) {
        ak.fire_time = common::kTimeInfinity;  // starved: nothing pending
      } else {
        // +1 tick: settle past the epsilon. The drawn tie-break number is
        // what a direct (re)schedule would have consumed, so ties against
        // unrelated events are preserved; only the mirrored head event
        // below touches the heap.
        ak.fire_time = now + common::from_us(ak.remaining / ak.rate) + 1;
        ak.vseq = sim_.draw_sequence();
      }
    }
    if (ak.fire_time == common::kTimeInfinity) continue;
    if (best < 0) {
      best = slot;
      continue;
    }
    const auto& bk = slots_[static_cast<std::size_t>(best)];
    if (ak.fire_time < bk.fire_time ||
        (ak.fire_time == bk.fire_time && ak.vseq < bk.vseq)) {
      best = slot;
    }
  }
  arm_completion_event(best);
}

std::vector<Gpu::ActiveKernelInfo> Gpu::debug_active_kernels() const {
  const Time now = sim_.now();
  std::vector<ActiveKernelInfo> infos;
  infos.reserve(order_.size());
  for (const int slot : order_) {
    const auto& ak = slots_[static_cast<std::size_t>(slot)];
    ActiveKernelInfo info;
    info.stream = ak.stream;
    info.ctx = ak.ctx;
    info.parallelism = ak.parallelism;
    info.mem_intensity = ak.mem_intensity;
    // Remaining as of now, computed on the fly: mutating the stored settle
    // state from an observer would split a future settle interval and (FP
    // addition being non-associative) could nudge the byte-stable timeline.
    info.remaining = std::max(
        0.0, ak.remaining - ak.rate * common::to_us(now - ak.last_update));
    info.rate = ak.rate;
    infos.push_back(info);
  }
  return infos;
}

double Gpu::busy_sm_integral() const {
  double busy = busy_integral_;
  const Time now = sim_.now();
  for (const int slot : order_) {
    const auto& k = slots_[static_cast<std::size_t>(slot)];
    busy += k.rate * static_cast<double>(now - k.last_update);
  }
  return busy;
}

double Gpu::utilization(Time horizon) const {
  if (horizon <= 0) return 0.0;
  return busy_sm_integral() /
         (static_cast<double>(horizon) * static_cast<double>(spec_.sm_count));
}

}  // namespace daris::gpusim
