// Parameters of the simulated GPU.
//
// The model is calibrated against the paper's RTX 2080 Ti (68 SMs, 616 GB/s).
// Work is expressed in SM-microseconds (one SM busy for one microsecond);
// memory traffic in "bandwidth units" where one unit is the traffic a single
// SM generates when running a perfectly balanced kernel. A kernel with
// mem_intensity > 1 is bandwidth-bound when running at full width.
#pragma once

#include <cstdint>

namespace daris::gpusim {

struct GpuSpec {
  /// Number of streaming multiprocessors (NSM,max in the paper).
  int sm_count = 68;

  /// Aggregate memory bandwidth in units per microsecond. With the unit
  /// definition above, `sm_count` would mean compute and bandwidth exactly
  /// balanced; the 2080 Ti has a little bandwidth headroom over that.
  double mem_bandwidth = 80.0;

  /// Host->device kernel dispatch latency (per kernel). Launches serialise
  /// both within a stream and across streams of the *same* context (driver
  /// context lock) — batching amortises this, cross-context colocation
  /// hides it, and it is what caps a single multi-stream context (STR).
  double launch_overhead_us = 14.0;

  /// Host-visible stream-synchronisation latency paid at each stage
  /// boundary: cudaStreamSynchronize wake-up under load plus the scheduler's
  /// decision and re-launch work. Batched jobs amortise this per sample,
  /// which is part of why DARIS+batching (Fig. 10) beats unbatched DARIS.
  double sync_overhead_us = 120.0;

  /// Efficiency loss when several kernels are resident in the *same*
  /// context (driver/context lock contention, shared cache/TLB):
  /// eff = 1 / (1 + a * min(m-1, sat)). The loss is near-binary — a second
  /// resident kernel causes it; more barely add — hence the saturation.
  double alpha_intra = 0.09;
  double intra_saturation = 1.0;

  /// Extra global contention per unit of oversubscribed concurrency
  /// (L2 thrashing when resident blocks far exceed SMs). Creates the
  /// throughput droop past the paper's Nc = 6 knee for ResNet18/UNet.
  double kappa_oversub = 0.03;

  /// Wave quantisation smoothing in [0,1]: 0 = hard ceil(P/s) waves,
  /// 1 = ideal fluid sharing. Real block schedulers sit near the hard end.
  double quant_smoothing = 0.25;

  /// Small-slice inefficiency: a context capped at Q SMs cannot keep the
  /// (shared, fixed-latency) memory system covered from a small slice, so
  /// its kernels run at eff = 1 - a * exp(-Q / q0). This is the measured
  /// "sharp drop" of isolated small MPS percentages that makes OS = 1
  /// underperform (paper Sec. VI-E; cf. GSlice/Laius slice-throughput
  /// curves). With oversubscribed quotas each SM hosts blocks from several
  /// contexts and the penalty vanishes.
  double quota_penalty_a = 0.6;
  double quota_penalty_q0 = 10.0;  // SMs

  /// Coefficient of variation of per-kernel execution jitter (clock/DVFS,
  /// cache state, colocated interference). Drives MRET misprediction under
  /// contention and gives the admission test its pessimism margin.
  double jitter_cv = 0.09;

  /// Contention amplification of jitter: effective cv grows by this factor
  /// per co-resident kernel. Densely shared configurations (e.g. 3x3 OS 1)
  /// are where the paper observes execution times overshooting MRET
  /// (Fig. 9) and the MPS+STR policy's elevated LP miss rates.
  double jitter_load_slope = 0.25;

  /// AR(1) persistence of the per-stream jitter process. Interference
  /// states (thermal/clock level, cache working sets of co-runners) persist
  /// across consecutive kernels, so whole stages run slow together — which
  /// is what lets execution times escape the recent-window MRET maximum.
  double jitter_rho = 0.9;

  /// RTX 2080 Ti-like configuration used throughout the reproduction.
  static GpuSpec rtx2080ti() { return GpuSpec{}; }

  /// Field-wise equality: devices share an AFET profile only when they are
  /// genuinely identical (same base spec *and* scale).
  bool operator==(const GpuSpec& o) const {
    return sm_count == o.sm_count && mem_bandwidth == o.mem_bandwidth &&
           launch_overhead_us == o.launch_overhead_us &&
           sync_overhead_us == o.sync_overhead_us &&
           alpha_intra == o.alpha_intra &&
           intra_saturation == o.intra_saturation &&
           kappa_oversub == o.kappa_oversub &&
           quant_smoothing == o.quant_smoothing &&
           quota_penalty_a == o.quota_penalty_a &&
           quota_penalty_q0 == o.quota_penalty_q0 &&
           jitter_cv == o.jitter_cv &&
           jitter_load_slope == o.jitter_load_slope &&
           jitter_rho == o.jitter_rho;
  }
};

}  // namespace daris::gpusim
