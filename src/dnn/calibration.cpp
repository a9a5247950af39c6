#include "dnn/calibration.h"

#include <algorithm>
#include <cmath>

#include "common/log.h"

namespace daris::dnn {

namespace {
double quantized_rate(const gpusim::GpuSpec& spec, double parallelism,
                      double share) {
  if (share <= 0.0) return 0.0;
  if (parallelism <= share) return parallelism;
  const double fluid = parallelism / share;
  const double hard = std::ceil(fluid - 1e-12);
  const double waves =
      spec.quant_smoothing * fluid + (1.0 - spec.quant_smoothing) * hard;
  return parallelism / waves;
}
}  // namespace

double analytic_kernel_rate(const gpusim::KernelDesc& kernel,
                            const gpusim::GpuSpec& spec) {
  const double sm = static_cast<double>(spec.sm_count);
  const double share = std::min(kernel.parallelism, sm);
  double rate = quantized_rate(spec, kernel.parallelism, share);
  // Single-tenant execution owns the whole device (quota = all SMs).
  rate *= 1.0 - spec.quota_penalty_a * std::exp(-sm / spec.quota_penalty_q0);
  const double bw_demand = rate * kernel.mem_intensity;
  if (bw_demand > spec.mem_bandwidth && bw_demand > 0.0) {
    rate *= spec.mem_bandwidth / bw_demand;
  }
  return rate;
}

double analytic_sequential_latency_us(const CompiledModel& model,
                                      const gpusim::GpuSpec& spec) {
  double total = 0.0;
  for (const auto& stage : model.stages) {
    for (const auto& k : stage.kernels) {
      const double rate = analytic_kernel_rate(k, spec);
      total += spec.launch_overhead_us + (rate > 0.0 ? k.work / rate : 0.0);
    }
  }
  return total;
}

LoweringParams calibrate(const NetworkDef& net, const gpusim::GpuSpec& spec,
                         const CalibrationTargets& targets,
                         const LoweringParams& base) {
  LoweringParams p = base;
  p.work_scale = 1.0;
  p.par_scale = 1.0;
  const double launch_per_kernel = spec.launch_overhead_us;
  const double n_kernels = static_cast<double>(net.layer_count());
  const double launch_total = n_kernels * launch_per_kernel;

  const double t1_target = targets.single_stream_latency_us;
  const double tB_target =
      static_cast<double>(kCalibrationBatch) * 1.0e6 / targets.batched_jps;

  for (int iter = 0; iter < 60; ++iter) {
    // Fit total work against the batched (saturated) throughput target.
    const CompiledModel mb = lower(net, kCalibrationBatch, p);
    const double tb = analytic_sequential_latency_us(mb, spec);
    const double work_ratio =
        std::max(0.05, (tB_target - launch_total) / (tb - launch_total));
    p.work_scale *= std::pow(work_ratio, 0.9);

    // Fit kernel width against the single-stream latency target.
    const CompiledModel m1 = lower(net, 1, p);
    const double t1 = analytic_sequential_latency_us(m1, spec);
    const double par_ratio =
        std::max(0.05, (t1 - launch_total) / (t1_target - launch_total));
    p.par_scale *= std::pow(par_ratio, 0.7);
    p.par_scale = std::clamp(p.par_scale, 1e-3, 1e3);

    if (std::abs(t1 - t1_target) < 0.5 * 1e-3 * t1_target &&
        std::abs(tb - tB_target) < 0.5 * 1e-3 * tB_target) {
      break;
    }
  }

  const CompiledModel m1 = lower(net, 1, p);
  const CompiledModel mb = lower(net, kCalibrationBatch, p);
  DARIS_LOG_INFO << net.name << " calibrated: t1="
                 << analytic_sequential_latency_us(m1, spec) << "us (target "
                 << t1_target << "), batched_jps="
                 << kCalibrationBatch * 1e6 /
                        analytic_sequential_latency_us(mb, spec)
                 << " (target " << targets.batched_jps << "), work_scale="
                 << p.work_scale << ", par_scale=" << p.par_scale;
  return p;
}

}  // namespace daris::dnn
