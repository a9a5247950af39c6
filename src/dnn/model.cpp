#include "dnn/model.h"

#include <algorithm>
#include <cassert>

namespace daris::dnn {

double CompiledStage::total_work() const {
  double w = 0.0;
  for (const auto& k : kernels) w += k.work;
  return w;
}

std::size_t CompiledModel::kernel_count() const {
  std::size_t n = 0;
  for (const auto& s : stages) n += s.kernels.size();
  return n;
}

double CompiledModel::total_work() const {
  double w = 0.0;
  for (const auto& s : stages) w += s.total_work();
  return w;
}

CompiledModel lower(const NetworkDef& net, int batch,
                    const LoweringParams& params) {
  assert(batch >= 1);
  CompiledModel model;
  model.name = net.name;
  model.batch = batch;
  model.stages.reserve(net.stages.size());

  const double b = static_cast<double>(batch);
  const double batch_inflation =
      1.0 + params.batch_work_overhead * (b - 1.0) / b;
  double weight_bytes = 0.0;
  for (const auto& stage : net.stages) {
    for (const auto& layer : stage.layers) weight_bytes += layer.weight_bytes;
  }
  model.weight_mb = weight_bytes / (1024.0 * 1024.0);
  for (const auto& stage : net.stages) {
    CompiledStage cs;
    cs.name = stage.name;
    cs.kernels.reserve(stage.layers.size());
    for (const auto& layer : stage.layers) {
      gpusim::KernelDesc k;
      k.work = params.work_scale * b * batch_inflation * layer.flops /
               kFlopsPerSmUs;
      const double par = params.par_scale * b * layer.out_elems / kElemsPerSm;
      k.parallelism = std::clamp(par, 1.0, kMaxParallelismSms);
      // Activations scale with batch; weights are fetched once per kernel.
      // work_scale stretches compute without adding traffic, so the per-SM
      // bandwidth demand shrinks by the same factor.
      const double bytes = b * layer.act_bytes + layer.weight_bytes;
      const double flops = std::max(1.0, b * layer.flops);
      k.mem_intensity = (bytes / flops) / kBalanceBytesPerFlop /
                        std::max(1e-9, params.work_scale * batch_inflation);
      cs.kernels.push_back(k);
    }
    model.stages.push_back(std::move(cs));
  }
  return model;
}

}  // namespace daris::dnn
