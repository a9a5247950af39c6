// Task-set construction (Table II); the release drivers are in driver.h.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "daris/task.h"
#include "dnn/zoo.h"

namespace daris::workload {

struct TaskSetSpec {
  std::string name;
  std::vector<rt::TaskSpec> tasks;

  int count(common::Priority p) const;
  /// Aggregate demand in jobs per second.
  double demand_jps() const;
};

/// Table II task sets, released at the paper's per-task rates (30 JPS for
/// ResNet18, 24 JPS for UNet/InceptionV3), which put the system at 150% of
/// the batching upper baseline with a 2:1 LP-to-HP ratio.
TaskSetSpec table2_taskset(dnn::ModelKind kind, std::uint64_t seed = 7);

/// Same structure scaled: `load_factor` multiplies the aggregate demand
/// (1.0 = Table II's 150% overload point => use 2/3 for "full load") and
/// `hp_fraction` sets the HP share of tasks (paper default 1/3).
TaskSetSpec scaled_taskset(dnn::ModelKind kind, double load_factor,
                           double hp_fraction, std::uint64_t seed = 7);

/// Mixed task set (Fig. 7): one third of each Table II set.
TaskSetSpec mixed_taskset(std::uint64_t seed = 7);

/// `copies` back-to-back copies of `base` with freshly drawn phases —
/// cluster benches scale aggregate demand with fleet size this way, keeping
/// per-task rates (and so per-task utilisation) identical to the base set.
TaskSetSpec replicated_taskset(const TaskSetSpec& base, int copies,
                               std::uint64_t seed = 7);

/// Skewed per-model demand for cluster routing studies: `gpus` GPUs' worth
/// of aggregate demand (~876 JPS per GPU, the mixed set's operating point)
/// with ~75% of it on ResNet18 and the rest split UNet/InceptionV3. Routing
/// a model kind to one device (model-affinity) collapses under this shape;
/// see docs/CLUSTER.md.
TaskSetSpec skewed_taskset(int gpus, std::uint64_t seed = 7);

/// ResNet50 task set for the Sec. VI-B comparison (sized like Table II:
/// 150% of the 433-JPS upper baseline, 2:1 LP:HP).
TaskSetSpec resnet50_taskset(std::uint64_t seed = 7);

}  // namespace daris::workload
