// Clockwork-like baseline (Gujarati et al., OSDI 2020): fully serialised
// execution — one DNN on the whole GPU at a time — which makes latency
// perfectly predictable at the cost of throughput. Jobs whose predicted
// completion would exceed their deadline are dropped up front.
#pragma once

#include "dnn/zoo.h"
#include "gpusim/gpu_spec.h"
#include "workload/taskset.h"

namespace daris::baselines {

struct ClockworkResult {
  double jps = 0.0;
  double hp_dmr = 0.0;
  double lp_dmr = 0.0;
  double drop_rate = 0.0;  // jobs rejected by the predicted-lateness test
};

/// Runs the task set through a serialised EDF executor with admission by
/// predicted completion time.
ClockworkResult run_clockwork(const workload::TaskSetSpec& taskset,
                              const gpusim::GpuSpec& spec,
                              double duration_s = 4.0);

}  // namespace daris::baselines
