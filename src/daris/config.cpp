#include "daris/config.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "daris/mret.h"
#include "daris/scheduler.h"

namespace daris::rt {

const char* policy_name(Policy p) {
  switch (p) {
    case Policy::kStr:
      return "STR";
    case Policy::kMps:
      return "MPS";
    case Policy::kMpsStr:
      return "MPS+STR";
  }
  return "?";
}

std::string SchedulerConfig::label() const {
  char buf[64];
  if (policy == Policy::kStr) {
    std::snprintf(buf, sizeof(buf), "1x%d", streams_per_context);
  } else {
    std::snprintf(buf, sizeof(buf), "%dx%d %.2g", num_contexts,
                  streams_per_context, oversubscription);
  }
  return buf;
}

SchedulerConfig& SchedulerConfig::canonicalize() {
  switch (policy) {
    case Policy::kStr:
      num_contexts = 1;
      oversubscription = 1.0;  // a single context owns the device
      break;
    case Policy::kMps:
      streams_per_context = 1;
      break;
    case Policy::kMpsStr:
      break;
  }
  num_contexts = std::max(1, num_contexts);
  streams_per_context = std::max(1, streams_per_context);
  oversubscription = std::clamp(oversubscription, 1.0,
                                static_cast<double>(num_contexts));
  mret_window = std::max(1, mret_window);
  batch = std::max(1, batch);
  return *this;
}

std::string SchedulerConfig::error() const {
  if (!std::isfinite(oversubscription)) {
    // canonicalize()'s clamp passes NaN through, and Eq. 9 sizes every
    // context from it.
    return "oversubscription " + std::to_string(oversubscription) +
           " is not finite (Eq. 9 wants OS in [1, Nc])";
  }
  if (num_contexts > Scheduler::kMaxContexts) {
    return std::to_string(num_contexts) + " contexts are more than " +
           std::to_string(Scheduler::kMaxContexts) +
           " (a task's context is an int16_t)";
  }
  constexpr auto kMax = static_cast<int>(MretEstimator::kMaxWindow);
  if (mret_window > kMax) {
    return "MRET window " + std::to_string(mret_window) + " is above " +
           std::to_string(kMax) +
           " (the paper uses 5; each recorded stage keeps ws samples)";
  }
  return {};
}

}  // namespace daris::rt
