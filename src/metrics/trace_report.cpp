#include "metrics/trace_report.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace daris::metrics {

TraceReport trace_report(const std::vector<StageEvent>& stages) {
  TraceReport report;
  report.stages = stages.size();

  struct LastSeen {
    int context = -1;
    int gpu = -1;
  };
  std::unordered_map<int, LastSeen> last;

  for (const auto& ev : stages) {
    auto [it, fresh] = last.try_emplace(ev.task_id);
    if (!fresh) {
      if (ev.gpu != it->second.gpu) {
        ++report.gpu_migrations;
      } else if (ev.context != it->second.context) {
        ++report.context_switches;
      }
    }
    it->second.context = ev.context;
    it->second.gpu = ev.gpu;

    const double stall_us = ev.execution_us - ev.mret_us;
    if (ev.mret_us > 0.0 &&
        ev.execution_us >= kStarvationFactor * ev.mret_us) {
      ++report.starved_stages;
    }
    if (ev.task_id >= 0) {
      const auto idx = static_cast<std::size_t>(ev.task_id);
      if (report.worst_stall_per_task_us.size() <= idx) {
        report.worst_stall_per_task_us.resize(idx + 1, 0.0);
      }
      report.worst_stall_per_task_us[idx] =
          std::max(report.worst_stall_per_task_us[idx], stall_us);
    }
    if (stall_us > report.worst_stall_us) {
      report.worst_stall_us = stall_us;
      report.worst_stall_task = ev.task_id;
      report.worst_stall_stage = ev.stage;
    }
  }
  report.tasks = last.size();
  return report;
}

std::string TraceReport::to_string() const {
  char buf[256];
  std::string out;
  std::snprintf(buf, sizeof(buf),
                "trace report: %llu stages over %llu tasks\n",
                static_cast<unsigned long long>(stages),
                static_cast<unsigned long long>(tasks));
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  migrations: %llu cross-GPU, %llu context switches\n",
                static_cast<unsigned long long>(gpu_migrations),
                static_cast<unsigned long long>(context_switches));
  out += buf;
  std::snprintf(buf, sizeof(buf), "  starved stages: %llu\n",
                static_cast<unsigned long long>(starved_stages));
  out += buf;
  if (worst_stall_task >= 0) {
    std::snprintf(buf, sizeof(buf),
                  "  worst stall: %.1f us (task %d, stage %zu)\n",
                  worst_stall_us, worst_stall_task, worst_stall_stage);
    out += buf;
  }
  return out;
}

}  // namespace daris::metrics
