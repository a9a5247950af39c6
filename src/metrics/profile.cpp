#include "metrics/profile.h"

#include <cstdio>

namespace daris::metrics {

RunProfile& RunProfile::operator+=(const RunProfile& o) {
  events_executed += o.events_executed;
  callbacks_inline += o.callbacks_inline;
  callbacks_heap += o.callbacks_heap;
  if (o.heap_high_water > heap_high_water) {
    heap_high_water = o.heap_high_water;
  }
  if (o.pool_slots > pool_slots) pool_slots = o.pool_slots;
  windows_dispatched += o.windows_dispatched;
  windows_skipped += o.windows_skipped;
  shard_runs += o.shard_runs;
  wall_ms_control += o.wall_ms_control;
  wall_ms_parallel += o.wall_ms_parallel;
  wall_ms_lane_wait += o.wall_ms_lane_wait;
  solver_flushes += o.solver_flushes;
  solver_contexts_solved += o.solver_contexts_solved;
  solver_contexts_reused += o.solver_contexts_reused;
  wall_ms_offline += o.wall_ms_offline;
  wall_ms_run += o.wall_ms_run;
  wall_ms_total += o.wall_ms_total;
  return *this;
}

std::string RunProfile::to_string() const {
  char buf[512];
  std::string out;
  std::snprintf(buf, sizeof buf,
                "   events executed      %llu\n"
                "   event-heap high-water %llu (pool slots %llu)\n"
                "   callbacks inline/heap %llu / %llu (%.1f%% inline)\n",
                static_cast<unsigned long long>(events_executed),
                static_cast<unsigned long long>(heap_high_water),
                static_cast<unsigned long long>(pool_slots),
                static_cast<unsigned long long>(callbacks_inline),
                static_cast<unsigned long long>(callbacks_heap),
                100.0 * inline_rate());
  out += buf;
  if (windows_dispatched + windows_skipped > 0) {
    std::snprintf(buf, sizeof buf,
                  "   barrier windows      %llu dispatched, %llu skipped"
                  " (%llu device-shard runs)\n"
                  "   barrier phases       control %.1f ms, parallel %.1f ms"
                  " (%.1f ms waiting on other lanes)\n",
                  static_cast<unsigned long long>(windows_dispatched),
                  static_cast<unsigned long long>(windows_skipped),
                  static_cast<unsigned long long>(shard_runs),
                  wall_ms_control, wall_ms_parallel, wall_ms_lane_wait);
    out += buf;
  }
  std::snprintf(buf, sizeof buf,
                "   solver flushes       %llu (ctx solved %llu, reused %llu,"
                " %.1f%% cache hits)\n"
                "   wall clock           offline %.1f ms, run %.1f ms,"
                " total %.1f ms\n",
                static_cast<unsigned long long>(solver_flushes),
                static_cast<unsigned long long>(solver_contexts_solved),
                static_cast<unsigned long long>(solver_contexts_reused),
                100.0 * dirty_hit_rate(), wall_ms_offline, wall_ms_run,
                wall_ms_total);
  out += buf;
  return out;
}

void RunProfile::append_json(std::string* out) const {
  char buf[1000];
  std::snprintf(
      buf, sizeof buf,
      "{\"events_executed\": %llu, \"heap_high_water\": %llu, "
      "\"pool_slots\": %llu, \"callbacks_inline\": %llu, "
      "\"callbacks_heap\": %llu, \"windows_dispatched\": %llu, "
      "\"windows_skipped\": %llu, \"shard_runs\": %llu, "
      "\"wall_ms_control\": %.3f, \"wall_ms_parallel\": %.3f, "
      "\"wall_ms_lane_wait\": %.3f, "
      "\"solver_flushes\": %llu, "
      "\"solver_contexts_solved\": %llu, \"solver_contexts_reused\": %llu, "
      "\"dirty_hit_rate\": %.17g, \"wall_ms_offline\": %.3f, "
      "\"wall_ms_run\": %.3f, \"wall_ms_total\": %.3f}",
      static_cast<unsigned long long>(events_executed),
      static_cast<unsigned long long>(heap_high_water),
      static_cast<unsigned long long>(pool_slots),
      static_cast<unsigned long long>(callbacks_inline),
      static_cast<unsigned long long>(callbacks_heap),
      static_cast<unsigned long long>(windows_dispatched),
      static_cast<unsigned long long>(windows_skipped),
      static_cast<unsigned long long>(shard_runs), wall_ms_control,
      wall_ms_parallel, wall_ms_lane_wait,
      static_cast<unsigned long long>(solver_flushes),
      static_cast<unsigned long long>(solver_contexts_solved),
      static_cast<unsigned long long>(solver_contexts_reused),
      dirty_hit_rate(), wall_ms_offline, wall_ms_run, wall_ms_total);
  *out += buf;
}

}  // namespace daris::metrics
