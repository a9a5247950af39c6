// DARIS scheduler configuration: partitioning policy, concurrency shape
// (Nc x Ns, OS), and the module switches used by the Fig. 8 ablations.
#pragma once

#include <string>

#include "common/priority.h"

namespace daris::rt {

/// Spatial partitioning policies evaluated in the paper (Sec. V).
enum class Policy {
  kStr,     // streams only: one context holding the whole GPU
  kMps,     // MPS only: Nc contexts, one stream each
  kMpsStr,  // combined: Nc contexts with Ns streams each
};

const char* policy_name(Policy p);

/// Most active (admitted, unfinished) jobs one task may hold; a release
/// beyond it is rejected rather than queued. With D = T a job queued behind
/// an unfinished predecessor is all but doomed, so LP jobs are shed as soon
/// as their predecessor is still active (the admission test's spirit:
/// reject what cannot meet its deadline); HP jobs get a small backlog so
/// overload shows up as lateness rather than silent shedding (Fig. 11). The
/// scheduler applies it per device, the cluster router fleet-wide.
inline int backlog_cap(common::Priority p) {
  return p == common::Priority::kLow ? 1 : 2;
}

struct SchedulerConfig {
  Policy policy = Policy::kMps;

  /// Number of MPS contexts (Nc). Forced to 1 for the STR policy.
  int num_contexts = 6;

  /// Streams per context (Ns). Forced to 1 for the MPS policy.
  int streams_per_context = 1;

  /// Oversubscription level OS in [1, Nc] (Eq. 9). OS=1 isolates SMs,
  /// OS=Nc shares all SMs with every context.
  double oversubscription = 1.0;

  /// MRET window size ws (Eq. 1). The paper selects 5; error() refuses
  /// more than MretEstimator::kMaxWindow.
  int mret_window = 5;

  /// Batch size per job (1 in the main experiments; Fig. 10 uses 4/2/8).
  int batch = 1;

  // --- module switches (Fig. 8 ablations) ---------------------------------
  /// Staging: dispatch tasks one stage at a time with sync boundaries.
  /// Off = "No Staging": each job runs as a single unit.
  bool staging = true;

  /// Prioritise the last stage of each task. Off = "No Last".
  bool prioritize_last_stage = true;

  /// Boost a stage whose predecessor missed its virtual deadline.
  /// Off = "No Prior".
  bool boost_after_miss = true;

  /// Fixed priority levels between HP/LP and stage classes; EDF only inside
  /// a level. Off = "No Fixed": one global EDF band.
  bool fixed_levels = true;

  /// Keep a stream reserved for an HP job across its stage-sync gaps, so a
  /// ready LP stage cannot capture the stream during the (host-visible)
  /// synchronisation and block the HP job's next stage for a whole LP
  /// stage. This is what keeps HP response times ~2.5x shorter than LP and
  /// HP deadline misses at zero (Sec. VI-A).
  bool hp_stream_hold = true;

  // --- admission (Sec. IV-B1, Sec. VI-I) ----------------------------------
  /// LP jobs take the utilisation-based admission test (always true in the
  /// paper; exposed for experiments).
  bool lp_admission = true;

  /// HP jobs also take the admission test (Overload+HPA).
  bool hp_admission = false;

  /// Total number of concurrently schedulable jobs Np = Nc * Ns.
  int parallelism() const { return num_contexts * streams_per_context; }

  /// "Nc x Ns OS" label used in the paper's figures.
  std::string label() const;

  /// Applies policy constraints (STR => Nc=1, MPS => Ns=1) and returns self.
  SchedulerConfig& canonicalize();

  /// Empty when a scheduler can run this config, else why not: an
  /// mret_window above MretEstimator::kMaxWindow (each recorded stage keeps
  /// its last ws samples, so a task record's size follows ws). The one
  /// check exp::run_daris and exp::run_cluster (exp::validate_config) run
  /// before simulating; example_daris_cli exits 2 on it.
  std::string error() const;
};

}  // namespace daris::rt
