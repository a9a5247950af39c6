// Time-series sampler: fixed-cadence append-only tracks of fleet and
// per-GPU gauges, driven by ONE pooled re-armed simulator event.
//
// Tracks are registered at setup time as (name, device, probe) triples; the
// probe is a read-only closure over const simulation state (scheduler
// utilisation, queue depths, fleet health...). At every cadence tick the
// sampler appends the shared timestamp once and every probe's value to its
// track. Two invariants make observation safe:
//
//  - Zero steady-state allocation: `start` reserves one slot per tick of
//    the span on every track and the timestamp axis, so ticks append within
//    capacity, and the single timer event's {this} capture rides the
//    simulator's inline-callback path — pinned in tests/test_sim_alloc.cpp.
//  - No perturbation: probes are const reads, the tick mutates only the
//    sampler's own storage, and re-arming draws tie-break sequence numbers
//    in program order exactly like any other periodic driver — so the
//    relative order of all *other* events is untouched and enabling the
//    sampler leaves scheduling decisions and scenario fingerprints
//    byte-identical (enforced by bench_fig_scenarios' telemetry-off
//    comparison and scripts/check_telemetry.py).
//
// Memory is bounded because ticks stop at the horizon.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/time.h"
#include "sim/simulator.h"

namespace daris::metrics {

class TimeSeries {
 public:
  /// Reads one gauge; must be const over the simulation state.
  using Probe = std::function<double()>;

  TimeSeries() = default;
  TimeSeries(TimeSeries&&) = default;
  TimeSeries& operator=(TimeSeries&&) = default;
  TimeSeries(const TimeSeries&) = delete;
  TimeSeries& operator=(const TimeSeries&) = delete;

  /// Registers a track before start(). `device` groups the track onto a
  /// per-GPU lane in the Perfetto export (-1: fleet-level lane). Returns the
  /// track index.
  int add_track(std::string name, int device, Probe probe);

  int track_count() const { return static_cast<int>(tracks_.size()); }
  const std::string& track_name(int t) const {
    return tracks_[static_cast<std::size_t>(t)].name;
  }
  int track_device(int t) const {
    return tracks_[static_cast<std::size_t>(t)].device;
  }

  /// Arms the sampler on `sim`: one pooled event at t = now, re-armed every
  /// `period` until `horizon` (inclusive). Reserves one slot per tick of
  /// the span on every track.
  void start(sim::Simulator& sim, common::Duration period,
             common::Time horizon);

  /// Cancels the pending tick (idempotent; tracks keep their samples).
  void stop();

  /// Takes one sample immediately (start() ticks call this; tests may too).
  void sample_now(common::Time now);

  common::Duration period() const { return period_; }

  /// Samples taken.
  std::size_t size() const { return stamps_.size(); }
  /// Timestamp of sample `i` in chronological order.
  common::Time stamp(std::size_t i) const { return stamps_[i]; }
  /// Track `t`'s value at sample `i` in chronological order.
  double value(int t, std::size_t i) const {
    return tracks_[static_cast<std::size_t>(t)].samples[i];
  }

  /// Appends the series as a JSON object: {"period_us": ...,
  /// "tracks": [{"name", "device", "samples": [[ts_us, value], ...]}]}.
  void append_json(std::string* out) const;

 private:
  struct Track {
    std::string name;
    int device = -1;
    Probe probe;
    std::vector<double> samples;
  };

  void tick();

  std::vector<Track> tracks_;
  std::vector<common::Time> stamps_;
  common::Duration period_ = 0;
  common::Time horizon_ = 0;
  sim::Simulator* sim_ = nullptr;
  sim::EventHandle event_;
};

}  // namespace daris::metrics
