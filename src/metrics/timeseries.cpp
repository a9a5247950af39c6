#include "metrics/timeseries.h"

#include <cstdio>
#include <utility>

namespace daris::metrics {

int TimeSeries::add_track(std::string name, int device, Probe probe) {
  Track t;
  t.name = std::move(name);
  t.device = device;
  t.probe = std::move(probe);
  tracks_.push_back(std::move(t));
  return static_cast<int>(tracks_.size()) - 1;
}

void TimeSeries::start(sim::Simulator& sim, common::Duration period,
                       common::Time horizon) {
  stop();
  sim_ = &sim;
  period_ = period < 1 ? 1 : period;
  horizon_ = horizon;
  // One slot per cadence tick over [now, horizon], inclusive on both ends,
  // plus slack for the fencepost. Reserved once here; ticks only append.
  const common::Time span =
      horizon > sim.now() ? horizon - sim.now() : common::Time{0};
  const auto slots = static_cast<std::size_t>(span / period_) + 2;
  stamps_.clear();
  stamps_.reserve(slots);
  for (Track& t : tracks_) {
    t.samples.clear();
    t.samples.reserve(slots);
  }
  // The whole steady state is this one event re-arming itself: an 8-byte
  // {this} capture on the simulator's inline path, exactly the periodic-
  // driver pattern.
  event_ = sim.schedule_at(sim.now(), [this] { tick(); });
}

void TimeSeries::stop() {
  if (sim_ != nullptr) sim_->cancel(event_);
  event_ = sim::EventHandle{};
}

void TimeSeries::tick() {
  sample_now(sim_->now());
  const common::Time next = sim_->now() + period_;
  if (next <= horizon_) {
    sim_->reschedule(event_, next);
  } else {
    event_ = sim::EventHandle{};
  }
}

void TimeSeries::sample_now(common::Time now) {
  stamps_.push_back(now);
  for (Track& t : tracks_) t.samples.push_back(t.probe());
}

void TimeSeries::append_json(std::string* out) const {
  char buf[96];
  std::snprintf(buf, sizeof buf, "{\"period_us\": %.17g, \"tracks\": [",
                common::to_us(period_));
  *out += buf;
  for (int t = 0; t < track_count(); ++t) {
    if (t > 0) *out += ", ";
    *out += "\n    {\"name\": \"";
    *out += track_name(t);  // track names are code-chosen identifiers
    std::snprintf(buf, sizeof buf, "\", \"device\": %d, \"samples\": [",
                  track_device(t));
    *out += buf;
    for (std::size_t i = 0; i < size(); ++i) {
      std::snprintf(buf, sizeof buf, "%s[%.17g, %.17g]", i == 0 ? "" : ", ",
                    common::to_us(stamp(i)), value(t, i));
      *out += buf;
    }
    *out += "]}";
  }
  *out += "\n  ]}";
}

}  // namespace daris::metrics
