#include "workload/trace.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <fstream>
#include <ostream>
#include <sstream>

#include "common/rng.h"

namespace daris::workload {

namespace {

constexpr int kModelKinds = 4;  // dnn::ModelKind enumerators
constexpr int kSloClasses = 2;  // Priority::{kHigh, kLow}

std::string lower(std::string s) {
  for (char& c : s) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return s;
}

std::string strip(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool parse_model(const std::string& name, dnn::ModelKind* out) {
  const std::string n = lower(name);
  if (n == "resnet18") {
    *out = dnn::ModelKind::kResNet18;
  } else if (n == "resnet50") {
    *out = dnn::ModelKind::kResNet50;
  } else if (n == "unet") {
    *out = dnn::ModelKind::kUNet;
  } else if (n == "inceptionv3") {
    *out = dnn::ModelKind::kInceptionV3;
  } else {
    return false;
  }
  return true;
}

bool parse_slo(const std::string& name, common::Priority* out) {
  const std::string n = lower(name);
  if (n == "hp") {
    *out = common::Priority::kHigh;
  } else if (n == "lp") {
    *out = common::Priority::kLow;
  } else {
    return false;
  }
  return true;
}

void fail(std::string* error, int line, const std::string& why) {
  if (error == nullptr) return;
  std::ostringstream os;
  os << "line " << line << ": " << why;
  *error = os.str();
}

}  // namespace

bool parse_trace_csv(std::istream& in, Trace* out, std::string* error) {
  Trace trace;
  std::string raw;
  int line = 0;
  while (std::getline(in, raw)) {
    ++line;
    const std::string s = strip(raw);
    if (s.empty() || s[0] == '#') continue;
    if (line == 1 && lower(s) == "arrival_us,model,slo") continue;

    const std::size_t c1 = s.find(',');
    const std::size_t c2 = c1 == std::string::npos ? c1 : s.find(',', c1 + 1);
    if (c2 == std::string::npos || s.find(',', c2 + 1) != std::string::npos) {
      fail(error, line, "expected 3 fields `arrival_us,model,slo`");
      return false;
    }
    const std::string f0 = strip(s.substr(0, c1));
    const std::string f1 = strip(s.substr(c1 + 1, c2 - c1 - 1));
    const std::string f2 = strip(s.substr(c2 + 1));

    TraceRow row;
    try {
      std::size_t used = 0;
      if (f0.empty() || f0[0] == '-') throw std::invalid_argument(f0);
      row.arrival_us = std::stoull(f0, &used);
      if (used != f0.size()) throw std::invalid_argument(f0);
    } catch (const std::exception&) {
      fail(error, line, "bad arrival_us `" + f0 + "` (unsigned microseconds)");
      return false;
    }
    if (row.arrival_us > kMaxArrivalUs) {
      fail(error, line,
           "arrival_us `" + f0 + "` is past the largest trace time, 2^53 us");
      return false;
    }
    if (!parse_model(f1, &row.model)) {
      fail(error, line,
           "unknown model `" + f1 +
               "` (resnet18|resnet50|unet|inceptionv3)");
      return false;
    }
    if (!parse_slo(f2, &row.slo)) {
      fail(error, line, "unknown slo `" + f2 + "` (hp|lp)");
      return false;
    }
    if (!trace.rows.empty() && row.arrival_us < trace.rows.back().arrival_us) {
      fail(error, line, "arrival_us goes backwards (trace must be sorted)");
      return false;
    }
    trace.rows.push_back(row);
  }
  *out = std::move(trace);
  return true;
}

bool load_trace_csv(const std::string& path, Trace* out, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  return parse_trace_csv(in, out, error);
}

void write_trace_csv(std::ostream& out, const Trace& trace) {
  out << "arrival_us,model,slo\n";
  for (const auto& row : trace.rows) {
    out << row.arrival_us << ',' << lower(dnn::model_name(row.model)) << ','
        << (row.slo == common::Priority::kHigh ? "hp" : "lp") << '\n';
  }
}

bool save_trace_csv(const std::string& path, const Trace& trace,
                    std::string* error) {
  std::ofstream out(path);
  if (!out) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  write_trace_csv(out, trace);
  return out.good();
}

TraceDriver::TraceDriver(sim::Simulator& sim, const TaskSetSpec& taskset,
                         Trace trace, ReleaseFn release, common::Time horizon)
    : sim_(sim),
      trace_(std::move(trace)),
      release_(std::move(release)),
      horizon_(horizon),
      class_tasks_(static_cast<std::size_t>(kModelKinds * kSloClasses)),
      class_cursor_(static_cast<std::size_t>(kModelKinds * kSloClasses), 0) {
  for (std::size_t i = 0; i < taskset.tasks.size(); ++i) {
    const auto& t = taskset.tasks[i];
    class_tasks_[static_cast<std::size_t>(class_of(t.model, t.priority))]
        .push_back(static_cast<int>(i));
  }
}

void TraceDriver::start() { arm(0); }

void TraceDriver::arm(std::size_t row) {
  // Skip rows nobody serves up front so the armed event always has a
  // release to deliver (keeps fire() allocation-free and unmatched()
  // accurate even for never-released tails).
  while (row < trace_.rows.size()) {
    const auto& r = trace_.rows[row];
    const common::Time when =
        common::from_us(static_cast<double>(r.arrival_us));
    if (when > horizon_) {
      next_row_ = trace_.rows.size();
      return;
    }
    if (!class_tasks_[static_cast<std::size_t>(class_of(r.model, r.slo))]
             .empty()) {
      break;
    }
    ++unmatched_;
    ++row;
  }
  if (row >= trace_.rows.size()) {
    next_row_ = trace_.rows.size();
    return;
  }
  next_row_ = row;
  const common::Time when = common::from_us(
      static_cast<double>(trace_.rows[row].arrival_us));
  if (!sim_.reschedule(release_event_, when)) {
    release_event_ = sim_.schedule_at(when, [this] { fire(); });
  }
}

void TraceDriver::fire() {
  const auto& row = trace_.rows[next_row_];
  auto& tasks =
      class_tasks_[static_cast<std::size_t>(class_of(row.model, row.slo))];
  auto& cursor =
      class_cursor_[static_cast<std::size_t>(class_of(row.model, row.slo))];
  const int task_id = tasks[cursor];
  cursor = (cursor + 1) % tasks.size();
  ++arrivals_;
  release_(task_id);
  arm(next_row_ + 1);
}

std::vector<TraceMixEntry> trace_mix(const TaskSetSpec& taskset) {
  std::vector<double> weight(
      static_cast<std::size_t>(kModelKinds * kSloClasses), 0.0);
  for (const auto& t : taskset.tasks) {
    const auto cls = static_cast<std::size_t>(
        static_cast<int>(t.model) * kSloClasses + static_cast<int>(t.priority));
    weight[cls] +=
        1.0e9 / static_cast<double>(std::max<common::Duration>(t.period, 1));
  }
  std::vector<TraceMixEntry> mix;
  for (int m = 0; m < kModelKinds; ++m) {
    for (int s = 0; s < kSloClasses; ++s) {
      const auto cls = static_cast<std::size_t>(m * kSloClasses + s);
      if (weight[cls] <= 0.0) continue;
      mix.push_back({static_cast<dnn::ModelKind>(m),
                     static_cast<common::Priority>(s), weight[cls]});
    }
  }
  return mix;
}

double trace_rate_at(const TraceGenConfig& config, double t_s) {
  constexpr double kTwoPi = 6.283185307179586;
  double rate = config.mean_rate_jps;
  if (config.diurnal_amplitude != 0.0 && config.diurnal_period_s > 0.0) {
    rate *= 1.0 + config.diurnal_amplitude *
                      std::sin(kTwoPi * t_s / config.diurnal_period_s +
                               config.diurnal_phase);
  }
  for (const auto& f : config.flashes) {
    if (t_s >= f.start_s && t_s < f.start_s + f.duration_s) rate *= f.factor;
  }
  return std::max(0.0, rate);
}

Trace generate_trace(const std::vector<TraceMixEntry>& mix,
                     const TraceGenConfig& config) {
  Trace trace;
  if (mix.empty() || config.duration_s <= 0.0 || config.mean_rate_jps <= 0.0) {
    return trace;
  }
  std::vector<double> cum;
  cum.reserve(mix.size());
  double total = 0.0;
  for (const auto& e : mix) {
    total += std::max(0.0, e.weight);
    cum.push_back(total);
  }
  if (total <= 0.0) return trace;

  // Thinning envelope: the diurnal peak times the largest product of
  // overlapping flash factors (flashes can nest).
  double flash_peak = 1.0;
  for (const auto& f : config.flashes) {
    double at_start = 1.0;
    for (const auto& g : config.flashes) {
      if (f.start_s >= g.start_s && f.start_s < g.start_s + g.duration_s) {
        at_start *= std::max(1.0, g.factor);
      }
    }
    flash_peak = std::max(flash_peak, at_start);
  }
  const double envelope = config.mean_rate_jps *
                          (1.0 + std::abs(config.diurnal_amplitude)) *
                          flash_peak;

  common::Rng rng(config.seed);
  double t_s = 0.0;
  while (true) {
    t_s += rng.exponential(1.0 / envelope);
    if (t_s >= config.duration_s) break;
    const double keep = trace_rate_at(config, t_s) / envelope;
    if (rng.uniform() >= keep) continue;
    const double u = rng.uniform() * total;
    const auto it = std::upper_bound(cum.begin(), cum.end(), u);
    const auto cls = static_cast<std::size_t>(
        std::min<std::ptrdiff_t>(it - cum.begin(),
                                 static_cast<std::ptrdiff_t>(mix.size()) - 1));
    TraceRow row;
    row.arrival_us = static_cast<std::uint64_t>(t_s * 1.0e6);
    row.model = mix[cls].model;
    row.slo = mix[cls].slo;
    trace.rows.push_back(row);
  }
  return trace;
}

}  // namespace daris::workload
