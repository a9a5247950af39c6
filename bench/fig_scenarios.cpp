// Scenario matrix behaviour gate: runs every named production scenario —
// the eleven of src/experiments/scenarios.h: overload storm, fail-stop
// mid-burst, straggler, drain + autoscale, diurnal trace replay, flash
// crowd, the stealing and re-homing recoveries, retry-storm meltdown,
// hedging tail rescue, and the 64-GPU flash crowd — evaluates the committed
// thresholds on the scheduling outcomes, and proves three run-to-run
// contracts (plus a fourth with --threads N):
//
//  - deterministic: the same scenario run again in the same process yields
//    a bit-identical behaviour digest;
//  - telemetry deterministic: the telemetry capture (sampler series + event
//    log) is itself bit-identical across the repeat, certified by its FNV
//    digest;
//  - telemetry inert: a run with telemetry disabled yields the same
//    behaviour digest as the telemetry-enabled runs — observation does not
//    perturb the simulation;
//  - lane-count invariant (--threads N): the scenario rerun on N worker
//    lanes reproduces the 1-lane fingerprint and telemetry digest.
//
// scripts/check_scenarios.py and scripts/check_telemetry.py consume the
// --json report and the --telemetry artifacts in CI; docs/SCENARIOS.md and
// docs/OBSERVABILITY.md are the catalogues.
//
// Exit status: 0 when every check passes and every contract holds, 1
// otherwise, 2 on a bad flag or a scenario config the runner refuses
// (exp::validate_config).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/log.h"
#include "common/parse.h"
#include "common/table.h"
#include "experiments/scenarios.h"

using namespace daris;

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else {
      out += c;
    }
  }
  return out;
}

struct ScenarioRow {
  exp::ScenarioResult result;
  bool deterministic = false;        // behaviour digest repeats
  bool telemetry_deterministic = false;  // telemetry digest repeats
  bool telemetry_inert = false;      // telemetry-off digest matches
  bool threads_matches = false;      // --threads replay matches 1 lane
};

/// `threads` > 0: the lane count of the --threads replay every row carries.
void write_json(std::ostream& os, const std::vector<ScenarioRow>& rows,
                int threads) {
  os << "{\n  \"scenarios\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& row = rows[i];
    const auto& r = row.result;
    char digest[32];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(r.telemetry_digest));
    os << "    {\n"
       << "      \"name\": \"" << json_escape(r.name) << "\",\n"
       << "      \"description\": \"" << json_escape(r.description)
       << "\",\n"
       << "      \"pass\": " << (r.pass ? "true" : "false") << ",\n"
       << "      \"deterministic\": "
       << (row.deterministic ? "true" : "false") << ",\n"
       << "      \"telemetry_deterministic\": "
       << (row.telemetry_deterministic ? "true" : "false") << ",\n"
       << "      \"telemetry_inert\": "
       << (row.telemetry_inert ? "true" : "false") << ",\n"
       << "      \"telemetry_digest\": \"" << digest << "\",\n"
       << "      \"fingerprint\": \"" << json_escape(r.fingerprint)
       << "\",\n";
    if (threads > 0) {
      os << "      \"threads\": " << threads << ",\n"
         << "      \"threads_matches\": "
         << (row.threads_matches ? "true" : "false") << ",\n";
    }
    os << "      \"metrics\": {";
    bool first = true;
    for (const auto& [key, value] : r.metrics) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g", value);
      os << (first ? "" : ", ") << "\"" << key << "\": " << buf;
      first = false;
    }
    os << "},\n      \"checks\": [\n";
    for (std::size_t j = 0; j < r.checks.size(); ++j) {
      const auto& c = r.checks[j];
      char value[64] = "null";  // a check on a metric never emitted
      char limit[64];
      if (!std::isnan(c.value)) {
        std::snprintf(value, sizeof value, "%.17g", c.value);
      }
      std::snprintf(limit, sizeof limit, "%.17g", c.limit);
      os << "        {\"metric\": \"" << c.metric << "\", \"op\": \""
         << (c.op == '<' ? "<=" : ">=") << "\", \"value\": " << value
         << ", \"limit\": " << limit
         << ", \"pass\": " << (c.pass ? "true" : "false") << "}"
         << (j + 1 < r.checks.size() ? ",\n" : "\n");
    }
    os << "      ]\n    }" << (i + 1 < rows.size() ? ",\n" : "\n");
  }
  os << "  ]\n}\n";
}

bool parse_log_level(const std::string& name, common::LogLevel* out) {
  if (name == "trace") *out = common::LogLevel::kTrace;
  else if (name == "debug") *out = common::LogLevel::kDebug;
  else if (name == "info") *out = common::LogLevel::kInfo;
  else if (name == "warn") *out = common::LogLevel::kWarn;
  else if (name == "error") *out = common::LogLevel::kError;
  else if (name == "off") *out = common::LogLevel::kOff;
  else return false;
  return true;
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  os << content;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::string telemetry_dir;
  bool show_profile = false;
  // Lane count of the --threads replay; 0 = no replay. 2 lanes forces real
  // cross-thread execution even on one-core CI boxes.
  int threads = 0;
  std::vector<std::string> wanted;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--json") {
      json_path = value();
    } else if (arg == "--telemetry") {
      telemetry_dir = value();
    } else if (arg == "--profile") {
      show_profile = true;
    } else if (arg == "--threads") {
      // Replays every scenario on N worker lanes and requires the behaviour
      // fingerprint AND telemetry digest to match the 1-lane run.
      const char* text = value();
      if (!common::parse_whole(text, &threads) || threads < 1) {
        std::fprintf(stderr, "--threads wants a lane count >= 1, got '%s'\n",
                     text);
        return 2;
      }
    } else if (arg == "--log") {
      // Fleet decisions narrate at info, per-job routing at debug
      // (docs/OBSERVABILITY.md); the default warn threshold keeps the table
      // output clean.
      common::LogLevel level = common::LogLevel::kWarn;
      if (!parse_log_level(value(), &level)) {
        std::fprintf(stderr,
                     "--log wants trace|debug|info|warn|error|off\n");
        return 2;
      }
      common::set_log_level(level);
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: %s [--json FILE] [--telemetry DIR] [--profile] "
          "[--threads N] [--log LEVEL] [SCENARIO]...\n",
          argv[0]);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return 2;
    } else {
      wanted.push_back(arg);
    }
  }
  if (wanted.empty()) wanted = exp::scenario_names();

  std::printf("== Scenario matrix: behaviour thresholds ==\n\n");

  std::vector<ScenarioRow> rows;
  bool all_pass = true;
  bool artifacts_ok = true;

  for (const auto& name : wanted) {
    ScenarioRow row;
    row.result = exp::run_scenario(name, /*telemetry=*/true);
    exp::ScenarioResult& r = row.result;
    if (!r.cluster.error.empty()) {
      std::fprintf(stderr, "%s: invalid config: %s\n", name.c_str(),
                   r.cluster.error.c_str());
      return 2;
    }
    // Run-to-run contracts: the behaviour digest AND the telemetry capture
    // must repeat bit-identically, and disabling telemetry must not move
    // the behaviour digest (observation is inert).
    const exp::ScenarioResult again =
        exp::run_scenario(name, /*telemetry=*/true);
    const exp::ScenarioResult bare = exp::run_scenario(name);
    row.deterministic = r.fingerprint == again.fingerprint;
    if (threads > 0) {
      const exp::ScenarioResult lanes =
          exp::run_scenario(name, /*telemetry=*/true, threads);
      // Telemetry digest included: the sampler/event-log capture must be
      // insensitive to the lane count, not just the end-of-run counters.
      row.threads_matches = lanes.fingerprint == r.fingerprint &&
                            lanes.telemetry_digest == r.telemetry_digest;
    }
    // The digest covers the full series/events/fingerprint content; the
    // telemetry JSON itself also embeds host wall-clock (profile), which is
    // legitimately run-dependent, so the digest is the comparison.
    row.telemetry_deterministic = r.telemetry_digest == again.telemetry_digest;
    row.telemetry_inert = r.fingerprint == bare.fingerprint;

    std::printf("-- %s: %s\n", r.name.c_str(), r.description.c_str());
    common::Table table({"check", "value", "limit", "status"});
    for (const auto& c : r.checks) {
      table.add_row({c.metric + (c.op == '<' ? " <=" : " >="),
                     common::fmt_double(c.value, 4),
                     common::fmt_double(c.limit, 4),
                     c.pass ? "PASS" : "FAIL"});
    }
    table.add_row({"deterministic", row.deterministic ? "yes" : "no", "yes",
                   row.deterministic ? "PASS" : "FAIL"});
    table.add_row({"telemetry deterministic",
                   row.telemetry_deterministic ? "yes" : "no", "yes",
                   row.telemetry_deterministic ? "PASS" : "FAIL"});
    table.add_row({"telemetry inert", row.telemetry_inert ? "yes" : "no",
                   "yes", row.telemetry_inert ? "PASS" : "FAIL"});
    if (threads > 0) {
      table.add_row({"matches at " + std::to_string(threads) + " lanes",
                     row.threads_matches ? "yes" : "no", "yes",
                     row.threads_matches ? "PASS" : "FAIL"});
    }
    std::printf("%s", table.to_string().c_str());
    const bool ok = r.pass && row.deterministic &&
                    row.telemetry_deterministic && row.telemetry_inert &&
                    (threads == 0 || row.threads_matches);
    std::printf("   %s: %s\n\n", r.name.c_str(), ok ? "PASS" : "FAIL");
    if (show_profile) {
      std::printf("%s\n", r.cluster.profile.to_string().c_str());
    }

    if (!telemetry_dir.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(telemetry_dir, ec);
      artifacts_ok =
          write_file(telemetry_dir + "/" + r.name + ".telemetry.json",
                     r.telemetry_json) &&
          artifacts_ok;
      artifacts_ok = write_file(telemetry_dir + "/" + r.name + ".trace.json",
                                r.perfetto_json) &&
                     artifacts_ok;
    }

    all_pass = all_pass && ok;
    rows.push_back(std::move(row));
  }

  if (!json_path.empty()) {
    std::ofstream os(json_path);
    if (!os) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    write_json(os, rows, threads);
    std::printf("wrote %s\n", json_path.c_str());
  }
  if (!telemetry_dir.empty() && artifacts_ok) {
    std::printf("wrote telemetry artifacts to %s\n", telemetry_dir.c_str());
  }

  std::printf("scenario matrix: %s (%zu scenarios)\n",
              all_pass ? "PASS" : "FAIL", rows.size());
  return all_pass && artifacts_ok ? 0 : 1;
}
