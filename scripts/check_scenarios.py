#!/usr/bin/env python3
"""Behaviour gate over the scenario matrix (docs/SCENARIOS.md).

Usage:
    scripts/check_scenarios.py --bench build/bench_fig_scenarios \
        [--json OUT.json] [--telemetry DIR] \
        [--baseline .baseline_scenarios.json] [--threads N]
    scripts/check_scenarios.py --json build/scenarios.json

With --bench the scenario driver is executed (writing its JSON report to
--json, or a temporary file); with only --json an existing report is
validated. The gate fails when any scenario misses a committed threshold
or has a threshold on a metric it does not emit (a misspelled name), is
non-deterministic across the driver's built-in re-run, or when fewer
scenarios ran than the matrix is expected to hold (a silently dropped
scenario cannot fake a green gate). With --baseline it also fails when a
scenario's fingerprint or telemetry digest differs from the committed
golden file, and lists the fingerprint entries that differ; with
--threads N, when the N-lane replay differs from the 1-lane run.

Unlike the perf gate, this one is strict: the simulator is deterministic,
so threshold misses are real behaviour changes, not machine noise.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

# Keep in sync with scenario_defs() in src/experiments/scenarios.cpp.
EXPECTED_MIN_SCENARIOS = 11


def load(path):
    with open(path) as f:
        return json.load(f)


def fingerprint_diff(got, want):
    """The entries of two `name=value;` fingerprints that differ, one line
    each: a name on both sides with its two values, or a name one side
    lacks."""
    g = dict(e.split("=", 1) for e in got.split(";") if e)
    w = dict(e.split("=", 1) for e in want.split(";") if e)
    lines = []
    for name in list(w) + [n for n in g if n not in w]:
        if name not in g:
            lines.append(f"{name}: missing from the report (want {w[name]})")
        elif name not in w:
            lines.append(f"{name}: not in the baseline (got {g[name]})")
        elif g[name] != w[name]:
            lines.append(f"{name}: got {g[name]}, want {w[name]}")
    if not lines and got != want:
        lines.append("same entries in a different order")
    return lines


def run_bench(bench, json_path, telemetry_dir=None, threads=None):
    cmd = [bench, "--json", json_path]
    if telemetry_dir:
        cmd += ["--telemetry", telemetry_dir]
    if threads:
        cmd += ["--threads", str(threads)]
    # The driver's own exit status is ignored here; the gate re-derives
    # pass/fail from the JSON so the two can never disagree silently.
    proc = subprocess.run(cmd, capture_output=True, text=True)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    if not os.path.exists(json_path):
        print(f"FAIL: {bench} produced no JSON report "
              f"(exit status {proc.returncode})")
        return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bench", help="path to bench_fig_scenarios")
    parser.add_argument("--json", help="JSON report path (read, or written "
                        "by --bench)")
    parser.add_argument("--telemetry", help="with --bench: directory for the "
                        "per-scenario telemetry + Perfetto artifacts "
                        "(validated separately by check_telemetry.py)")
    parser.add_argument("--baseline", help="committed golden report "
                        "(.baseline_scenarios.json): fail unless every "
                        "scenario's fingerprint and telemetry digest match it")
    parser.add_argument("--threads", type=int, nargs="?", const=2,
                        metavar="N", help="also replay every scenario on N "
                        "worker lanes (default 2) and fail unless its "
                        "fingerprint and telemetry digest match the 1-lane "
                        "run (with --bench passes --threads N to the driver; "
                        "with --json alone requires the report to carry the "
                        "threads_matches fields)")
    args = parser.parse_args()

    if not args.bench and not args.json:
        parser.error("need --bench and/or --json")

    json_path = args.json
    tmp = None
    if args.bench:
        if not json_path:
            tmp = tempfile.NamedTemporaryFile(suffix=".json", delete=False)
            tmp.close()
            json_path = tmp.name
        if not run_bench(args.bench, json_path, args.telemetry, args.threads):
            return 1

    doc = load(json_path)
    scenarios = doc.get("scenarios", [])
    golden = None
    if args.baseline:
        golden = {s["name"]: s for s in load(args.baseline)["scenarios"]}

    failures = []
    if len(scenarios) < EXPECTED_MIN_SCENARIOS:
        failures.append(
            f"only {len(scenarios)} scenarios in report, expected at least "
            f"{EXPECTED_MIN_SCENARIOS} — was a scenario dropped?")

    for s in scenarios:
        name = s.get("name", "?")
        if not s.get("deterministic", False):
            failures.append(f"{name}: NOT bit-identical across repeat runs")
        if args.threads:
            if "threads_matches" not in s:
                failures.append(
                    f"{name}: report carries no lane-count replay — driver "
                    f"run without --threads?")
            elif not s["threads_matches"]:
                failures.append(
                    f"{name}: fingerprint/telemetry digest at "
                    f"{s.get('threads', '?')} lanes differs from 1 lane")
        if golden is not None:
            want = golden.get(name)
            if want is None:
                failures.append(f"{name}: no entry in {args.baseline}")
            else:
                diff = fingerprint_diff(s.get("fingerprint", ""),
                                        want.get("fingerprint", ""))
                if diff:
                    failures.append(
                        f"{name}: fingerprint differs from {args.baseline}:"
                        + "".join(f"\n      {line}" for line in diff))
                if s.get("telemetry_digest") != want.get("telemetry_digest"):
                    failures.append(
                        f"{name}: telemetry_digest "
                        f"{s.get('telemetry_digest')} differs from "
                        f"{args.baseline} ({want.get('telemetry_digest')})")
        metrics = s.get("metrics", {})
        for c in s.get("checks", []):
            if c["metric"] not in metrics:
                failures.append(
                    f"{name}: threshold on {c['metric']!r}, a metric the "
                    f"scenario does not emit")
            elif not c.get("pass", False):
                failures.append(
                    f"{name}: {c['metric']} = {c['value']:.4g} violates "
                    f"{c['op']} {c['limit']:.4g}")

    print(f"{len(scenarios)} scenarios, "
          f"{sum(1 for s in scenarios if s.get('pass'))} within thresholds, "
          f"{sum(1 for s in scenarios if s.get('deterministic'))} "
          "deterministic"
          + (f", {sum(1 for s in scenarios if s.get('threads_matches'))} "
             f"bit-identical at {args.threads} lanes" if args.threads else "")
          + (f", {sum(1 for s in scenarios if s['name'] in golden)} "
             "checked against the golden baseline" if golden else ""))

    if tmp is not None:
        os.unlink(tmp.name)

    if failures:
        print("\nscenario gate FAILED:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("\nscenario gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
