#!/usr/bin/env python3
"""Telemetry gate over the scenario matrix (docs/OBSERVABILITY.md).

Usage:
    scripts/check_telemetry.py --json build/scenarios.json \
        --telemetry-dir build/telemetry

Validates, for every scenario in the bench_fig_scenarios JSON report:

  - telemetry_deterministic: the telemetry capture (sampler series + event
    log) repeated bit-identically across the driver's built-in re-run;
  - telemetry_inert: a telemetry-disabled run produced the same behaviour
    fingerprint — observation must not perturb the simulation;
  - the per-scenario telemetry artifact (<name>.telemetry.json) parses,
    matches the schema, carries the digest the report claims, has at least
    one track with monotonically increasing timestamps, and a profile with
    non-zero event counts;
  - the per-scenario Perfetto trace (<name>.trace.json) parses as a JSON
    array and contains all three phase types: "X" (spans), "C" (counters),
    and "i" (instants), and its spans carry both task classes ("HP" and
    "LP") — every scenario runs both, so a one-class trace means the span
    args lost the task's class;
  - every "ts" and "dur" in the trace is a plain decimal (exact simulated
    nanoseconds), never exponent form, and no two "X" spans on one
    (pid, tid) lane overlap by more than OVERLAP_TOLERANCE_US. Every scenario
    runs MPS with one stream per context and staging on, so a context lane
    holds one stage at a time; an overlap means rounded timestamps.

The gate is strict: the simulator is deterministic, so any mismatch is a
real regression, not machine noise.
"""

import argparse
import json
import os
import sys

TELEMETRY_KEYS = {"scenario", "sample_period_us", "digest", "fingerprint",
                  "timeseries", "events", "profile"}
PROFILE_KEYS = {"events_executed", "callbacks_inline", "callbacks_heap",
                "heap_high_water", "pool_slots", "windows_dispatched",
                "windows_skipped", "shard_runs", "wall_ms_control",
                "wall_ms_parallel", "wall_ms_lane_wait", "solver_flushes",
                "solver_contexts_solved", "solver_contexts_reused",
                "dirty_hit_rate", "task_records", "wall_ms_offline",
                "wall_ms_alg1", "wall_ms_run", "wall_ms_total"}
EVENT_KEYS = {"ts_us", "kind", "cause", "gpu", "peer", "task", "value"}
# Event-kind vocabulary (metrics/eventlog.cpp event_kind_name). A record
# outside this set means the exporter and the gate disagree about the log's
# schema — fail loudly instead of silently passing unknown kinds through.
KNOWN_EVENT_KINDS = {"admit", "reject", "migrate", "transfer", "fault",
                     "rehome", "drain", "steal", "coalesce", "retry",
                     "hedge", "breaker"}
# Timestamps are printed with three decimals (nanoseconds); anything above
# half a nanosecond is a real overlap, not print rounding.
OVERLAP_TOLERANCE_US = 0.0005


class Number(float):
    """A JSON float that remembers how it was written."""

    def __new__(cls, literal):
        number = super().__new__(cls, literal)
        number.literal = literal
        return number


def check_telemetry_file(path, name, report_digest, failures):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        failures.append(f"{name}: telemetry artifact unreadable: {e}")
        return

    missing = TELEMETRY_KEYS - set(doc)
    if missing:
        failures.append(f"{name}: telemetry JSON missing keys {sorted(missing)}")
        return
    if doc["scenario"] != name:
        failures.append(f"{name}: artifact names scenario {doc['scenario']!r}")
    if report_digest and doc["digest"] != report_digest:
        failures.append(
            f"{name}: artifact digest {doc['digest']} != report digest "
            f"{report_digest} — artifact is from a different run")

    ts = doc["timeseries"]
    tracks = ts.get("tracks", [])
    if not tracks:
        failures.append(f"{name}: telemetry has no sampler tracks")
    if ts.get("period_us", 0) <= 0:
        failures.append(f"{name}: non-positive sample period")
    for track in tracks:
        stamps = [s[0] for s in track.get("samples", [])]
        if not stamps:
            failures.append(
                f"{name}: track {track.get('name')!r} (device "
                f"{track.get('device')}) has no samples")
            break
        if any(b < a for a, b in zip(stamps, stamps[1:])):
            failures.append(
                f"{name}: track {track.get('name')!r} timestamps not "
                "monotonically increasing")
            break

    for ev in doc["events"]:
        missing = EVENT_KEYS - set(ev)
        if missing:
            failures.append(f"{name}: event record missing keys "
                            f"{sorted(missing)}")
            break
        if ev["kind"] not in KNOWN_EVENT_KINDS:
            failures.append(f"{name}: unknown event kind {ev['kind']!r}")
            break

    profile = doc["profile"]
    missing = PROFILE_KEYS - set(profile)
    if missing:
        failures.append(f"{name}: profile missing keys {sorted(missing)}")
    elif profile["events_executed"] <= 0:
        failures.append(f"{name}: profile reports no events executed")


def check_trace_file(path, name, failures):
    try:
        with open(path) as f:
            trace = json.load(f, parse_float=Number)
    except (OSError, json.JSONDecodeError) as e:
        failures.append(f"{name}: Perfetto trace unreadable: {e}")
        return
    if not isinstance(trace, list):
        failures.append(f"{name}: Perfetto trace is not a JSON array")
        return
    phases = {ev.get("ph") for ev in trace}
    for ph, what in (("X", "spans"), ("C", "counter samples"),
                     ("i", "instant events")):
        if ph not in phases:
            failures.append(f"{name}: Perfetto trace has no \"{ph}\" {what}")
    classes = {ev.get("args", {}).get("priority")
               for ev in trace if ev.get("ph") == "X"}
    for cls in ("HP", "LP"):
        if cls not in classes:
            failures.append(f"{name}: Perfetto trace has no {cls} spans")

    rounded = [ev[key] for ev in trace for key in ("ts", "dur")
               if "e" in getattr(ev.get(key), "literal", "").lower()]
    if rounded:
        failures.append(
            f"{name}: {len(rounded)} ts/dur values in exponent form (first "
            f"{rounded[0].literal}) — timestamps lost their nanoseconds")

    lanes = {}
    for ev in trace:
        if ev.get("ph") == "X":
            lanes.setdefault((ev.get("pid"), ev.get("tid")), []).append(ev)
    overlaps = 0
    worst = 0.0
    for spans in lanes.values():
        spans.sort(key=lambda ev: ev["ts"])
        for prev, cur in zip(spans, spans[1:]):
            overlap = prev["ts"] + prev["dur"] - cur["ts"]
            if overlap > OVERLAP_TOLERANCE_US:
                overlaps += 1
                worst = max(worst, overlap)
    if overlaps:
        failures.append(
            f"{name}: {overlaps} adjacent spans overlap on their (pid, tid) "
            f"lane (worst {worst:.3f} us)")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", required=True,
                        help="bench_fig_scenarios JSON report")
    parser.add_argument("--telemetry-dir", required=True,
                        help="directory holding <name>.telemetry.json and "
                             "<name>.trace.json artifacts")
    args = parser.parse_args()

    with open(args.json) as f:
        doc = json.load(f)
    scenarios = doc.get("scenarios", [])

    failures = []
    if not scenarios:
        failures.append("report holds no scenarios")

    for s in scenarios:
        name = s.get("name", "?")
        if not s.get("telemetry_deterministic", False):
            failures.append(
                f"{name}: telemetry NOT bit-identical across repeat runs")
        if not s.get("telemetry_inert", False):
            failures.append(
                f"{name}: telemetry PERTURBED the run (behaviour fingerprint "
                "moved when telemetry was enabled)")
        check_telemetry_file(
            os.path.join(args.telemetry_dir, f"{name}.telemetry.json"),
            name, s.get("telemetry_digest"), failures)
        check_trace_file(
            os.path.join(args.telemetry_dir, f"{name}.trace.json"),
            name, failures)

    print(f"{len(scenarios)} scenarios, "
          f"{sum(1 for s in scenarios if s.get('telemetry_deterministic'))} "
          "telemetry-deterministic, "
          f"{sum(1 for s in scenarios if s.get('telemetry_inert'))} inert")

    if failures:
        print("\ntelemetry gate FAILED:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("\ntelemetry gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
