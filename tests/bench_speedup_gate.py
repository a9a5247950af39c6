#!/usr/bin/env python3
"""Self-test of the sharded speed-up gate in scripts/check_bench_regression.py.

    python3 tests/bench_speedup_gate.py

A BM_ClusterFleetOpenLoop/N/T shape more than --threshold slower than its
1-lane sibling /N must fail the gate when the current run recorded at least
T cpus, and only be reported otherwise. The committed BENCH_micro_gpusim.json
(4 cpus; 1.20x at /8/4, 1.12x at /64/4) must pass against itself.
Exits 0 when every case behaves, 1 otherwise.
"""

import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "check_bench_regression.py")
BASELINE = os.path.join(ROOT, "BENCH_micro_gpusim.json")


def fleet_doc(num_cpus, one_lane, four_lanes):
    """A release-harness JSON with one 8-GPU fleet shape at 1 and 4 lanes."""
    context = {"library_build_type": "release"}
    if num_cpus is not None:
        context["num_cpus"] = num_cpus
    return {
        "context": context,
        "benchmarks": [
            {"name": "BM_ClusterFleetOpenLoop/8/real_time",
             "run_type": "iteration", "items_per_second": one_lane},
            {"name": "BM_ClusterFleetOpenLoop/8/4/real_time",
             "run_type": "iteration", "items_per_second": four_lanes},
        ],
    }


def gate(baseline, current):
    """Runs the gate; returns (exit code, stdout)."""
    proc = subprocess.run(
        [sys.executable, SCRIPT, "--baseline", baseline, "--current", current,
         "--threshold", "0.25"],
        capture_output=True, text=True, check=False)
    return proc.returncode, proc.stdout


def main():
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        # (case, num_cpus, 1-lane items/s, 4-lane items/s, expected exit)
        cases = [
            ("4 lanes 40% slower on 4 cpus", 4, 1000.0, 600.0, 1),
            ("4 lanes 40% slower on 2 cpus", 2, 1000.0, 600.0, 0),
            ("4 lanes 40% slower, no cpu count", None, 1000.0, 600.0, 0),
            ("4 lanes 20% slower on 4 cpus", 4, 1000.0, 800.0, 0),
            ("4 lanes 1.5x faster on 8 cpus", 8, 1000.0, 1500.0, 0),
        ]
        for name, cpus, one, four, want in cases:
            path = os.path.join(tmp, "fleet.json")
            with open(path, "w") as f:
                json.dump(fleet_doc(cpus, one, four), f)
            # The pair is one file twice: every items/s ratio is 1, so only
            # the speed-up check can fail.
            code, out = gate(path, path)
            if code != want:
                failures.append(f"{name}: exit {code}, want {want}\n{out}")
            elif want == 1 and "SLOWER THAN 1 LANE" not in out:
                failures.append(f"{name}: failed without naming the shape"
                                f"\n{out}")
    code, out = gate(BASELINE, BASELINE)
    if code != 0 or out.count(": gated)") != 2:
        failures.append(f"committed baseline: exit {code}, want 0 with both "
                        f"4-lane shapes gated\n{out}")
    for f in failures:
        print(f"FAIL: {f}")
    print("speed-up gate self-test " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
