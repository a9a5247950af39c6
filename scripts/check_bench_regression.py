#!/usr/bin/env python3
"""Compare a freshly-run micro-benchmark JSON against the committed baseline.

Usage:
    scripts/check_bench_regression.py --baseline BENCH_micro_gpusim.json \
        --current build/bench_fresh.json [--threshold 0.25]

Gates on items_per_second (the throughput counter every gated benchmark
reports) with a deliberately generous default threshold: CI machines are
noisy and shared, so the gate is meant to catch step-function regressions
(an accidental O(n^2), a lost cache), not single-digit drift. Benchmarks
present only in the current run (newly added shapes) pass; benchmarks that
disappeared fail, so a silently dropped shape cannot fake a green gate.

Both files must come from release-built harnesses: the committed baseline
records `library_build_type` in its context, and this script refuses to
compare debug-harness numbers (see README "Benchmarking methodology").

The multi-lane fleet shapes (`BM_ClusterFleetOpenLoop/N/T`: N GPUs, T worker
lanes on the sharded engine) additionally get a within-run speedup check
against their 1-lane sibling `BM_ClusterFleetOpenLoop/N` — the
one comparison that is machine-independent, since both shapes ran on the
same box seconds apart. It is gated when the current run had a core per
lane (T <= the `num_cpus` its JSON context records): a T-lane shape more
than --threshold slower than its 1-lane sibling fails, since extra lanes on
idle cores must never make a fleet slower. With fewer cores than lanes (or
no recorded core count) it stays an advisory report: an oversubscribed
barrier can only show its overhead. The fleet shapes time in wall clock
(UseRealTime), so their names carry the harness's `/real_time` suffix,
which the pairing ignores.
"""

import argparse
import json
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def items_per_second(doc):
    out = {}
    for bench in doc.get("benchmarks", []):
        if bench.get("run_type") != "iteration":
            continue
        ips = bench.get("items_per_second")
        if ips is not None:
            out[bench["name"]] = float(ips)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--current", required=True)
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="maximum tolerated items/s slowdown (fraction)")
    args = parser.parse_args()

    baseline_doc = load(args.baseline)
    current_doc = load(args.current)

    for name, doc in (("baseline", baseline_doc), ("current", current_doc)):
        build = doc.get("context", {}).get("library_build_type", "unknown")
        if build != "release":
            print(f"FAIL: {name} harness library_build_type={build!r}; "
                  "regenerate against a release-built harness before gating")
            return 1

    baseline = items_per_second(baseline_doc)
    current = items_per_second(current_doc)

    failures = []
    width = max((len(n) for n in baseline), default=10) + 2
    print(f"{'benchmark':<{width}} {'baseline':>14} {'current':>14} {'ratio':>8}")
    for name in sorted(baseline):
        if name not in current:
            failures.append(f"{name}: present in baseline but not in current run")
            print(f"{name:<{width}} {baseline[name]:>14.4g} {'MISSING':>14}")
            continue
        ratio = current[name] / baseline[name]
        flag = ""
        if ratio < 1.0 - args.threshold:
            failures.append(
                f"{name}: {current[name]:.4g} items/s vs baseline "
                f"{baseline[name]:.4g} ({(1.0 - ratio) * 100.0:.1f}% slower, "
                f"threshold {args.threshold * 100.0:.0f}%)")
            flag = "  << REGRESSION"
        print(f"{name:<{width}} {baseline[name]:>14.4g} {current[name]:>14.4g}"
              f" {ratio:>7.2f}x{flag}")
    for name in sorted(set(current) - set(baseline)):
        print(f"{name:<{width}} {'(new)':>14} {current[name]:>14.4g}")

    # Within-run multi-lane vs 1-lane speedup: gated when the runner has a
    # core per lane, advisory otherwise (see module docstring).
    num_cpus = current_doc.get("context", {}).get("num_cpus")
    suffix = "/real_time"
    shapes = {n[:-len(suffix)] if n.endswith(suffix) else n: n
              for n in current if n.startswith("BM_ClusterFleetOpenLoop/")}
    for shape in sorted(s for s in shapes if s.count("/") == 2):
        single = shape.rsplit("/", 1)[0]
        if single in shapes and current[shapes[single]] > 0:
            ratio = current[shapes[shape]] / current[shapes[single]]
            threads = int(shape.rsplit("/", 1)[1])
            gated = isinstance(num_cpus, int) and threads <= num_cpus
            flag = ""
            if gated and ratio < 1.0 - args.threshold:
                failures.append(
                    f"{shape}: {ratio:.2f}x its 1-lane sibling {single} "
                    f"with {threads} lanes on {num_cpus} cpus "
                    f"({(1.0 - ratio) * 100.0:.1f}% slower, "
                    f"threshold {args.threshold * 100.0:.0f}%)")
                flag = "  << SLOWER THAN 1 LANE"
            print(f"sharded speedup {shape} vs {single}: {ratio:.2f}x "
                  f"({threads} lanes, {num_cpus} cpus: "
                  f"{'gated' if gated else 'advisory'}){flag}")

    if failures:
        print("\nperf gate FAILED:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("\nperf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
