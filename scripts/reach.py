#!/usr/bin/env python3
"""What the workloads reach: gcov line and function reach over src/.

Usage (from anywhere; 6.5 to 10 minutes on 4 cores, builds included):
    python3 scripts/reach.py > reach.txt

Builds the `coverage` configure preset (Debug, -O1 --coverage, tests and
examples off) into build-coverage/, and the perfbench driver from
perfbench/CMakeLists.txt with that preset's cache variables into
build-coverage/perfbench. Then it clears every counter and runs each
workload once, one process at a time:

  - every driver CMake builds from bench/*.cpp except the bench_micro_*
    timing harnesses: the paper figures, bench_sec6b_sota,
    bench_tab1_batching, and bench_fig_scenarios with
    --telemetry DIR --threads 2;
  - the three BENCHMARK.json workloads through perfbench at --trace 0
    (which calls only exp::run_daris and exp::run_cluster).

The report merges `gcov --json-format` output across translation units and
both builds, headers included: a line is executable when any translation
unit instruments it and reached when any run executed it. It prints the
reached and executable src/ lines, the unreached lines per file, and every
function that never ran; build and run logs go to stderr.

A function or line that no workload reaches is a deletion candidate, not a
verdict: validation, fault handling and test references stay (ROADMAP.md,
"What the workloads reach").
"""

import glob
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, "build-coverage")
PERF_BUILD = os.path.join(BUILD, "perfbench")
SRC = os.path.join(ROOT, "src") + os.sep

# (workload, seed): the seeds whose digests perfbench/README.md records.
PERFBENCH_WORKLOADS = [
    ("paper-grid-resnet18", 42),
    ("fleet-256-poisson", 1),
    ("storm-64-healing", 7),
]


def run(cmd, stdout=sys.stderr):
    """Runs one build step or workload; its output goes to stderr (or
    `stdout`), so the report is all that reaches stdout."""
    print("+ " + " ".join(cmd), file=sys.stderr, flush=True)
    subprocess.run(cmd, check=True, cwd=ROOT, stdout=stdout)


def coverage_cache_variables():
    """The `coverage` preset's cacheVariables: the one place the build type
    and flags of both builds are set."""
    with open(os.path.join(ROOT, "CMakePresets.json")) as f:
        presets = json.load(f)["configurePresets"]
    return next(p for p in presets if p["name"] == "coverage")["cacheVariables"]


def build():
    jobs = str(os.cpu_count() or 1)
    run(["cmake", "--preset", "coverage"])
    run(["cmake", "--build", "--preset", "coverage", "-j", jobs])
    run(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", PERF_BUILD] +
        [f"-D{k}={v}" for k, v in coverage_cache_variables().items()])
    run(["cmake", "--build", PERF_BUILD, "-j", jobs, "--target", "perfbench"])


def bench_drivers():
    """bench_<name> for each bench/<name>.cpp (CMakeLists.txt's glob),
    without the micro_* timing harnesses."""
    names = (os.path.splitext(os.path.basename(src))[0]
             for src in glob.glob(os.path.join(ROOT, "bench", "*.cpp")))
    return sorted("bench_" + n for n in names if not n.startswith("micro_"))


def gcda_files():
    return glob.glob(os.path.join(BUILD, "**", "*.gcda"), recursive=True)


def run_workloads():
    for path in gcda_files():
        os.remove(path)
    telemetry = os.path.join(BUILD, "reach-telemetry")
    shutil.rmtree(telemetry, ignore_errors=True)
    quiet = subprocess.DEVNULL
    for name in bench_drivers():
        args = (["--telemetry", telemetry, "--threads", "2"]
                if name == "bench_fig_scenarios" else [])
        run([os.path.join(BUILD, name)] + args, quiet)
    for workload, seed in PERFBENCH_WORKLOADS:
        run([os.path.join(PERF_BUILD, "perfbench"), "--workload", workload,
             "--seed", str(seed), "--seconds", "1", "--trace", "0"], quiet)


def gcov_documents(files):
    """Yields each JSON document `gcov --json-format --stdout` prints."""
    out = subprocess.run(["gcov", "--json-format", "--stdout"] + files,
                         check=True, capture_output=True, text=True,
                         cwd=BUILD).stdout
    decoder = json.JSONDecoder()
    pos = 0
    while True:
        while pos < len(out) and out[pos].isspace():
            pos += 1
        if pos == len(out):
            return
        doc, pos = decoder.raw_decode(out, pos)
        yield doc


def merge():
    """{file: {line: count}} and {(file, start_line, name): count} over src/."""
    lines, functions = {}, {}
    for doc in gcov_documents(sorted(gcda_files())):
        cwd = doc.get("current_working_directory", BUILD)
        for f in doc["files"]:
            path = os.path.normpath(os.path.join(cwd, f["file"]))
            if not path.startswith(SRC):
                continue
            rel = os.path.relpath(path, ROOT)
            counts = lines.setdefault(rel, {})
            for line in f["lines"]:
                n = line["line_number"]
                counts[n] = counts.get(n, 0) + line["count"]
            for fn in f["functions"]:
                key = (rel, fn["start_line"], fn["demangled_name"])
                functions[key] = functions.get(key, 0) + fn["execution_count"]
    return lines, functions


def ranges(numbers):
    """'3-5, 9' for [3, 4, 5, 9]."""
    out, start, prev = [], None, None
    for n in numbers:
        if start is not None and n == prev + 1:
            prev = n
            continue
        if start is not None:
            out.append(f"{start}-{prev}" if prev != start else str(start))
        start = prev = n
    if start is not None:
        out.append(f"{start}-{prev}" if prev != start else str(start))
    return ", ".join(out)


def report(lines, functions):
    executable = sum(len(c) for c in lines.values())
    reached = sum(1 for c in lines.values() for n in c.values() if n > 0)
    print(f"src/ lines reached: {reached} of {executable} "
          f"({100.0 * reached / max(executable, 1):.1f}%)")
    print("\nUnreached lines per file:")
    for rel in sorted(lines):
        missed = sorted(n for n, count in lines[rel].items() if count == 0)
        if missed:
            print(f"  {rel} ({len(missed)}): {ranges(missed)}")
    never = sorted(k for k, count in functions.items() if count == 0)
    print(f"\nFunctions that never ran ({len(never)}):")
    for rel, start, name in never:
        print(f"  {rel}:{start}  {name}")


def main():
    build()
    run_workloads()
    report(*merge())


if __name__ == "__main__":
    main()
