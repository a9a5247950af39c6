#!/usr/bin/env python3
"""Self-tests for the benchmark.

    python3 perfbench/test_perfbench.py

Runs the workloads in --quick form (well under a minute in total after the
build) and checks that: metric names and units match BENCHMARK.json and the
name pattern; two runs on one seed give identical simulated metrics; an
injected digest mismatch shows up as a failed repetition and a non-zero exit;
and the benchmark refuses to run without the simulator sources.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
# End-to-end metrics measured in host time or memory; every other one is a
# simulated outcome, fixed by the seed.
HOST_METRICS = {"wall_s", "setup_s", "sim_jobs_per_s", "peak_rss_mb"}

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, seed=3, trace=0, *extra):
    proc = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace), "--quick", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result


class MetricSpecTest(unittest.TestCase):
    def test_spec_names_and_units(self):
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        names += [w["name"] for w in SPEC["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)

    def check_output(self, result, spec_metrics):
        expected = {m["name"]: m["unit"] for m in spec_metrics}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, expected)
        for k, v in result["metrics"].items():
            self.assertIsInstance(v["value"], (int, float), k)

    def test_every_workload_reports_its_metrics(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                rc, result = run(w["name"])
                self.assertEqual(rc, 0)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.check_output(result, SPEC["end_to_end"])
                rc, result = run(w["name"], 3, 1)
                self.assertEqual(rc, 0)
                self.assertTrue(result["correct"])
                self.check_output(result, SPEC["per_layer"])
                self.assertEqual(
                    result["metrics"]["sim.lane_digest_match"]["value"], 1)


class DeterminismTest(unittest.TestCase):
    def test_same_seed_same_simulated_metrics(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                _, a = run(w["name"], 11)
                _, b = run(w["name"], 11)
                sim = {k: v["value"] for k, v in a["metrics"].items()
                       if k not in HOST_METRICS}
                self.assertEqual(
                    sim, {k: b["metrics"][k]["value"] for k in sim})

    def test_seed_changes_inputs(self):
        _, a = run("storm-64-healing", 11)
        _, b = run("storm-64-healing", 12)
        self.assertNotEqual(a["metrics"]["sim_jps"]["value"],
                            b["metrics"]["sim_jps"]["value"])


class FailureTest(unittest.TestCase):
    def test_injected_mismatch_counts_as_failure(self):
        rc, result = run("storm-64-healing", 3, 0, "--inject-mismatch")
        self.assertNotEqual(rc, 0)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertLess(result["metrics"]["pass_frac"]["value"], 1.0)

    def test_injected_mismatch_fails_the_traced_run(self):
        rc, result = run("paper-grid-resnet18", 3, 1, "--inject-mismatch")
        self.assertNotEqual(rc, 0)
        self.assertFalse(result["correct"])

    def test_refuses_to_run_without_sources(self):
        scratch = os.path.join(ROOT, ".bench_build")
        os.makedirs(scratch, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "storm-64-healing", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=170)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
