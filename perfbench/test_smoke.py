#!/usr/bin/env python3
"""Smoke test of the repo benchmark at tiny sizes.

    python3 perfbench/test_smoke.py

Checks that BENCHMARK.json keeps the benchmark contract, that every
workload prints the declared metrics with their units in both modes, that
a falsified answer trips the correctness gate (non-zero exit, failed > 0;
in analog_reprogram both a non-finite flow and a fallback answer), and that the benchmark refuses to produce a result without the program's
sources. Builds the benchmark on first use, like run.py.
"""
import json
import math
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["python3", "perfbench/run.py"]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, *extra, cwd=ROOT):
    cmd = RUN + ["--workload", workload, "--seed", "3", "--seconds", "0.3",
                 "--trace", str(trace), "--smoke", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


class Contract(unittest.TestCase):
    def test_benchmark_json_shape(self):
        s = spec()
        self.assertEqual(set(s), {"command", "paths", "run_seconds", "workloads",
                                  "end_to_end", "per_layer"})
        self.assertEqual(s["paths"], ["perfbench"])
        self.assertTrue(1 <= s["run_seconds"] <= 60)
        self.assertTrue(2 <= len(s["workloads"]) <= 8)
        names = []
        for w in s["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            names.append(w["name"])
        for m in s["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
            names.append(m["name"])
        for m in s["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        for m in s["end_to_end"] + s["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in s["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in s["end_to_end"]))


class Workloads(unittest.TestCase):
    def check_result(self, proc, declared):
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(out["correct"])
        self.assertGreaterEqual(out["attempted"], 1)
        self.assertEqual(out["failed"], 0)
        self.assertEqual(set(out["metrics"]), {m["name"] for m in declared})
        for m in declared:
            got = out["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
        return out

    def test_untraced_reports_every_end_to_end_metric(self):
        for w in spec()["workloads"]:
            with self.subTest(workload=w["name"]):
                out = self.check_result(run(w["name"], 0), spec()["end_to_end"])
                for name, m in out["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_traced_reports_every_per_layer_metric(self):
        for w in spec()["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check_result(run(w["name"], 1), spec()["per_layer"])

    def test_falsified_answer_fails_the_run(self):
        for w in spec()["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    proc = run(w["name"], trace, "--corrupt-op", "1")
                    self.assertNotEqual(proc.returncode, 0)
                    lines = proc.stdout.strip().splitlines()
                    out = json.loads(lines[-1])
                    self.assertFalse(out["correct"])
                    self.assertGreaterEqual(out["failed"], 1)
                    if w["name"] == "analog_reprogram":
                        # Step 1 non-finite, step 2 answered by the fallback bank.
                        failures = " ".join(json.loads(lines[-2])["meta"]["failures"])
                        self.assertIn("non-finite", failures)
                        self.assertIn("fallback", failures)

    def test_same_seed_same_accuracy(self):
        a = json.loads(run("analog_reprogram", 0).stdout.strip().splitlines()[-1])
        b = json.loads(run("analog_reprogram", 0).stdout.strip().splitlines()[-1])
        self.assertEqual(a["metrics"]["rel_error"], b["metrics"]["rel_error"])


class WithoutSources(unittest.TestCase):
    def test_no_result_without_the_program(self):
        bare = ROOT / ".bench_build" / "smoke-bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc = run("edit_stream", 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            for line in proc.stdout.splitlines():
                self.assertNotIn('"correct"', line)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(unittest.main())
