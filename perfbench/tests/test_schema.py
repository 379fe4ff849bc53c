#!/usr/bin/env python3
"""Schema tests of the benchmark: BENCHMARK.json against the benchmark
contract, the metric names the perfbench sources emit against BENCHMARK.json,
and run.py's result validation.

  python3 perfbench/tests/test_schema.py      (from the repo root)
"""
import json
import os
import re
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def emitted_names(kind):
    """Metric names added by the perfbench measure_* (kind 'measure') or
    trace_* and probe_* (kind 'trace') functions, per function."""
    out = {}
    for fn in sorted(os.listdir(BENCH_DIR)):
        if not fn.endswith(".cpp"):
            continue
        with open(os.path.join(BENCH_DIR, fn)) as f:
            src = f.read()
        # Top-level function definitions start at column 0.
        parts = re.split(r"\n(?=(?:void|int|double|std::\S+) \w+\()", src)
        for part in parts:
            m = re.match(r"(?:void|int|double|std::\S+) (\w+)\(", part)
            if not m:
                continue
            name = m.group(1)
            wanted = (name.startswith("measure_") if kind == "measure" else
                      name.startswith(("trace_", "probe_")))
            if wanted:
                out[name] = set(re.findall(r'out\.add\(\s*"([^"]+)"', part))
    return out


class ContractTest(unittest.TestCase):
    def setUp(self):
        self.b = load_bench()

    def test_top_level_keys(self):
        self.assertEqual(set(self.b), {"command", "paths", "run_seconds",
                                       "workloads", "end_to_end",
                                       "per_layer"})
        self.assertLessEqual(
            os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")), 64 * 1024)

    def test_command_and_paths(self):
        cmd = self.b["command"]
        self.assertTrue(1 <= len(cmd) <= 32)
        for a in cmd:
            self.assertLessEqual(len(a), 200)
            self.assertFalse(a.startswith("/") or ".." in a.split("/"))
        self.assertTrue(1 <= len(self.b["paths"]) <= 16)
        for p in self.b["paths"]:
            self.assertRegex(p, PATH)
            self.assertTrue(os.path.isdir(os.path.join(ROOT, p)))
        for a in cmd[1:]:
            if "/" in a:
                self.assertTrue(any(a.startswith(p + "/")
                                    for p in self.b["paths"]), a)

    def test_run_seconds_fit_the_budget(self):
        rs = self.b["run_seconds"]
        self.assertIsInstance(rs, int)
        self.assertTrue(1 <= rs <= 60)
        runs = 4 + 22 * len(self.b["workloads"])
        # Measured on a 4-core Xeon: an untraced run takes run_seconds plus
        # under 8 s (build check, set-up, the last repetition, checks); a
        # traced run adds under 25 s more (the other workloads' short
        # passes); a cold build takes about 90 s on 3 jobs.
        traced_runs = 2 * len(self.b["workloads"])
        self.assertLess(runs * (rs + 8) + traced_runs * 25 + 2 * 150, 3420)

    def test_workloads(self):
        w = self.b["workloads"]
        self.assertTrue(2 <= len(w) <= 8)
        for x in w:
            self.assertEqual(set(x), {"name", "why"})
            self.assertRegex(x["name"], NAME)
            self.assertLessEqual(len(x["why"]), 200)
            self.assertNotIn("\n", x["why"])

    def test_metrics(self):
        names = [w["name"] for w in self.b["workloads"]]
        e2e, pl = self.b["end_to_end"], self.b["per_layer"]
        self.assertTrue(1 <= len(e2e) <= 16)
        self.assertTrue(1 <= len(pl) <= 128)
        for m in e2e:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m["name"])
        for m in pl:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in e2e + pl:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
            names.append(m["name"])
        self.assertEqual(len(names), len(set(names)), "names used twice")
        setup = [m for m in e2e if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]),
                         ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in e2e))


class EmittedNamesTest(unittest.TestCase):
    """Every workload's untraced pass adds exactly the end-to-end metrics;
    the traced passes together add exactly the per-layer metrics."""

    def setUp(self):
        self.b = load_bench()

    def test_each_measure_pass_adds_every_end_to_end_metric(self):
        want = set(run.expected_metrics(self.b, trace=False))
        passes = emitted_names("measure")
        self.assertGreaterEqual(len(passes), len(self.b["workloads"]))
        for fn, names in passes.items():
            self.assertEqual(names, want, fn)

    def test_traced_passes_add_every_per_layer_metric(self):
        want = set(run.expected_metrics(self.b, trace=True))
        got = set()
        for fn, names in emitted_names("trace").items():
            # Each workload's full traced pass reports the overhead; only
            # the named workload's pass runs full.
            if fn.startswith("trace_"):
                self.assertIn("trace_overhead_frac", names, fn)
                names = names - {"trace_overhead_frac"}
            self.assertFalse(got & names, "a per-layer name added twice")
            got |= names
        got.add("trace_overhead_frac")
        self.assertEqual(got, want)


class ValidateTest(unittest.TestCase):
    def setUp(self):
        self.b = load_bench()

    def result(self, trace=False):
        return {"correct": True, "attempted": 10, "failed": 0,
                "metrics": {n: {"value": 1.5, "unit": u} for n, u in
                            run.expected_metrics(self.b, trace).items()}}

    def test_complete_results_pass(self):
        self.assertEqual(run.validate(self.result(False), self.b, False), [])
        self.assertEqual(run.validate(self.result(True), self.b, True), [])

    def test_missing_extra_and_mislabelled_metrics_fail(self):
        r = self.result()
        r["metrics"].pop("setup_s")
        r["metrics"]["bogus"] = {"value": 1, "unit": "s"}
        r["metrics"]["p50_ms"]["unit"] = "s"
        problems = run.validate(r, self.b, False)
        self.assertEqual(len(problems), 3, problems)

    def test_result_keys_and_counts(self):
        r = self.result()
        r["extra"] = 1
        self.assertTrue(run.validate(r, self.b, False))
        r = self.result()
        r["attempted"] = 0
        self.assertTrue(run.validate(r, self.b, False))
        r = self.result()
        r["failed"] = 1.0
        self.assertTrue(run.validate(r, self.b, False))
        r = self.result()
        r["metrics"]["setup_s"]["samples"] = 3
        self.assertTrue(run.validate(r, self.b, False))


if __name__ == "__main__":
    unittest.main(verbosity=1)
