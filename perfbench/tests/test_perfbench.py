#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

    python3 perfbench/tests/test_perfbench.py        # from the repo root

- BENCHMARK.json keeps its required shape and limits, and the driver's
  metric tables (names and units) match it.
- A seconds-long tiny-size pass of every workload, untraced and traced,
  passes its checks and prints exactly the metrics BENCHMARK.json names.
- A kernel decorator that corrupts one y element pushes error_rate above 0
  and fails the check, on every workload.
- In a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits non-zero without printing a result.

The first test that runs the benchmark builds it (about a minute).
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")
WORKLOADS = ("fem_cg", "graph_pagerank", "serve_zipf")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_bench(args, cwd=ROOT, timeout=900):
    p = subprocess.run([sys.executable, RUN] + args, cwd=cwd,
                       capture_output=True, text=True, timeout=timeout)
    lines = [l for l in p.stdout.splitlines() if l.strip()]
    try:
        summary = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        summary = None
    return p, summary


def tiny(workload, trace, *extra):
    return run_bench(["--workload", workload, "--seed", "5", "--seconds",
                      "2", "--trace", str(trace), "--tiny"] + list(extra))


def detail(workload, trace):
    with open(os.path.join(ROOT, ".bench_out", "%s-s5-t%d.json" %
                           (workload, trace))) as f:
        return json.load(f)


class SpecTest(unittest.TestCase):
    def test_shape_and_limits(self):
        spec = load_spec()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertEqual(spec["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(spec["paths"], ["perfbench"])
        self.assertIsInstance(spec["run_seconds"], int)
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(WORKLOADS))
        names = []
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
            names.append(w["name"])
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m)
            names.append(m["name"])
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]),
                         ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))
        self.assertLessEqual(os.path.getsize(
            os.path.join(ROOT, "BENCHMARK.json")), 64 * 1024)

    def test_driver_tables_match_spec(self):
        spec = load_spec()
        pair = re.compile(r'\{"([^"]+)", "([^"]+)"\}')

        def table(path, func):
            with open(os.path.join(BENCH, "driver", path)) as f:
                src = f.read()
            body = src[src.index(func + "() {"):]
            return pair.findall(body[:body.index("};")])

        self.assertEqual(table("Main.cpp", "endToEndMetrics"),
                         [(m["name"], m["unit"]) for m in spec["end_to_end"]])
        self.assertEqual(table("Bench.cpp", "perLayerMetrics"),
                         [(m["name"], m["unit"]) for m in spec["per_layer"]])


class TinyPassTest(unittest.TestCase):
    def check_pass(self, workload, trace):
        spec = load_spec()
        p, summary = tiny(workload, trace)
        self.assertEqual(p.returncode, 0, p.stderr[-3000:])
        self.assertIsNotNone(summary, p.stdout[-2000:])
        self.assertEqual(set(summary), {"correct", "attempted", "failed",
                                        "metrics"})
        self.assertTrue(summary["correct"])
        self.assertEqual(summary["failed"], 0)
        self.assertGreaterEqual(summary["attempted"], 1)
        want = spec["per_layer" if trace else "end_to_end"]
        self.assertEqual(list(summary["metrics"]), [m["name"] for m in want])
        for m in want:
            got = summary["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])
        record = detail(workload, trace)
        self.assertEqual(record["error_rate"], 0)
        for key in ("nproc", "l2_total_bytes", "l3_total_bytes", "omp_env",
                    "telemetry_compiled", "failpoints_compiled", "source_id",
                    "seed"):
            self.assertIn(key, record["provenance"])
        if workload != "serve_zipf":
            self.assertIn("plans", record["provenance"])
        if trace:
            with open(os.path.join(ROOT, ".bench_out",
                                   "%s-s5-t1.trace.json" % workload)) as f:
                events = json.load(f)["traceEvents"]
            self.assertGreater(len(events), 0)
            self.assertTrue(all(e["ph"] == "X" for e in events))

    def test_untraced(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check_pass(w, 0)

    def test_traced(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check_pass(w, 1)


class CorruptionTest(unittest.TestCase):
    def test_corrupt_y_fails_the_check(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                p, summary = tiny(w, 0, "--corrupt-y")
                self.assertNotEqual(p.returncode, 0)
                self.assertIsNotNone(summary, p.stderr[-2000:])
                self.assertFalse(summary["correct"])
                self.assertGreater(summary["failed"], 0)
                self.assertGreater(detail(w, 0)["error_rate"], 0)


class BareDirectoryTest(unittest.TestCase):
    def test_fails_without_the_repository(self):
        with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(BENCH, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            p = subprocess.run([sys.executable, "perfbench/run.py",
                                "--workload", "fem_cg", "--seed", "1",
                                "--seconds", "1", "--trace", "0"], cwd=tmp,
                               capture_output=True, text=True, timeout=180)
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"correct"', p.stdout)


if __name__ == "__main__":
    unittest.main()
