#!/usr/bin/env python3
"""Tests of the serve-plane benchmark itself.

  python3 perfbench/tests/test_bench.py          # from the repository root

Checks that every metric name is well formed and carries a unit, that
run.py's metric tables match BENCHMARK.json, and that a one-second smoke
run of each workload passes its correctness check (the first run builds
the programs, which takes about a minute).
"""

import importlib.util
import json
import os
import re
import subprocess
import sys
import unittest

PKG = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PKG)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

spec = importlib.util.spec_from_file_location(
    "perfbench_run", os.path.join(PKG, "run.py"))
run = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run)


def bench_run(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(PKG, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True, timeout=900)
    return json.loads(out.stdout.strip().splitlines()[-1])


class MetricTableTest(unittest.TestCase):
    def test_names_and_units(self):
        names = [name for name, _ in run.END_TO_END + run.PER_LAYER]
        self.assertEqual(len(names), len(set(names)))
        for name, unit in run.END_TO_END + run.PER_LAYER:
            self.assertRegex(name, NAME)
            self.assertRegex(unit, UNIT)

    def test_tables_match_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual(
            [(m["name"], m["unit"]) for m in bench["end_to_end"]],
            list(run.END_TO_END))
        self.assertEqual(
            [(m["name"], m["unit"]) for m in bench["per_layer"]],
            list(run.PER_LAYER))
        for workload in bench["workloads"]:
            self.assertIn(workload["name"], run.WORKLOADS)


class SmokeTest(unittest.TestCase):
    def check(self, result, table):
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(list(result["metrics"]), [n for n, _ in table])
        for name, unit in table:
            self.assertEqual(result["metrics"][name]["unit"], unit)

    def test_every_workload(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self.check(bench_run(workload, 0), run.END_TO_END)

    def test_traced_run(self):
        result = bench_run("steady_keyword", 1)
        self.check(result, run.PER_LAYER)
        self.assertGreater(
            result["metrics"]["net.batcher.wait_p50_us"]["value"], 0)


if __name__ == "__main__":
    unittest.main()
