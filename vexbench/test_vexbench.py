"""Tests of the vexsim benchmark itself.

  python3 -m unittest discover -s vexbench -p 'test_*.py'

The smoke tests build vexbench_leg (as run.py does) and run every workload
at --tiny size, so the first run takes about a minute.
"""

import json
import os
import statistics
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics as m  # noqa: E402
import run  # noqa: E402


def span(id_, parent, name, start, end, thread=0):
    return {"id": id_, "parent": parent, "name": name, "thread": thread,
            "start_ns": start, "end_ns": end}


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class MedianQuartileTest(unittest.TestCase):
    def test_median(self):
        self.assertEqual(m.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(m.median([4, 1, 3, 2]), 2.5)
        with self.assertRaises(ValueError):
            m.median([])

    def test_quartiles_match_statistics(self):
        values = [9.8, 10.4, 10.1, 11.0, 9.9, 10.6, 10.2]
        q1, q2, q3 = m.quartiles(values)
        self.assertEqual([q1, q2, q3], statistics.quantiles(values, n=4))
        self.assertEqual(q2, statistics.median(values))

    def test_quartiles_of_one_value(self):
        self.assertEqual(m.quartiles([5.0]), (5.0, 5.0, 5.0))


class SpanSelfTimeTest(unittest.TestCase):
    def test_union_merges_overlaps(self):
        self.assertEqual(m.union_ns([(0, 10), (5, 15), (20, 30)]), 25)
        self.assertEqual(m.union_ns([]), 0)
        self.assertEqual(m.union_ns([(0, 10), (2, 3)]), 10)

    def test_self_time_subtracts_children(self):
        spans = [span(1, 0, "leg", 0, 100),
                 span(2, 1, "cc.build", 10, 30),
                 span(3, 1, "sim.run", 30, 90)]
        selfs = m.self_times(spans)
        self.assertEqual(selfs, {1: 20, 2: 20, 3: 60})

    def test_parallel_children_count_once(self):
        # Two workers overlap in time: the parent's interval they cover is
        # their union, not the sum of their durations.
        spans = [span(1, 0, "leg", 0, 100),
                 span(2, 1, "point", 0, 80, thread=1),
                 span(3, 1, "point", 10, 90, thread=2),
                 span(4, 2, "sim.run", 0, 80, thread=1),
                 span(5, 3, "sim.run", 10, 70, thread=2)]
        selfs = m.self_times(spans)
        self.assertEqual(selfs[1], 10)
        self.assertEqual(selfs[2], 0)
        self.assertEqual(selfs[3], 20)
        by_name = m.self_seconds_by_name(spans)
        self.assertAlmostEqual(by_name["sim.run"], 140e-9)
        self.assertAlmostEqual(by_name["point"], 20e-9)
        self.assertAlmostEqual(
            m.attributed_share(spans, ("leg", "point")), 140 / 170)

    def test_children_clipped_to_parent(self):
        spans = [span(1, 0, "point", 10, 20), span(2, 1, "sim.run", 0, 15)]
        self.assertEqual(m.self_times(spans)[1], 5)


class MetricNameTest(unittest.TestCase):
    def test_charset(self):
        self.assertTrue(m.NAME_RE.match("sim.phase.select_frac"))
        self.assertTrue(m.NAME_RE.match("setup_s"))
        self.assertFalse(m.NAME_RE.match(".leading_dot"))
        self.assertFalse(m.NAME_RE.match("has space"))
        self.assertFalse(m.NAME_RE.match("x" * 65))
        self.assertFalse(m.NAME_RE.match("a/b"))
        self.assertTrue(m.UNIT_RE.match("Mops/s"))
        self.assertFalse(m.UNIT_RE.match("no spaces"))

    def test_benchmark_json_matches_run_py(self):
        b = benchmark_json()
        e2e = {x["name"]: x["unit"] for x in b["end_to_end"]}
        layers = {x["name"]: x["unit"] for x in b["per_layer"]}
        self.assertEqual(e2e, run.END_TO_END)
        self.assertEqual(layers, run.PER_LAYER_UNITS)
        self.assertEqual([w["name"] for w in b["workloads"]],
                         list(run.WORKLOADS))
        names = [x["name"] for x in b["end_to_end"] + b["per_layer"]]
        names += [w["name"] for w in b["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertTrue(m.NAME_RE.match(name), name)
        for unit in list(e2e.values()) + list(layers.values()):
            self.assertTrue(m.UNIT_RE.match(unit), unit)
        for x in b["end_to_end"]:
            self.assertLessEqual(x["bound"], 0.25)
        setup = [x for x in b["end_to_end"] if x["name"] == "setup_s"][0]
        self.assertEqual(setup["bound"],
                         max(x["bound"] for x in b["end_to_end"]))


class TinySmokeTest(unittest.TestCase):
    """Every workload at --tiny size, both trace modes: every named metric
    is emitted, with its unit, and the outputs check out."""

    def run_bench(self, workload, trace):
        p = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
             "--tiny"], cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, timeout=600)
        self.assertEqual(p.returncode, 0, p.stderr[-2000:])
        return json.loads(p.stdout.strip().splitlines()[-1])

    def test_every_metric_emitted_with_unit(self):
        b = benchmark_json()
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {x["name"]: x["unit"] for x in b[key]}
            for w in run.WORKLOADS:
                with self.subTest(workload=w, trace=trace):
                    r = self.run_bench(w, trace)
                    self.assertEqual(
                        set(r), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(r["correct"])
                    self.assertEqual(r["failed"], 0)
                    self.assertGreaterEqual(r["attempted"], 1)
                    got = {k: v["unit"] for k, v in r["metrics"].items()}
                    self.assertEqual(got, want)
                    for v in r["metrics"].values():
                        self.assertIsInstance(v["value"], (int, float))


if __name__ == "__main__":
    unittest.main()
