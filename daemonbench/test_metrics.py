#!/usr/bin/env python3
"""Self-tests of the benchmark's own logic (no daemon, no build):

    python3 daemonbench/test_metrics.py
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402


def span(name, start, end, parent=-1, req=-1):
    return [name, start, end, parent, req]


class TailRule(unittest.TestCase):
    def test_nearest_rank_and_count_beyond(self):
        values = list(range(1, 101))  # 1..100
        value, n, beyond = metrics.tail(values, 90)
        self.assertEqual((value, n, beyond), (90, 100, 10))

    def test_unsorted_input(self):
        values = list(range(100, 0, -1))
        self.assertEqual(metrics.tail(values, 90)[0], 90)

    def test_fewer_than_ten_beyond_is_refused(self):
        with self.assertRaises(ValueError):
            metrics.tail(list(range(100)), 91)
        with self.assertRaises(ValueError):
            metrics.tail(list(range(999)), 99)
        self.assertEqual(metrics.tail(list(range(1000)), 99)[2], 10)

    def test_empty(self):
        with self.assertRaises(ValueError):
            metrics.tail([], 50)

    def test_workload_percentiles_leave_room(self):
        # Samples a 40-s run yields at half the request rate measured on a
        # 4-vCPU host (350 and 17 per second).
        slow_samples = {"serve-spmv": 7000, "solve-cg": 340}
        for w, pct in metrics.TAIL_PERCENTILE.items():
            metrics.tail(list(range(slow_samples[w])), pct)


class SelfTime(unittest.TestCase):
    def test_leaf_is_its_duration(self):
        self.assertEqual(metrics.self_times([span("a", 10, 25)]), [15])

    def test_disjoint_children(self):
        spans = [span("p", 0, 100), span("c", 10, 20, 0), span("c", 50, 80, 0)]
        self.assertEqual(metrics.self_times(spans), [60, 10, 30])

    def test_overlapping_children_count_once(self):
        # Two clients' requests inside one batch: [10,60) and [40,90)
        # cover [10,90), so the batch's own time is 100 - 80.
        spans = [span("p", 0, 100), span("c", 10, 60, 0), span("c", 40, 90, 0)]
        self.assertEqual(metrics.self_times(spans)[0], 20)

    def test_contained_child_inside_another(self):
        spans = [span("p", 0, 100), span("c", 10, 90, 0), span("c", 20, 30, 0)]
        self.assertEqual(metrics.self_times(spans)[0], 20)

    def test_children_clipped_to_parent(self):
        spans = [span("p", 10, 50), span("c", 0, 20, 0), span("c", 40, 70, 0)]
        self.assertEqual(metrics.self_times(spans)[0], 20)

    def test_grandchildren_only_reduce_their_parent(self):
        spans = [
            span("root", 0, 100),
            span("solve", 10, 90, 0),
            span("apply", 20, 30, 1),
            span("apply", 40, 60, 1),
        ]
        self.assertEqual(metrics.self_times(spans), [20, 50, 10, 20])


def record(trace):
    rec = {
        "workload": "solve-cg",
        "seed": 1,
        "trace": trace,
        "setup_s": [0.31, 0.30, 0.33],
        "window_s": 10.0,
        "latency_ms": [50.0 + i % 7 for i in range(200)],
        "after_pause_ms": [51.0 + i % 7 for i in range(20)],
        "attempted": 200,
        "ok": 200,
        "wrong": 0,
        "refused": 0,
        "typed_errors": 0,
        "warmup_attempted": 10,
        "warmup_failed": 0,
        "admission_retries": 0,
        "engine_attempts": 0,
        "engine_replies": 0,
        "stats_delta": {"faulted": 0, "recovered": 0},
        "peak_rss_kb": 40960,
        "daemon_clean_exits": True,
    }
    if trace:
        ms = 1000000
        rec["spans"] = [
            span("load.batch", 0, 200 * ms),
            span("serve.request", 0, 60 * ms, 0, 0),
            span("reenact.request", 300 * ms, 360 * ms, -1, 0),
            span("serve.frame", 300 * ms, 301 * ms, 2, 0),
            span("solvers.solve", 301 * ms, 351 * ms, 2, 0),
            span("cpu.spmv", 302 * ms, 342 * ms, 4, 0),
            span("probe", 400 * ms, 900 * ms),
            span("tune.sweep", 400 * ms, 600 * ms, 6),
            span("core.build", 600 * ms, 602 * ms, 6),
            span("core.resilient", 602 * ms, 604 * ms, 6),
            span("sim.launch", 604 * ms, 605 * ms, 6),
            span("core.verify", 605 * ms, 606 * ms, 6),
            span("io.map_open", 606 * ms, 607 * ms, 6),
            span("cpu.stream", 607 * ms, 609 * ms, 6),
        ]
        rec["counts"] = {
            "frame_bytes": 262269,
            "tune_evaluated": 192,
            "tune_skipped": 0,
            "apply_bytes": 824256,
            "format_bytes": 539487,
            "container_bytes": 1052710,
            "stream_bytes": 1052608,
            "reenact_wrong": 0,
            "solver_iterations": [100],
            "iterations": [100, 102],
            "engine_attempts": [1, 1],
        }
    return rec


class ResultSchema(unittest.TestCase):
    def test_untraced_result_has_every_end_to_end_metric(self):
        res = metrics.result(record(0), ok=True)
        metrics.check_result(res, trace=False)
        json.loads(json.dumps(res))
        self.assertTrue(res["correct"])
        self.assertEqual(res["metrics"]["setup_s"]["value"], 0.31)
        self.assertEqual(res["metrics"]["req_per_s"]["value"], 20.0)

    def test_traced_result_has_every_per_layer_metric(self):
        res = metrics.result(record(1), ok=True)
        metrics.check_result(res, trace=True)
        m = {k: v["value"] for k, v in res["metrics"].items()}
        # The request took 60 ms; its re-enactment covers 1 + 50 ms of it.
        self.assertAlmostEqual(m["serve.wait_ms"], 9.0)
        self.assertAlmostEqual(m["serve.covered_share"], 51.0 / 60.0)
        # solve: 50 ms, of which 40 ms applies -> 10 ms self over 100 iters.
        self.assertAlmostEqual(m["solvers.solve_ms"], 10.0)
        self.assertAlmostEqual(m["solvers.apply_share"], 0.8)
        self.assertAlmostEqual(m["solvers.vec_us_per_iter"], 100.0)
        self.assertAlmostEqual(m["cpu.stream_vs_inmem"], 2.0 / 40.0)
        self.assertAlmostEqual(m["trace.overhead_frac"], 1.0 / 53.0)

    def test_negative_wait_is_not_clamped(self):
        rec = record(1)
        rec["spans"][1][2] = 40 * 1000000  # request faster than its layers
        m = metrics.result(rec, ok=True)["metrics"]
        self.assertAlmostEqual(m["serve.wait_ms"]["value"], -11.0)

    def test_any_failure_makes_the_run_incorrect(self):
        rec = record(0)
        rec["wrong"] = 1
        res = metrics.result(rec, ok=True)
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], 1)
        self.assertEqual(res["attempted"], 210)
        self.assertFalse(metrics.result(record(0), ok=False)["correct"])

    def test_warmup_failures_count(self):
        rec = record(0)
        rec["warmup_failed"] = 1
        res = metrics.result(rec, ok=True)
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], 1)

    def test_check_result_rejects_bad_shapes(self):
        good = metrics.result(record(0), ok=True)
        for bad in (
            dict(good, extra=1),
            dict(good, attempted=0),
            dict(good, failed=1.5),
            dict(good, metrics={}),
            dict(good, metrics=dict(good["metrics"], setup_s={"value": float("nan"), "unit": "s"})),
            dict(good, metrics=dict(good["metrics"], setup_s={"value": 1.0, "unit": "ms"})),
        ):
            with self.assertRaises(ValueError):
                metrics.check_result(bad, trace=False)

    def test_benchmark_json_lists_the_same_metrics(self):
        path = os.path.join(HERE, os.pardir, "BENCHMARK.json")
        if not os.path.exists(path):
            self.skipTest("BENCHMARK.json is not beside this directory")
        with open(path) as f:
            spec = json.load(f)
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["end_to_end"]}, metrics.END_TO_END
        )
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["per_layer"]}, metrics.PER_LAYER
        )
        self.assertEqual(
            sorted(w["name"] for w in spec["workloads"]), sorted(metrics.TAIL_PERCENTILE)
        )


if __name__ == "__main__":
    unittest.main()
