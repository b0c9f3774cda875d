#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/test_perfbench.py        (from the repository root)

Runs every workload briefly through perfbench/run.py and checks that
 - each run is correct and prints exactly the metrics BENCHMARK.json
   names, end_to_end with --trace 0 and per_layer with --trace 1;
 - the deterministic counts repeat exactly across two traced runs of one
   seed: cg.iters, bqp.ipm_iters, omp.tasks, taskdep.deps_registered,
   glt.ults_created per sweep and the QP service's offered requests;
 - the counts that define a workload have their expected values, and a
   workload that bypasses a layer reads zero there (no dependences on
   cg-tasks, no tasks on nested-for or the QP service);
 - the traced run wrote its spans.
"""

import json
import os
import subprocess
import sys
import unittest

SECONDS = "2"
SEED = "11"


def run(workload, trace, seed=SEED):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", seed, "--seconds", SECONDS, "--trace", str(trace)],
        capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise AssertionError(
            f"{workload} trace={trace} exited {out.returncode}:\n"
            f"{out.stdout}\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return result, {k: v["value"] for k, v in result["metrics"].items()}


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open("BENCHMARK.json") as f:
            cls.spec = json.load(f)
        cls.traced = {}
        for w in (x["name"] for x in cls.spec["workloads"]):
            cls.traced[w] = (run(w, 1), run(w, 1))

    def test_end_to_end_metrics_printed(self):
        names = [m["name"] for m in self.spec["end_to_end"]]
        for w in self.traced:
            result, values = run(w, 0)
            self.assertTrue(result["correct"], w)
            if w != "qpserver-open":  # the service may shed under host stalls
                self.assertEqual(result["failed"], 0, w)
            self.assertEqual(sorted(values), sorted(names), w)
            for name in names:
                self.assertGreater(values[name], 0, f"{w} {name}")

    def test_per_layer_metrics_printed(self):
        names = sorted(m["name"] for m in self.spec["per_layer"])
        for w, ((first, values), _) in self.traced.items():
            self.assertTrue(first["correct"], w)
            self.assertEqual(sorted(values), names, w)
            for probe in ("fctx.switch_ns", "glt.ult_create_join_ns",
                          "omp.task_wave_us", "taskdep.edge_ns",
                          "sync.channel_rtt_ns", "sync.barrier_ns",
                          "bqp.service_us", "cg.spmv_seq_us"):
                self.assertGreater(values[probe], 0, f"{w} {probe}")
            self.assertGreater(values["trace.overhead_ratio"], 0, w)

    def test_deterministic_counts_repeat(self):
        counts = {
            "cg-tasks": ("cg.iters", "omp.tasks"),
            "bqp-dag": ("bqp.ipm_iters", "omp.tasks",
                        "taskdep.deps_registered"),
            "nested-for": ("glt.ults_created",),
        }
        for w, names in counts.items():
            (_, a), (_, b) = self.traced[w]
            for name in names:
                self.assertGreater(a[name], 0, f"{w} {name}")
                self.assertEqual(a[name], b[name], f"{w} {name}")
        # Every offered request ends in exactly one bucket, so the sum is
        # the offered count whatever the service shed.
        offered = [sum(v[f"qos.{k}.{phase}"]
                       for k in ("completed", "shed", "deadline_missed"))
                   for (_, v) in self.traced["qpserver-open"]
                   for phase in ("steady", "overload")]
        self.assertGreater(min(offered), 0)
        self.assertEqual(offered[:2], offered[2:])

    def test_workload_shapes(self):
        cg = self.traced["cg-tasks"][0][1]
        self.assertEqual(cg["cg.iters"], 37)
        # 1,488 tasks per operation: the initial dot, 37 iterations of
        # (spmv, dot, axpy, dot) and 36 direction updates.
        self.assertEqual(cg["omp.tasks"], (1 + 37 * 4 + 36) * 1488)
        self.assertEqual(cg["taskdep.deps_registered"], 0)
        nested = self.traced["nested-for"][0][1]
        threads = min(4, os.cpu_count() or 1)
        self.assertEqual(nested["glt.ults_created"], 1001 * (threads - 1))
        self.assertEqual(nested["omp.tasks"], 0)
        qp = self.traced["qpserver-open"][0][1]
        self.assertEqual(qp["omp.tasks"], 0)
        self.assertEqual(qp["taskdep.deps_registered"], 0)

    def test_spans_written(self):
        for w in self.traced:
            path = os.path.join(".bench_build", "spans",
                                f"{w}-seed{SEED}.jsonl")
            with open(path) as f:
                spans = [json.loads(line) for line in f]
            names = {s["name"] for s in spans}
            self.assertIn(w, names)
            self.assertIn("probes", names)
            self.assertTrue(all(s["end_ns"] >= s["start_ns"] for s in spans))
            self.assertTrue(all(s["workload"] == w for s in spans))


if __name__ == "__main__":
    unittest.main()
