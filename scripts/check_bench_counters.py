#!/usr/bin/env python3
"""Deterministic-counter gate for traced perfbench runs (CI: fails on drift).

    python3 scripts/check_bench_counters.py scripts/bench_counters_seed1.json \\
        cg-tasks=<traced output> bqp-dag=<traced output> \\
        nested-for=<traced output>

Each <traced output> is the stdout of
`python3 perfbench/run.py --workload <w> --seed 1 --seconds <s> --trace 1`;
its last line is the result object. The reference names, per workload,
per-operation counters that depend on neither thread count, run length
nor timing: omp.tasks, cg.iters and glt.ults_created on cg-tasks,
taskdep.deps_registered, bqp.ipm_iters and glt.ults_created on bqp-dag,
glt.ults_created and sync.timed_waits on nested-for (glt.ults_created
is the ULT engine's creation counter). Any difference from the
reference fails, so
a change that alters how much work an operation creates must say so by
updating the reference in the same commit.
"""

import json
import math
import sys


def result_metrics(path):
    with open(path) as f:
        lines = f.read().rstrip("\n").splitlines()
    if not lines:
        sys.exit(f"{path}: empty output")
    result = json.loads(lines[-1])
    if not result.get("correct"):
        sys.exit(f"{path}: result is not correct")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main(args):
    if len(args) < 2 or any("=" not in a for a in args[1:]):
        sys.exit(__doc__)
    ref_path = args[0]
    with open(ref_path) as f:
        ref = json.load(f)
    outputs = dict(a.split("=", 1) for a in args[1:])
    missing = sorted(set(ref["counters"]) - set(outputs))
    if missing:
        sys.exit(f"no traced output given for: {', '.join(missing)}")

    drift = []
    for workload, counters in ref["counters"].items():
        got = result_metrics(outputs[workload])
        for name, want in counters.items():
            if name not in got:
                drift.append(f"{workload} {name}: missing from the result")
                continue
            if not math.isclose(got[name], want, rel_tol=1e-9):
                drift.append(f"{workload} {name}: {got[name]} (reference {want})")
            print(f"{workload:10} {name:26} {got[name]}")

    if drift:
        print("counter drift against " + ref_path + ":", file=sys.stderr)
        for d in drift:
            print("  " + d, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
