#!/usr/bin/env python3
"""Repository benchmark entry point: build, run one workload, check, report.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds the
glto library and the perfbench binary from source into .bench_build/
(Release); later calls only re-check the build. The binary's report lines
are echoed, and the last line of stdout is the validated result object
{"correct", "attempted", "failed", "metrics"} whose metric names and
units match BENCHMARK.json (end_to_end for --trace 0, per_layer for
--trace 1). Traced runs also write their spans to
.bench_build/spans/<workload>-seed<n>.jsonl. Exits non-zero, without a
result line, when the sources are missing, the build fails, the binary
crashes or times out, or the result does not match BENCHMARK.json; exits
1 after printing the result when an output was wrong.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

WORKLOADS = ("cg-tasks", "bqp-dag", "nested-for", "qpserver-open")
BUILD_DIR = ".bench_build"
# Runtime knobs the binary must not inherit: the benchmark fixes its own
# backend, thread count and metrics arming.
SCRUBBED_PREFIXES = ("GLT_", "GLTO_", "ABT_", "QTH_", "MTH_", "OMP_")
RUN_LIMIT_S = 170  # a run must end within 180 s
BUILD_LIMIT_S = 880  # the first run (which builds) within 900 s


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def run_group(cmd, timeout, **kw):
    """Runs cmd in its own process group; on timeout kills the whole group
    (compilers under cmake included) and waits for it."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"timed out: {' '.join(cmd)}")
    return proc.returncode, out


def build(deadline):
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        fail("run from the repository root (glto sources not found)")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        code, _ = run_group(cmd, deadline - time.monotonic(),
                            stdout=sys.stderr)
        if code != 0:
            fail(f"build step failed ({code}): {' '.join(cmd)}")
    return os.path.join(BUILD_DIR, "perfbench")


def expected_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def validate(result, expected):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys"
    if not isinstance(result["correct"], bool):
        return "correct is not a bool"
    for k in ("attempted", "failed"):
        if not isinstance(result[k], int) or isinstance(result[k], bool):
            return f"{k} is not an integer"
    if result["attempted"] < 1 or not 0 <= result["failed"] <= result["attempted"]:
        return "attempted/failed out of range"
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != expected:
        return f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(expected))}"
    for k, v in result["metrics"].items():
        if not isinstance(v.get("value"), (int, float)) or isinstance(v["value"], bool):
            return f"{k} has no numeric value"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    t0 = time.monotonic()
    first = not os.path.isfile(os.path.join(BUILD_DIR, "perfbench"))
    binary = build(t0 + (BUILD_LIMIT_S if first else RUN_LIMIT_S))
    expected = expected_metrics(args.trace)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        span_dir = os.path.join(BUILD_DIR, "spans")
        os.makedirs(span_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(
            span_dir, f"{args.workload}-seed{args.seed}.jsonl")]
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(SCRUBBED_PREFIXES)}
    limit = (BUILD_LIMIT_S if first else RUN_LIMIT_S) - (time.monotonic() - t0)
    code, out = run_group(cmd, limit, stdout=subprocess.PIPE, text=True,
                          env=env)
    lines = out.rstrip("\n").splitlines()
    if code not in (0, 1) or not lines:
        sys.stderr.write(out)
        fail(f"perfbench exited with {code}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("perfbench printed no result line")
    problem = validate(result, expected)
    if problem:
        fail(f"invalid result: {problem}")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)
    sys.exit(0 if result["correct"] and code == 0 else 1)


if __name__ == "__main__":
    main()
