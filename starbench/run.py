#!/usr/bin/env python3
"""Repository benchmark: build the benchmark from source, run one workload.

    python3 starbench/run.py --workload cola_closed --seed 1 --seconds 20 --trace 0
    python3 starbench/run.py --selftest

The star library and the benchmark binary are built (Release) from the enclosing
source tree into .bench_build/starbench at the repository root. The
workload's fixed constants come from starbench/workloads.json. The binary's
last stdout line is the run's JSON result; this script checks that it
carries exactly the metrics BENCHMARK.json names (end_to_end without
tracing, per_layer with --trace 1) and prints it as its own last line.
A traced run writes a Chrome trace to .bench_build/starbench/traces/.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "starbench")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"starbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail(f"no star source tree at {ROOT}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "starbench", "starbench_selftest"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=False)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")


def run(cmd):
    """Run cmd, echo its stdout, return (exit code, last stdout line)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"timed out after {RUN_TIMEOUT_S} s: {' '.join(cmd)}")
    lines = out.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    return proc.returncode, lines[-1] if lines else ""


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int,
                    help="measured seconds (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the self-test of the benchmark's helpers")
    args = ap.parse_args()

    build()
    if args.selftest:
        code = subprocess.run([os.path.join(BUILD, "starbench_selftest")]).returncode
        sys.exit(code)

    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)["workloads"]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r} (have {', '.join(workloads)})")
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    cmd = [os.path.join(BUILD, "starbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-path",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    for key, value in workloads[args.workload]["flags"].items():
        cmd += [f"--{key}", str(value)]

    code, last = run(cmd)
    try:
        result = json.loads(last)
    except json.JSONDecodeError:
        fail(f"benchmark exited {code} without a result line")

    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if args.trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != wanted:
        fail(f"metrics differ from BENCHMARK.json: missing {sorted(set(wanted) - set(got))}, "
             f"extra {sorted(set(got) - set(wanted))}, units "
             f"{sorted(k for k in got if k in wanted and got[k] != wanted[k])}")
    print(json.dumps(result))
    sys.exit(code)


if __name__ == "__main__":
    main()
