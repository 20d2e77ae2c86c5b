#!/usr/bin/env python3
"""Builds and runs the merlin benchmark.

    python3 perfbench/run.py --workload churn|provision|forward \
        --seed <n> --seconds <s> --trace 0|1
    python3 perfbench/run.py --test      # the benchmark's own self-tests

Run from the repository root. The benchmark binary is built from source (a
Release CMake build of perfbench/ and the merlin layers it links) into
.bench_build/ on first use. Human-readable "# name value unit" lines come
first; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics (the end-to-end metrics with
--trace 0, the per-layer ones with --trace 1). Traced runs also write their
spans to .bench_build/traces/<workload>-seed<n>.jsonl.
"""

import argparse
import fcntl
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
JOBS = 4


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def run_group(argv, timeout, **kwargs):
    """Runs argv in its own process group and waits for it; on timeout the
    whole group (e.g. make and its compilers) is killed. (code, stdout)."""
    with subprocess.Popen(argv, start_new_session=True, **kwargs) as child:
        try:
            out, _ = child.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            log("timed out after %d s: %s" % (timeout, " ".join(argv)))
            return None, ""
        return child.returncode, out


def build(targets):
    """Configures (once) and builds `targets`; returns False on failure."""
    for needed in ("CMakeLists.txt", os.path.join("src", "daemon", "daemon.h")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            log("merlin sources not found (%s missing under %s)" % (needed, ROOT))
            return False
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", str(JOBS),
                      "--target"] + targets)
        for step in steps:
            code, _ = run_group(step, BUILD_TIMEOUT_S, stdout=sys.stderr,
                                stderr=sys.stderr)
            if code != 0:
                log("build failed: " + " ".join(step))
                return False
    return True


def declared_metrics(trace):
    """(name, unit) pairs BENCHMARK.json declares for this kind of run, or
    None when it cannot be read."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def run_child(argv):
    """Runs a built binary (killed after RUN_TIMEOUT_S); (code, stdout)."""
    env = dict(os.environ)
    env.pop("MERLIN_THREADS", None)  # the benchmark pins every thread count
    code, out = run_group(argv, RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                          stderr=sys.stderr, env=env, text=True)
    return (1 if code is None else code), out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=["churn", "provision", "forward"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's self-tests")
    args = parser.parse_args()

    if args.test:
        if not build(["perfbench_tests"]):
            return 2
        code, out = run_child([os.path.join(BUILD, "perfbench_tests")])
        sys.stdout.write(out)
        return code
    if args.workload is None:
        parser.error("--workload is required")
    if not build(["merlin_perfbench"]):
        return 2

    argv = [os.path.join(BUILD, "merlin_perfbench"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        argv += ["--trace-out", os.path.join(
            traces, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    code, out = run_child(argv)
    lines = out.rstrip("\n").split("\n") if out else []
    if code != 0 or not lines:
        log("benchmark exited with code %d" % code)
        return code or 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("no JSON result on the last line")
        return 1

    # Exactly the declared metrics are reported; a per-layer metric of a
    # layer this workload never calls reads 0.
    measured = result["metrics"]
    declared = declared_metrics(args.trace)
    metrics = {} if declared is not None else measured
    for name, unit in declared or []:
        if name in measured:
            metrics[name] = measured[name]
        elif args.trace:
            metrics[name] = {"value": 0, "unit": unit}
        else:
            log("end-to-end metric %s missing" % name)
            return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
