#!/usr/bin/env python3
"""End-to-end benchmark of libimpatience and replicationd (see README.md).

Usage (from the repository root):

    python3 perfbench/run.py --workload stream_200n --seed 1 --seconds 10 --trace 0

Builds perfbench and replicationd in Release mode under .bench_build/,
runs one workload and prints its metrics; the last stdout line is the
JSON result. Each run is also appended to .bench_build/results.jsonl
together with its run context (nproc, build type, compiler); a traced
run leaves its spans in .bench_build/spans-<workload>-s<seed>.jsonl.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("stream_200n", "stream_100kn_snap", "fig5_sim", "fig4_mf")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170
CONTEXT_PREFIX = "# context: "


def log(*parts):
    print("run.py:", *parts, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the Release tree; False on failure."""
    jobs = str(os.cpu_count() or 1)
    for attempt in range(2):
        ok = True
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            ok = subprocess.run(
                ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                stdout=sys.stderr, stderr=sys.stderr).returncode == 0
        if ok:
            ok = subprocess.run(
                ["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench"],
                stdout=sys.stderr, stderr=sys.stderr).returncode == 0
        if ok:
            return True
        if attempt == 0:
            log("build failed; retrying from a clean build tree")
            shutil.rmtree(BUILD, ignore_errors=True)
    return False


def cache_value(key):
    with open(os.path.join(BUILD, "CMakeCache.txt")) as cache:
        for line in cache:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return ""


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return None
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("repository sources not found next to perfbench/")
        return 2
    if not build():
        log("build failed")
        return 1
    build_type = cache_value("CMAKE_BUILD_TYPE")
    if build_type != "Release":
        log(f"refusing to measure a '{build_type}' build tree")
        return 3

    work = os.path.join(ROOT, ".bench_build", "work",
                        f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", work]
    started = time.monotonic()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)

    def stop(signum, _frame):
        # The daemon and harness children share the benchmark's group.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log(f"timed out after {RUN_TIMEOUT_S} s")
        return 1
    finally:
        # The daemon and harness children share the process group.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.splitlines()
    result = valid_result(lines[-1]) if lines else None
    if proc.returncode != 0 or result is None:
        sys.stdout.write(out)
        log(f"perfbench exited with {proc.returncode} and no result")
        return 1

    context = {}
    for line in lines:
        if line.startswith(CONTEXT_PREFIX):
            context = json.loads(line[len(CONTEXT_PREFIX):])
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "elapsed_s": time.monotonic() - started, "context": context,
              "result": result}
    with open(os.path.join(ROOT, ".bench_build", "results.jsonl"), "a") as f:
        f.write(json.dumps(record) + "\n")
    spans = os.path.join(work, "spans.jsonl")
    if os.path.isfile(spans):
        shutil.copy(spans, os.path.join(
            ROOT, ".bench_build", f"spans-{args.workload}-s{args.seed}.jsonl"))
    shutil.rmtree(work, ignore_errors=True)

    print(out, end="", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
