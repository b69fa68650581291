#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

Usage (from the repository root):

    python3 perfbench/spread.py --workload fig5_sim --seeds 1 2 3 4 5

Runs perfbench/run.py once per seed, for BENCHMARK.json's run_seconds,
and prints, for every metric, the
median and the interquartile range as a share of the median (the same
statistic BENCHMARK.json's bounds are set against), next to the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--log", help="directory for each run's stdout")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in args.seeds:
        out = subprocess.run(
            ["python3", os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(bench["run_seconds"]), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True)
        if out.returncode != 0:
            print(f"seed {seed}: exit {out.returncode}", file=sys.stderr)
            return 1
        if args.log:
            os.makedirs(args.log, exist_ok=True)
            with open(os.path.join(args.log, f"{args.workload}-{seed}.txt"),
                      "w") as f:
                f.write(out.stdout)
        result = json.loads(out.stdout.splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect output", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()),
            flush=True)
    print(f"{'metric':40s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = f"{(q3 - q1) / abs(med):8.4f}"
        else:
            spread = "     n/a"
        bound = bounds.get(name)
        print(f"{name:40s} {med:12.6g} {spread} "
              f"{bound if bound is not None else '':>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
