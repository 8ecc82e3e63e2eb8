#!/usr/bin/env python3
"""Measures how steady the benchmark's end-to-end metrics are.

Runs each workload --runs times in each of --sets interleaved sets (set A
uses seeds 1..runs, set B seeds 101..100+runs, and so on; the runs
alternate A, B, A, B, ...), then prints, per workload, metric and set,
the median, the quartiles (statistics.quantiles(n=4)), the quartile
spread as a share of the median, and each later set's median shift
against set A. Every run's result is appended as one JSON line to
--log. Run from the repository root:

    python3 perfbench/steadiness.py --runs 10 --sets 2 --log steadiness.jsonl
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          check=True)
    return json.loads(done.stdout.splitlines()[-1])


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--log", default=None)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give quartiles")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    for workload in args.workloads:
        values = [{name: [] for name in bounds} for _ in range(args.sets)]
        for run in range(args.runs):
            for s in range(args.sets):
                seed = 100 * s + run + 1
                start = time.monotonic()
                result = run_once(workload, seed, args.seconds)
                wall_s = time.monotonic() - start
                if not result["correct"] or result["failed"]:
                    print(f"{workload} seed {seed}: incorrect result",
                          file=sys.stderr)
                for name in bounds:
                    values[s][name].append(result["metrics"][name]["value"])
                if args.log:
                    with open(args.log, "a") as log:
                        log.write(json.dumps({"workload": workload, "set": s,
                                              "seed": seed, "wall_s": wall_s,
                                              "result": result}) + "\n")
        print(f"\n{workload} ({args.runs} runs per set, "
              f"{args.seconds} s each)")
        print(f"  {'metric':28} {'set':>3} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'iqr/med':>8} {'shift':>7} {'bound':>6}")
        for name, bound in bounds.items():
            base = None
            for s in range(args.sets):
                median, q1, q3, spread = summarize(values[s][name])
                base = median if base is None else base
                shift = (median - base) / base
                print(f"  {name:28} {chr(65 + s):>3} {median:12.4f} "
                      f"{q1:12.4f} {q3:12.4f} {spread:8.3f} {shift:+7.3f} "
                      f"{bound:6.2f}")


if __name__ == "__main__":
    main()
