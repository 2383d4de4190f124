#!/usr/bin/env python3
"""Steadiness self-check for the cpubench benchmark.

Runs two separate sets of runs of one build, alternating workloads, each run
with its own seed, and prints for every end-to-end metric of every workload
each set's median and quartiles, the spread within each set (quartile
distance over the median) and the drift between the two sets' medians.  The
drift between sets is what decides a bound: two sets of runs of the same code
must agree within it.

Run from the root of the repository:

    python3 cpubench/steady.py --runs 5 [--seed-base 100]

The command, run length, workloads and bounds come from BENCHMARK.json; every
workload it lists is run.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    steal = re.search(r"([0-9.]+) s steal", proc.stderr)
    result["wall_s"] = wall
    result["steal_s"] = float(steal.group(1)) if steal else float("nan")
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("nan")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=5, help="runs per workload in each set")
    ap.add_argument("--seed-base", type=int, default=100)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    # results[set][workload] -> list of run results
    results = [{w: [] for w in workloads} for _ in range(2)]
    for s in range(2):
        for r in range(args.runs):
            for w in workloads:
                seed = args.seed_base + s * args.runs + r
                res = run_once(bench["command"], w, seed, bench["run_seconds"])
                results[s][w].append(res)
                print(f"set {s + 1} run {r + 1} {w} seed {seed}: correct={res['correct']} "
                      f"failed={res['failed']}/{res['attempted']} wall={res['wall_s']:.1f}s "
                      f"steal={res['steal_s']:.2f}s", file=sys.stderr, flush=True)

    ok = True
    print("| workload | metric | bound | set 1 median [Q1, Q3] | set 2 median [Q1, Q3] "
          "| spread 1 | spread 2 | spread all | drift |")
    print("|---|---|---|---|---|---|---|---|---|")
    notes = []
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            sets = [[r["metrics"][name]["value"] for r in results[s][w]] for s in range(2)]
            q = [quartiles(v) for v in sets]
            drift = (q[1][1] - q[0][1]) / q[0][1] if q[0][1] else float("nan")
            all_spread = spread(sets[0] + sets[1])
            cells = [f"{q[s][1]:.6g} [{q[s][0]:.6g}, {q[s][2]:.6g}]" for s in range(2)]
            print(f"| {w} | {name} | {bound} | {cells[0]} | {cells[1]} | {spread(sets[0]):.2%} "
                  f"| {spread(sets[1]):.2%} | {all_spread:.2%} | {drift:+.2%} |")
            # The worse direction is up for "lower" metrics, down for "higher".
            worse = drift if m["better"] == "lower" else -drift
            if worse > bound or (name != "setup_s" and all_spread > bound):
                ok = False
        runs = results[0][w] + results[1][w]
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        correct = all(r["correct"] for r in runs)
        walls = [r["wall_s"] for r in runs]
        steals = [r["steal_s"] for r in runs]
        notes.append(f"- {w}: correct={correct}, failed share {shares}, "
                     f"wall median {statistics.median(walls):.1f} s (max {max(walls):.1f} s), "
                     f"steal median {statistics.median(steals):.2f} s")
        ok = ok and correct and len(shares) == 1
    print()
    print("\n".join(notes))

    print("steady" if ok else "NOT steady")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
