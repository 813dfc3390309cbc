#!/usr/bin/env python3
"""Steadiness check for calbench: the evidence behind each bound.

Runs every workload (or those named) in two alternating sets of runs, each
run with its own seed, and prints for each end-to-end metric the median and
quartiles of each set, the spread (quartile distance over median) and the
difference of the two medians, and whether both stay within the metric's
bound in BENCHMARK.json. Run from the root of the checkout:

    python3 calbench/steady.py                 # 5 runs a set, every workload
    python3 calbench/steady.py --runs 10 --workload cron-durable

setup_s is held only to the median test: its spread is not bounded.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(args, capture_output=True, text=True, timeout=900)
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def quartiles(vals):
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return q1, statistics.median(vals), q3


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=5, help="runs in each set")
    ap.add_argument("--workload", action="append", help="workload to run (repeatable)")
    ap.add_argument("--seed", type=int, default=1000, help="first seed")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = args.workload or [w["name"] for w in bench["workloads"]]
    ok = True
    for w in names:
        sets = ([], [])
        seed = args.seed
        for i in range(2 * args.runs):
            res = run_once(bench["command"], w, seed, bench["run_seconds"])
            seed += 1
            sets[i % 2].append(res)
            print(f"{w} run {i + 1}/{2 * args.runs} seed {seed - 1}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}", flush=True)
        shares = [sum(r["failed"] for r in s) / max(1, sum(r["attempted"] for r in s)) for s in sets]
        if any(not r["correct"] for s in sets for r in s) or shares[0] != shares[1]:
            ok = False
            print(f"{w}: FAIL incorrect runs or failed shares differ: {shares}")
        print(f"{w}: {'metric':<14} {'set':>3} {'q1':>12} {'median':>12} {'q3':>12} {'spread':>8} {'diff':>8} {'bound':>6} verdict")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            stats = [quartiles([r["metrics"][name]["value"] for r in s]) for s in sets]
            spreads = [(q3 - q1) / med for q1, med, q3 in stats]
            worse = stats[1][1] / stats[0][1] - 1
            if m["better"] == "higher":
                worse = -worse
            good = worse <= bound and (name == "setup_s" or max(spreads) <= bound)
            ok = ok and good
            q1, med, q3 = quartiles([r["metrics"][name]["value"] for s in sets for r in s])
            for k in range(2):
                s1, smed, s3 = stats[k]
                tail = f"{worse:8.3f} {bound:6.2f} {'ok' if good else 'FAIL'}" if k == 1 else ""
                print(f"{w}: {name:<14} {'AB'[k]:>3} {s1:12.5g} {smed:12.5g} {s3:12.5g} {spreads[k]:8.3f} {tail}")
            print(f"{w}: {name:<14} {'all':>3} {q1:12.5g} {med:12.5g} {q3:12.5g} {(q3 - q1) / med:8.3f}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
