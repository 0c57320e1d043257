#!/usr/bin/env python3
"""Steadiness check for the end-to-end benchmark.

    python3 perfbench/steadiness.py [--runs 10] [--seconds S]
                                    [--workloads hot_3t,cold_jump]
                                    [--seed-base 1000] [--json out.json]

Runs every workload --runs times through the command in BENCHMARK.json,
alternating workloads (one run of each in turn) and giving each run its
own seed. For every end-to-end metric it prints the median, the first and
third quartiles (statistics.quantiles, n=4), the spread (q3 - q1) / median
and, where BENCHMARK.json has one, the metric's bound and spread / bound.
Every run must report correct results; the share of failed operations is
printed per workload. Run it from the root of the repository.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(command, workload, seed, seconds):
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit("run failed: %s seed %d (exit %d)" %
                         (workload, seed, proc.returncode))
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seed-base", type=int, default=1000)
    ap.add_argument("--json", help="also write every run's result here")
    args = ap.parse_args()

    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    results = {w: [] for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            start = time.monotonic()
            r = run_once(bench["command"], w, args.seed_base + i, args.seconds)
            results[w].append(r)
            print("run %2d %-16s correct=%s attempted=%d failed=%d (%.1f s)" %
                  (i, w, r["correct"], r["attempted"], r["failed"],
                   time.monotonic() - start), flush=True)

    worst = 0.0
    for w in workloads:
        runs = results[w]
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print("\n== %s: %d runs, failed share %s, all correct: %s" %
              (w, len(runs), shares, all(r["correct"] for r in runs)))
        print("%-22s %14s %14s %14s %8s %7s %8s" %
              ("metric", "median", "q1", "q3", "spread", "bound",
               "spr/bnd"))
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            ratio = spread / bound if bound else float("nan")
            if bound and name != "setup_s":
                worst = max(worst, ratio)
            print("%-22s %14.4f %14.4f %14.4f %7.1f%% %7s %8.2f" %
                  (name, med, q1, q3, 100 * spread,
                   "%.2f" % bound if bound else "-", ratio))
    print("\nlargest spread / bound (setup_s excluded): %.2f" % worst)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(results, f, indent=1)


if __name__ == "__main__":
    main()
