#!/usr/bin/env python3
"""A/A steadiness check for the pipebench benchmark.

Runs the benchmark command from BENCHMARK.json on the same commit as two
sets (A and B) of runs, one seed per run pair, alternating which set runs
first, and prints per workload and end-to-end metric each set's median and
quartiles, the spread (Q3 - Q1) / median, and the distance between the two
sets' medians as a share of A's median. Quartiles are
statistics.quantiles(values, n=4).

Run from the repository root:

    python3 pipebench/aa.py --runs 10            # two sets of ten runs
    python3 pipebench/aa.py --runs 5 --sets 1 --workloads service_zipf

The bounds in BENCHMARK.json are chosen from this output: each bound must
exceed the spread of every set and the distance between the medians.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(args, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed} failed ({out.returncode}):\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    ap.add_argument("--sets", type=int, choices=(1, 2), default=2)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", help="comma-separated subset of the workloads")
    opts = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    if opts.workloads:
        workloads = opts.workloads.split(",")
    metrics = bench["end_to_end"]
    sets = "AB"[: opts.sets]

    results = {w: {s: [] for s in sets} for w in workloads}
    for i in range(opts.runs):
        seed = opts.first_seed + i
        order = sets if i % 2 == 0 else sets[::-1]
        for w in workloads:
            for s in order:
                r = run_once(bench["command"], w, seed, seconds)
                results[w][s].append(r)
                vals = " ".join(f"{m['name']}={r['metrics'][m['name']]['value']:.6g}" for m in metrics)
                print(f"{w} set={s} seed={seed} attempted={r['attempted']} failed={r['failed']} {vals}",
                      flush=True)

    print()
    print(f"{'workload':14} {'metric':14} {'set':3} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6} {'A-B':>7}")
    ok = True
    for w in workloads:
        shares = {s: {r["failed"] / r["attempted"] for r in results[w][s]} for s in sets}
        if len(set().union(*shares.values())) != 1:
            ok = False
            print(f"{w}: failed share differs between runs: {shares}")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            med = {}
            for s in sets:
                vals = [r["metrics"][name]["value"] for r in results[w][s]]
                q1, q2, q3, spread = summary(vals)
                med[s] = q2
                diff = ""
                if s == "B":
                    worse = (q2 - med["A"]) / med["A"] if med["A"] else 0.0
                    diff = f"{worse:+.3f}"
                    ok &= worse <= bound
                ok &= spread <= bound
                print(f"{w:14} {name:14} {s:3} {q2:12.6g} {q1:12.6g} {q3:12.6g} "
                      f"{spread:7.3f} {bound:6.3f} {diff:>7}")
    print("\nwithin bounds" if ok else "\nOUT OF BOUNDS")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
