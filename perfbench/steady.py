#!/usr/bin/env python3
"""Repeat each workload over several seeds and report how steady each
end-to-end metric is.

    python3 perfbench/steady.py --runs 10            # every workload
    python3 perfbench/steady.py --runs 5 --workloads tcp-pipeline
    python3 perfbench/steady.py --runs 10 --write    # store derived bounds

Run from the root of the checkout. For each workload and metric it
prints the median, the quartiles (statistics.quantiles, n=4) and the
spread: the distance between the quartiles as a share of the median.
A metric's derived bound is three times its widest spread over the
workloads, rounded up to 0.01 and kept within [0.20, 0.25]; setup_s
always gets the widest bound, 0.25. --write stores the derived bounds
in BENCHMARK.json. A metric whose spread exceeds a third of 0.25 is
reported as unsteady.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys

MAX_BOUND = 0.25
# The floor keeps a quiet set of runs from leaving a bound tighter than
# the host's day-to-day noise: earlier 5-seed sets on the same 2-CPU
# host spread up to 0.13 (p50 latency) where a 10-seed set read 0.04.
MIN_BOUND = 0.20


def run_once(cmd, workload, seed, seconds, trace):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--write", action="store_true",
                    help="store the derived bounds in BENCHMARK.json")
    a = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = a.workloads or [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    widest = {}
    unsteady = []
    for w in names:
        results = [run_once(bench["command"], w, a.first_seed + i, seconds, a.trace)
                   for i in range(a.runs)]
        bad = [r for r in results if not r["correct"]]
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"== {w}: {a.runs} runs, seeds {a.first_seed}..{a.first_seed + a.runs - 1}, "
              f"{len(bad)} incorrect, failed shares {sorted(shares)}")
        for m in sorted(results[0]["metrics"]):
            vals = [r["metrics"][m]["value"] for r in results]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else math.inf
            widest[m] = max(widest.get(m, 0.0), spread)
            print(f"  {m:40s} median {med:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}  spread {spread:7.4f}")
    print("== derived bounds")
    bounds = {}
    for m, s in sorted(widest.items()):
        b = 0.25 if m == "setup_s" else max(MIN_BOUND, math.ceil(3 * s * 100) / 100)
        if b > MAX_BOUND:
            unsteady.append(m)
        bounds[m] = min(b, MAX_BOUND)
        print(f"  {m:40s} widest spread {s:7.4f}  bound {bounds[m]:.2f}"
              + ("  UNSTEADY" if m in unsteady else ""))
    if a.write and a.trace == 0:
        for e in bench["end_to_end"]:
            if e["name"] in bounds:
                e["bound"] = bounds[e["name"]]
        with open("BENCHMARK.json", "w") as f:
            json.dump(bench, f, indent=2, ensure_ascii=False)
            f.write("\n")
    return 1 if unsteady else 0


if __name__ == "__main__":
    sys.exit(main())
