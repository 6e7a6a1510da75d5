#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs the benchmark command of BENCHMARK.json once per seed on every
workload (or those named with --workload), going round the workloads seed
by seed so that a slow stretch of a shared machine does not fall on one
workload's runs alone, and prints, for each end-to-end
metric, the median and the distance between the first and third quartile
as a share of the median (statistics.quantiles(values, n=4)), next to the
metric's bound. Run it from the repository root:

    python3 perfbench/steadiness.py --runs 10
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    values = {w: {name: [] for name in bounds} for w in workloads}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for w in workloads:
            cmd = spec["command"] + ["--workload", w, "--seed", str(seed),
                                     "--seconds", str(args.seconds), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if out.returncode != 0 or not result["correct"]:
                print(f"{w} seed {seed}: run failed", file=sys.stderr)
                ok = False
            for name in bounds:
                values[w][name].append(result["metrics"][name]["value"])
            print(f"{w} seed {seed}: " + ", ".join(
                f"{n} {v[-1]:.6g}" for n, v in values[w].items()), flush=True)
    for w in workloads:
        for name, v in values[w].items():
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med
            verdict = "steady" if spread < bounds[name] / 3 else (
                "within bound" if spread <= bounds[name] else "TOO WIDE")
            if spread > bounds[name]:
                ok = False
            print(f"  {w} {name}: median {med:.6g}, spread {spread:.3f} "
                  f"(bound {bounds[name]}) {verdict}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
