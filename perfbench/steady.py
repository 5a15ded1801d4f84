#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread.

Runs the command of BENCHMARK.json once per seed on each workload, then
prints, for every end-to-end metric, the median of the runs and the
distance between their first and third quartile (Python's
statistics.quantiles, n=4) as a share of the median, next to the
metric's bound. Timing figures are speed-adjusted (see README.md); the
spread of the figures as measured is printed beside them. Run from the
repository root:

    python3 perfbench/steady.py --seeds 101-110 [--workloads hot-hit] [--out spread.json]
"""

import argparse
import json
import statistics
import subprocess
import sys


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(bench, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True).stdout.decode()
    lines = out.strip().splitlines()
    res = json.loads(lines[-1])
    if not res["correct"] or res["failed"]:
        raise SystemExit(f"{workload} seed {seed}: {res['failed']} of {res['attempted']} ops failed")
    raw = json.loads(lines[-2])["run"]["raw"]
    return {k: v["value"] for k, v in res["metrics"].items()}, raw


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=seed_list, required=True, help="first-last, e.g. 101-110")
    ap.add_argument("--workloads", nargs="*", help="default: every workload of BENCHMARK.json")
    ap.add_argument("--out", help="also write the raw values and spreads as JSON here")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]

    report = {}
    for w in workloads:
        runs = [run_once(bench, w, s) for s in args.seeds]
        report[w] = {}
        print(f"{w} ({len(runs)} runs, seeds {args.seeds[0]}-{args.seeds[-1]})")
        for name, bound in bounds.items():
            values = [r[name] for r, _ in runs]
            med, sp = spread(values)
            row = {"values": values, "median": med, "spread": sp, "bound": bound}
            flag = "" if sp < bound / 3 else ("  over bound/3" if sp <= bound else "  OVER BOUND")
            line = f"  {name:16s} median {med:12.5g}  spread {sp:7.4f}  bound {bound:5.3f}{flag}"
            if name in runs[0][1]:
                row["raw_values"] = [raw[name] for _, raw in runs]
                row["raw_median"], row["raw_spread"] = spread(row["raw_values"])
                line += f"  (as measured: median {row['raw_median']:.5g}, spread {row['raw_spread']:.4f})"
            report[w][name] = row
            print(line)
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)


if __name__ == "__main__":
    main()
