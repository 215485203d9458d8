#!/usr/bin/env python3
"""Steadiness report: run each workload N times with different seeds.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--workloads a,b]

Run from the root of a checkout. Reads BENCHMARK.json for the command,
workloads, run length and bounds, runs the benchmark once per seed and
prints, per workload and metric: the median, the quartiles (as
statistics.quantiles(values, n=4) gives them), the quartile spread as a
share of the median, and the max/min spread. An end-to-end metric whose
quartile spread exceeds a tenth is flagged UNSTEADY, and so is one whose
spread is not below a third of its bound (setup_s excepted). Exits non-zero
when any run fails or comes out incorrect.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    ok = True
    for wl in names:
        values = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{wl} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                ok = False
                continue
            res = json.loads(lines[-1])
            if not res["correct"]:
                print(f"{wl} seed {seed}: incorrect ({res['failed']} of {res['attempted']} ops failed)")
                ok = False
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"\n== {wl}: {args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1}")
        print(f"{'metric':40s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'iqr/med':>8s} {'max/min':>8s}")
        for name, vs in values.items():
            if len(vs) < 2:
                continue
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            iqr = (q3 - q1) / med if med else float("nan")
            mm = max(vs) / min(vs) if min(vs) > 0 else float("nan")
            flag = ""
            if name in bounds:
                if iqr > 0.1:
                    flag = " UNSTEADY (spread above a tenth)"
                elif name != "setup_s" and bounds[name] is not None and iqr >= bounds[name] / 3:
                    flag = f" UNSTEADY (spread not below a third of bound {bounds[name]})"
            print(f"{name:40s} {med:14.6g} {q1:14.6g} {q3:14.6g} {iqr:8.4f} {mm:8.3f}{flag}")
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
