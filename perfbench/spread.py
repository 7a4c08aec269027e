#!/usr/bin/env python3
"""Runs the benchmark once per seed and reports each metric's median,
quartiles and spread (interquartile distance over median), the figures
a change is judged by.

    python3 perfbench/spread.py --workload hard-families --seeds 1-10
    python3 perfbench/spread.py --workload all --seeds 1-10 --trace 1

Run from the repository root. Reads the command and run length from
BENCHMARK.json; `--seconds` overrides the run length.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    bench = json.load(open("BENCHMARK.json"))
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", help=f"one of {names} or all")
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"), help="range such as 1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    ok = True
    for workload in names if args.workload == "all" else [args.workload]:
        values = {}
        for seed in args.seeds:
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(args.seconds), "--trace", args.trace]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            ok &= result["correct"]
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", file=sys.stderr)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{workload} over seeds {args.seeds[0]}-{args.seeds[-1]}:")
        for name, v in sorted(values.items()):
            q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = "" if bound is None else f"  bound {bound}" + ("  OVER" if spread > bound else "")
            print(f"  {name:28} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:.4f}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
