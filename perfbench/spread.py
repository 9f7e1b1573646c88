#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

For every workload given, runs `BENCHMARK.json`'s command once per seed and
prints, per metric, the median and the quartile spread (Q3 - Q1, from
`statistics.quantiles(values, n=4)`) as a share of the median, next to the
metric's bound. Run from the repository root:

    python3 perfbench/spread.py --workloads hot_reads --seeds 1 2 3 4 5
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    command = bench["command"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload in args.workloads:
        values = {}
        shares = set()
        for seed in args.seeds:
            cmd = command + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: an oracle failed")
            shares.add(result["failed"] / result["attempted"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()), flush=True)
        print(f"{workload}: failed share(s) {sorted(shares)}")
        for name, vs in values.items():
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
            spread = (q[2] - q[0]) / med if med else 0.0
            bound = bounds.get(name)
            flag = "" if bound is None or spread < bound / 3 else "  <-- above a third of its bound"
            print(f"  {name:<36} median {med:>12.4f}  spread {spread:6.3f}"
                  + (f"  bound {bound}" if bound is not None else "") + flag)


if __name__ == "__main__":
    main()
