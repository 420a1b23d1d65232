#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints, per metric, the median
and the interquartile range as a share of the median -- the spread the
bounds in BENCHMARK.json are checked against.

    python3 perfbench/spread.py --workload hot_repeat --seeds 101-110 [--trace 0]
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    values = {}
    for seed in seeds(args.seeds):
        out = subprocess.run(
            ["bash", "perfbench/run.sh", "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True)
        last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
        if out.returncode != 0 or not last.startswith("{"):
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stdout[-2000:]}{out.stderr[-2000:]}")
        res = json.loads(last)
        if not res["correct"]:
            sys.exit(f"seed {seed}: incorrect\n{out.stdout[-2000:]}")
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())),
              flush=True)
    for name, vs in sorted(values.items()):
        med = statistics.median(vs)
        if len(vs) >= 2:
            q1, _, q3 = statistics.quantiles(vs, n=4)
        else:
            q1 = q3 = med
        share = (q3 - q1) / med if med else float("nan")
        print(f"{name:34s} median {med:14.4f}  iqr/median {share:7.4f}  n={len(vs)}")


if __name__ == "__main__":
    main()
