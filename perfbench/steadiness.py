#!/usr/bin/env python3
"""Run perfbench/run.py over several seeds and report each end-to-end
metric's median, quartiles and spread (interquartile range over median).

    python3 perfbench/steadiness.py --workload kvs_mix [--workload ...]
        [--seeds 1-10] [--seconds 10] [--trace 0|1]

Run from the root of a checkout. Prints one table per workload and the
(workload, seed, seconds, digest) lines digests.tsv takes.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    digest = next(l.split()[1] for l in lines if l.startswith("digest "))
    return digest, json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()

    digests = []
    for workload in args.workload:
        values = {}
        for seed in args.seeds:
            digest, result = run_once(workload, seed, args.seconds, args.trace)
            digests.append(f"{workload} {seed} {args.seconds} {digest}")
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: NOT CORRECT", file=sys.stderr)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()
                if args.trace == 0 or n == "traced.ops_per_s"),
                file=sys.stderr, flush=True)
        print(f"\n{workload} ({len(args.seeds)} runs, seeds "
              f"{args.seeds[0]}-{args.seeds[-1]}, {args.seconds} s)")
        print(f"  {'metric':24s} {'q1':>14s} {'median':>14s} {'q3':>14s}"
              f" {'spread':>8s}")
        for name, vals in values.items():
            if args.trace and name != "traced.ops_per_s":
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {name:24s} {q1:14.6g} {med:14.6g} {q3:14.6g}"
                  f" {spread:8.2%}")
    print()
    print("\n".join(digests))


if __name__ == "__main__":
    main()
