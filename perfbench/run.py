#!/usr/bin/env python3
"""Build the perfbench binary and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a checkout. The perfbench binary and the simulator
libraries are built from source into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench). The run is pinned: the simulator's environment
knobs are removed before the binary starts. An untraced run also
repeats set-up in separate processes and reports the median set-up
time. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
WORKLOADS = ("kvs_mix", "vm_churn", "net_vm2vm", "paged_object")
# Set-ups per untraced run; setup_s is their median.
SETUP_REPEATS = 5
# Seconds a run may take once the binary is built.
RUN_BUDGET_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def pinned_env():
    """The environment minus every knob that changes the simulation."""
    return {
        k: v
        for k, v in os.environ.items()
        if k not in ("ELISA_SIM_THREADS", "ELISA_BENCH_QUICK", "ELISA_TRACE")
        and not k.startswith("ELISA_COST_")
    }


def build(build_dir):
    """Configure (once) and build the binary; returns its path."""
    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found beside perfbench/")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", str(min(os.cpu_count() or 1, 4))])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(build_dir, "perfbench")


def drive(exe, args, env, deadline):
    """Run the binary once; returns its result object."""
    try:
        done = subprocess.run([exe] + args, env=env, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=max(1, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("perfbench ran past the time budget")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"perfbench failed (exit {done.returncode})")
    return json.loads(lines[-1])


def recorded_digests():
    """(workload, seed, seconds) -> digest, from digests.tsv."""
    table = {}
    with open(os.path.join(HERE, "digests.tsv")) as f:
        for line in f:
            fields = line.split()
            if len(fields) == 4 and not line.startswith("#"):
                table[(fields[0], int(fields[1]), int(fields[2]))] = fields[3]
    return table


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode."""
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds 1..600")

    build_dir = os.path.join(
        os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build"),
        "perfbench")
    exe = build(build_dir)
    deadline = time.monotonic() + RUN_BUDGET_S
    env = pinned_env()
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]

    setups = []
    if not args.trace:
        for _ in range(SETUP_REPEATS - 1):
            setups.append(
                drive(exe, common + ["--setup-only"], env, deadline)["setup_s"])
    extra = []
    if args.trace:
        extra = ["--spans-out", os.path.join(
            build_dir, f"spans-{args.workload}-{args.seed}.csv")]
    result = drive(exe, common + extra, env, deadline)
    metrics = result["metrics"]
    if not args.trace:
        setups.append(result["setup_s"])
        metrics["setup_s"]["value"] = statistics.median(setups)

    if set(metrics) != declared_metrics(args.trace):
        fail("perfbench metrics differ from those BENCHMARK.json declares")

    key = (args.workload, args.seed, args.seconds)
    want = recorded_digests().get(key)
    digest_ok = want is None or want == result["digest"]
    if want is None:
        verdict = "unrecorded"
    else:
        verdict = "match" if digest_ok else f"MISMATCH, recorded {want}"
    print(f"digest {result['digest']} ({verdict})")
    if not args.trace:
        print("set-ups: " + ", ".join(f"{s:.3f} s" for s in setups))
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": result["failed"] == 0 and digest_ok,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
