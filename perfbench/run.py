#!/usr/bin/env python3
"""Build and run the serving + admission benchmark.

    python3 perfbench/run.py --workload warm_one_tenant --seed 1 --seconds 30 --trace 0

Builds perfbench/ (which compiles the library from src/) into
.bench_build/perfbench and runs one workload. The last line of stdout is the
JSON result. The exit code is non-zero when an output or verdict was wrong
or a self-check failed. A failed build, or a round that printed no result,
exits non-zero without printing a result.

Untraced (--trace 0), the run is split into rounds of equal length, each in
a fresh process with its own seed derived from --seed: its own inputs, heap
and threads. Each metric is the interquartile mean of the rounds' values (the
mean of the middle half). On the shared 4-vCPU development VM a process's
figures fell into a fast or a slow mode for seconds at a time (a set-up
registration took 0.27 or 0.38 ms), and its heap grew by 22 MB in some
processes and not in others. One process per run let a run's figures jump
with these modes; the interquartile mean over rounds follows their mix and
is not set by one odd round. The traced run (--trace 1) is one process.
"""
import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "servebench")
# Rounds per untraced run. admit_stream gets fewer, longer rounds so each
# round's registration p95 rests on enough registrations.
ROUNDS = {"warm_one_tenant": 10, "churn_tenants": 10, "admit_stream": 5}
DEADLINE_S = 170


def build():
    """Configures once, then lets the build tool decide what is stale."""
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "servebench", "-j", "4"],
                   stdout=sys.stderr, check=True)


def interquartile_mean(values):
    """Mean of the middle half: the lowest and highest quarter dropped."""
    values = sorted(values)
    k = len(values) // 4
    middle = values[k:len(values) - k]
    return sum(middle) / len(middle)


def run_program(args, seed, seconds, deadline):
    """Runs servebench once; returns (exit code, stdout lines, result or None)."""
    cmd = [BINARY, "--workload", args.workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(BUILD, f"spans-{args.workload}.csv")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return proc.returncode, lines, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            code, lines, result = run_program(args, args.seed, args.seconds, deadline)
            if result is None:
                print("the program printed no result", file=sys.stderr)
                return 3
            print("\n".join(lines))
            return code
        rounds = ROUNDS[args.workload]
        results, codes, tails = [], [], {}
        for r in range(rounds):
            seed = (args.seed * 1000003 + r) % (1 << 63)
            code, lines, result = run_program(args, seed, args.seconds / rounds, deadline)
            if result is None:
                print("\n".join(lines))
                print(f"round {r} printed no result", file=sys.stderr)
                return 3
            print(f"--- round {r} (seed {seed}) ---")
            print("\n".join(lines[:-1]))
            for line in lines:
                if line.startswith("metric ") and line.endswith("(not gated)"):
                    name, value = line.split()[1], float(line.split()[3])
                    tails.setdefault(name, []).append(value)
            results.append(result)
            codes.append(code)
    except subprocess.TimeoutExpired:
        print("benchmark timed out", file=sys.stderr)
        return 3
    print(f"--- {rounds} rounds: interquartile mean of the rounds' values ---")
    for name, values in tails.items():
        print(f"metric {name} = {interquartile_mean(values):.6g} us (not gated)")
    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [res["metrics"][name]["value"] for res in results]
        metrics[name] = {"value": interquartile_mean(values), "unit": first["unit"]}
        print(f"metric {name} = {metrics[name]['value']:.6g} {first['unit']} "
              f"(rounds: {' '.join(f'{v:.4g}' for v in values)})")
    attempted = sum(res["attempted"] for res in results)
    failed = sum(res["failed"] for res in results)
    print(f"metric fail_ratio = {failed / attempted if attempted else 0:.6g} ratio "
          f"({failed} of {attempted})")
    correct = all(res["correct"] for res in results) and not any(codes)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
