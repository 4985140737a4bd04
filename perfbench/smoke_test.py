#!/usr/bin/env python3
"""Smoke test of the serving + admission benchmark.

    python3 perfbench/smoke_test.py

Runs every workload in BENCHMARK.json for two seconds, untraced and traced,
and asserts that each run exits 0, reports correct with no failures, prints
exactly the metrics BENCHMARK.json lists for its mode, passes every
conservation self-check, and (traced) prints the latency breakdown.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check_run(bench, workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "2", "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    problems = []
    if proc.returncode != 0:
        problems.append(f"exit code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return problems + ["no JSON result line"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"correct={result.get('correct')} failed={result.get('failed')} "
                        f"attempted={result.get('attempted')}")
    expected = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if got != expected:
        problems.append(f"metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(expected) - set(got))}, "
                        f"extra {sorted(set(got) - set(expected))}, "
                        f"units {[k for k in got if k in expected and got[k] != expected[k]]}")
    selfchecks = [l for l in lines if l.startswith("selfcheck")]
    if not selfchecks:
        problems.append("no self-checks ran")
    problems += [l for l in selfchecks if "FAIL" in l]
    if trace and not any("unattributed remainder" in l for l in lines):
        problems.append("no breakdown printed")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = 0
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            problems = check_run(bench, workload, trace)
            status = "ok" if not problems else "FAIL"
            print(f"{status:4s} {workload} trace={trace}")
            for p in problems:
                print(f"     {p}")
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
