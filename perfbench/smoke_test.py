#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at AppParams::testScale().

For every workload run.py knows (those BENCHMARK.json lists and
lock-apps), untraced and traced, checks that run.py:
  - ends with the result object, correct, with no failed run;
  - emits exactly the metrics BENCHMARK.json names, each with its unit;
  - prints fail_frac = 0;
and that traced and untraced passes summarize to the same metric set.

    python3 perfbench/smoke_test.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import run  # noqa: E402


def check(workload, trace, spec):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--scale", "test"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    label = f"{workload} --trace {trace}"
    errors = []
    if proc.returncode != 0:
        return [f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        errors.append(f"{label}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}")
    if "metric fail_frac = 0 ratio" not in lines:
        errors.append(f"{label}: fail_frac is not 0")
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        errors.append(f"{label}: metrics/units differ from BENCHMARK.json: "
                      f"want {want}, got {got}")
    printed = {line.split()[1]: line.split()[-1] for line in lines
               if line.startswith("metric ")}
    unprinted = [n for n, unit in want.items() if printed.get(n) != unit]
    if unprinted:
        errors.append(f"{label}: not printed with its unit: {unprinted}")
    if trace:
        summaries = {}
        for line in lines:
            tag, _, body = line.partition(" ")
            if tag in ("e2e-untraced", "e2e-traced"):
                summaries[tag] = set(json.loads(body))
        if len(summaries) != 2 or len(set(map(frozenset,
                                               summaries.values()))) != 1:
            errors.append(f"{label}: traced and untraced passes emit "
                          f"different metric sets: {summaries}")
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    errors = []
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            errors += check(workload, trace, spec)
    for e in errors:
        print("FAIL", e)
    print("smoke test", "FAILED" if errors else "passed")
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
