#!/usr/bin/env python3
"""Declarative parameter-sweep driver.

A sweep spec is a JSON file describing a command, a parameter grid,
and derived parameters; the driver expands the grid to an environment
matrix, runs the command once per point, and records machine-readable
results. This replaces ad-hoc nested bash loops in CI: the nightly
stress legs, the transport grids, and local bisection runs all share
one runner, and a red run leaves behind the exact env block that
reproduces it.

Spec format (all fields except "name" and "command" optional):

    {
      "name": "chaos-mig",
      "command": ["./build/test_property", "--gtest_filter=*Chaos*"],
      "env":    {"DSM_THREADS": "4"},
      "grid":   {"DSM_HOME_MIG": [4, 5, 6], "iter": [1, 2, 3]},
      "derive": {"DSM_CHAOS_SEED": "day * 100 + DSM_HOME_MIG * 1000 + iter",
                 "DSM_BLOCKING_DEQ": "iter % 2"},
      "timeout_seconds": 600
    }

Semantics:
  - "grid" axes are crossed (cartesian product), in declaration order.
  - "command" arguments may reference parameters as "{name}" (Python
    format fields), so an axis can select the binary itself:
        "command": ["./build/{bin}"],
        "grid":    {"bin": ["bench_micro_diff", "bench_micro_net"]}
  - "derive" entries are arithmetic expressions evaluated per point;
    they may reference any grid axis, earlier derived values, and
    "day" (days since the epoch, overridable with --day so a failing
    nightly is reproducible on any later date).
  - UPPERCASE parameter names are exported into the run's environment
    (grid and derived alike); lowercase names (e.g. "iter") only
    shape the grid and the run label.
  - A failing point keeps its log and appends one line to
    failing-seeds.txt of the form
        FAILED: VAR=value ... <command>
    which pastes straight back into a shell. Passing points have
    their logs deleted unless --keep-logs.

Every run of the driver writes <output-dir>/results-<name>.json with
per-point status, exit code, and wall time, so downstream tooling
(bench trend dashboards, flake triage) consumes one format.

Exit status: 1 when any point failed, else 0.
"""

import argparse
import itertools
import json
import os
import subprocess
import sys
import time


def fail(msg):
    print(f"sweep.py: {msg}", file=sys.stderr)
    return 1


def load_spec(path):
    with open(path) as f:
        spec = json.load(f)
    for field in ("name", "command"):
        if field not in spec:
            raise ValueError(f"{path}: spec is missing '{field}'")
    if not isinstance(spec["command"], list):
        raise ValueError(f"{path}: 'command' must be an argv list")
    return spec


def evaluate(expr, params):
    """Evaluate a derive expression over the point's parameters.

    Expressions are arithmetic over ints (the grids are seeds, node
    ids, thresholds); no builtins are exposed.
    """
    return eval(expr, {"__builtins__": {}}, dict(params))


def expand(spec, day):
    """Yield (label, params, env) per grid point."""
    grid = spec.get("grid", {})
    axes = list(grid.keys())
    value_lists = [grid[a] for a in axes]
    for values in itertools.product(*value_lists) if axes else [()]:
        params = {"day": day}
        params.update(zip(axes, values))
        for name, expr in spec.get("derive", {}).items():
            params[name] = evaluate(expr, params)
        env = dict(spec.get("env", {}))
        for name, value in params.items():
            if name != "day" and name.isupper():
                env[name] = str(value)
        label = "-".join(f"{a}{params[a]}" for a in axes) or "single"
        yield label, params, env


def repro_line(env, command):
    assignments = " ".join(f"{k}={v}" for k, v in sorted(env.items()))
    return f"FAILED: {assignments} {' '.join(command)}"


def run_spec(spec, args, day):
    name = spec["name"]
    outdir = args.output_dir
    os.makedirs(outdir, exist_ok=True)
    runs = []
    failures = 0
    points = list(expand(spec, day))
    print(f"[{name}] {len(points)} points "
          f"(day {day}, timeout {spec.get('timeout_seconds', 900)}s "
          f"per point)")
    for label, params, env in points:
        try:
            command = [arg.format(**params) if "{" in arg else arg
                       for arg in spec["command"]]
        except (KeyError, IndexError) as e:
            raise ValueError(f"{name}: unknown command field {e} "
                             f"(axes: {sorted(params)})")
        log_path = os.path.join(outdir, f"{name}-{label}.log")
        run_env = dict(os.environ)
        run_env.update(env)
        start = time.monotonic()
        try:
            with open(log_path, "w") as log:
                proc = subprocess.run(
                    command, stdout=log, stderr=subprocess.STDOUT,
                    env=run_env,
                    timeout=spec.get("timeout_seconds", 900))
            code = proc.returncode
        except subprocess.TimeoutExpired:
            code = -1
        except FileNotFoundError as e:
            raise ValueError(f"{name}: cannot run {command[0]}: {e}")
        seconds = time.monotonic() - start
        ok = code == 0
        status = "ok" if ok else ("timeout" if code == -1 else "fail")
        print(f"  {status:>7}  {label} ({seconds:.1f}s)")
        if ok:
            if not args.keep_logs:
                os.unlink(log_path)
                log_path = None
        else:
            failures += 1
            line = repro_line(env, command)
            print(f"  {line}")
            with open(os.path.join(outdir, "failing-seeds.txt"),
                      "a") as f:
                f.write(line + "\n")
        runs.append({
            "label": label,
            "params": {k: v for k, v in params.items() if k != "day"},
            "env": env,
            "status": status,
            "exit": code,
            "seconds": round(seconds, 3),
            "log": log_path,
        })
    results = {
        "spec": name,
        "command": spec["command"],
        "day": day,
        "points": len(runs),
        "failures": failures,
        "runs": runs,
    }
    results_path = os.path.join(outdir, f"results-{name}.json")
    with open(results_path, "w") as f:
        json.dump(results, f, indent=2)
        f.write("\n")
    print(f"[{name}] {failures}/{len(runs)} failed, "
          f"results at {results_path}")
    return failures


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("specs", nargs="+",
                    help="sweep spec JSON files (see sweeps/)")
    ap.add_argument("--output-dir", default="sweep-results",
                    help="where logs, failing-seeds.txt, and "
                         "results-*.json land")
    ap.add_argument("--day", type=int, default=None,
                    help="override the seed-rotation day (defaults to "
                         "days since the epoch; pass a failing run's "
                         "recorded day to reproduce it)")
    ap.add_argument("--keep-logs", action="store_true",
                    help="keep logs of passing points too")
    args = ap.parse_args()

    day = args.day if args.day is not None else int(time.time()) // 86400
    total_failures = 0
    for path in args.specs:
        try:
            spec = load_spec(path)
            total_failures += run_spec(spec, args, day)
        except (ValueError, OSError, json.JSONDecodeError) as e:
            print(f"sweep.py: {e}", file=sys.stderr)
            return 1
    return 1 if total_failures else 0


if __name__ == "__main__":
    sys.exit(main())
