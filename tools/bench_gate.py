#!/usr/bin/env python3
"""Bench-regression gate: compare freshly produced BENCH_diff.json /
BENCH_net.json / BENCH_ckpt.json against the committed baselines and
fail on regression.

The gated metrics are *ratios* (speedup of one kernel over another on
the same host), not absolute throughput: absolutes vary wildly between
the recording machine and a CI runner, while same-host ratios are
stable. Diff-scan ratios are additionally gated as the geometric mean
over all scenarios of a family: single-scenario ratios wobble 20%+
run to run on loaded hosts, while a real kernel regression — the
injected-slowdown acceptance test halves the diff-scan rate — drags
every scenario down and collapses the mean. Per-scenario values are
printed as informational context.

Usage:
    tools/bench_gate.py --baseline-dir <dir-with-committed-jsons> \
                        [--fresh-dir .] [--tolerance 0.15] \
                        [--net-tolerance 0.35]

Exit status 1 when any gated ratio falls below baseline * (1 - tol).
The net ratios get a wider default tolerance: the RPC latency ratios
depend on the runner's core count, while the diff-kernel ratios only
depend on the ISA.
"""

import argparse
import json
import math
import os
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


class Gate:
    def __init__(self):
        self.failures = []
        self.checked = 0

    def check(self, name, fresh, baseline, tolerance):
        self.checked += 1
        floor = baseline * (1.0 - tolerance)
        status = "ok"
        if fresh < floor:
            status = "REGRESSION"
            self.failures.append(
                f"{name}: {fresh:.3f} < floor {floor:.3f} "
                f"(baseline {baseline:.3f}, tolerance {tolerance:.0%})")
        print(f"  {status:>10}  {name}: fresh {fresh:.3f} vs "
              f"baseline {baseline:.3f} (floor {floor:.3f})")


def geomean(xs):
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def gate_diff(gate, fresh, baseline, tolerance):
    print("BENCH_diff.json (diff-scan kernel ratio families, "
          "geometric mean over scenarios):")
    fresh_scenarios = {s["name"]: s for s in fresh.get("scenarios", [])}
    simd_comparable = fresh.get("cpu_simd") and baseline.get("cpu_simd")
    if not simd_comparable:
        print("  (skipping simd ratios: host SIMD support differs "
              "from the baseline recording)")
    families = ["speedup_vs_seed"]
    if simd_comparable:
        families.append("speedup_simd_vs_seed")
    for family in families:
        fresh_vals, base_vals = [], []
        for base_s in baseline.get("scenarios", []):
            name = base_s["name"]
            fresh_s = fresh_scenarios.get(name)
            if fresh_s is None:
                gate.failures.append(f"diff scenario '{name}' missing "
                                     "from fresh results")
                continue
            fresh_vals.append(fresh_s[family])
            base_vals.append(base_s[family])
            print(f"        info  diff/{name}/{family}: "
                  f"fresh {fresh_s[family]:.2f} vs "
                  f"baseline {base_s[family]:.2f}")
        if fresh_vals:
            gate.check(f"diff/geomean/{family}", geomean(fresh_vals),
                       geomean(base_vals), tolerance)


def gate_net(gate, fresh, baseline, tolerance):
    print("BENCH_net.json (MPSC inbox / latency-path ratios):")
    key = "rpc_bypass_speedup"
    if key not in baseline:
        print(f"  net/{key}: no committed baseline, skipping")
    elif key not in fresh:
        # A truncated or renamed fresh file must not slip through as
        # "nothing to check".
        gate.failures.append(f"net/{key}: missing from fresh results")
    else:
        gate.check(f"net/{key}", fresh[key], baseline[key], tolerance)
    # ring_p50 / socket_p50 gates the tier-1 frame path: a regression
    # in the codec or the reader-thread handoff inflates the socket
    # round trip and drags this ratio below its floor, while both
    # numbers coming from the same host keeps it machine-portable.
    key = "rpc_ring_vs_socket_p50"
    if key in baseline:
        if key not in fresh:
            gate.failures.append(f"net/{key}: missing from fresh "
                                 "results")
        else:
            gate.check(f"net/{key}", fresh[key], baseline[key],
                       tolerance)
    else:
        print(f"  net/{key}: no committed baseline, skipping")
    for key in ("rpc_roundtrip_ring_p50_ns", "rpc_roundtrip_ring_p99_ns",
                "rpc_roundtrip_socket_p50_ns",
                "rpc_roundtrip_socket_p99_ns", "fanin_ring_ns_per_msg"):
        if key in fresh:
            print(f"        info  net/{key}: {fresh[key]:.0f} "
                  "(not gated: absolute latency)")


def gate_ckpt(gate, fresh, baseline, tolerance):
    print("BENCH_ckpt.json (incremental-checkpoint reduction ratio):")
    key = "delta_reduction"
    if key not in baseline:
        print(f"  ckpt/{key}: no committed baseline, skipping")
        return
    if key not in fresh:
        gate.failures.append(f"ckpt/{key}: missing from fresh results")
        return
    # Stored-bytes ratio of a deterministic workload: bit-exact across
    # hosts, so any drop is a real regression in the delta encoder or
    # the snapshot layout (e.g. a growing section serialized before
    # the arena again would smear the word scan and crater this).
    gate.check(f"ckpt/{key}", fresh[key], baseline[key], tolerance)
    stored = fresh.get("ckpt_delta_bytes", 0)
    if stored <= 0:
        gate.failures.append("ckpt/ckpt_delta_bytes: delta run stored "
                             "nothing in the fresh run")
    else:
        print(f"        info  ckpt/ckpt_delta_bytes: {stored}")
    if "delta_scan_gbps" in fresh:
        print(f"        info  ckpt/delta_scan_gbps: "
              f"{fresh['delta_scan_gbps']:.2f} (not gated: absolute "
              f"throughput)")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline-dir", required=True,
                    help="directory holding the committed BENCH_*.json")
    ap.add_argument("--fresh-dir", default=".",
                    help="directory holding the freshly produced JSONs")
    ap.add_argument("--tolerance", type=float,
                    default=float(os.environ.get("BENCH_GATE_TOL",
                                                 "0.15")),
                    help="allowed relative drop for diff ratios "
                         "(default 0.15)")
    ap.add_argument("--net-tolerance", type=float,
                    default=float(os.environ.get("BENCH_GATE_NET_TOL",
                                                 "0.35")),
                    help="allowed relative drop for net ratios "
                         "(default 0.35: core-count sensitive)")
    args = ap.parse_args()

    gate = Gate()
    for fname, fn, tol in (
            ("BENCH_diff.json", gate_diff, args.tolerance),
            ("BENCH_net.json", gate_net, args.net_tolerance),
            ("BENCH_ckpt.json", gate_ckpt, args.tolerance)):
        base_path = os.path.join(args.baseline_dir, fname)
        fresh_path = os.path.join(args.fresh_dir, fname)
        if not os.path.exists(base_path):
            print(f"{fname}: no committed baseline, skipping")
            continue
        if not os.path.exists(fresh_path):
            gate.failures.append(f"{fname}: fresh results missing at "
                                 f"{fresh_path}")
            continue
        fn(gate, load(fresh_path), load(base_path), tol)

    print(f"\nchecked {gate.checked} ratios, "
          f"{len(gate.failures)} regression(s)")
    if gate.failures:
        print("\nFAILED:")
        for f in gate.failures:
            print(f"  - {f}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
