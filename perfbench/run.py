#!/usr/bin/env python3
"""End-to-end Table 3 benchmark: EC vs homeless and home-based LRC.

Builds the program and the benchmark driver from source into
.bench_build/, runs one workload for --seconds, checks every run against
the application's sequential reference, and prints every metric by name
with its unit. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (untraced passes);
with --trace 1 they are the per-layer ones (traced passes) plus the
tracing overhead, and the spans go to .bench_build/traces/.

    python3 perfbench/run.py --workload barrier-apps --seed 1 \\
        --seconds 25 --trace 0

See perfbench/README.md for the workloads and the metric map.
"""

import argparse
import json
import math
import os
import queue
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
# Compiler and library temporaries stay inside the working tree too.
TMP_DIR = os.path.join(ROOT, ".bench_build", "tmp")
ENV = dict(os.environ, TMPDIR=TMP_DIR)

WORKLOADS = ("barrier-apps", "lock-apps", "socket-apps")

# A run (or any silence of the driver) longer than this is a hang and
# counts as a failure; the invocation stops HARD_LIMIT_S after the build.
RUN_DEADLINE_S = 60.0
HARD_LIMIT_S = 170.0

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "virt_s": "s",
    "msgs": "count",
    "mb_sent": "MiB",
}

# Every (application, column) row any workload runs; a workload reports
# 0 for the rows it does not run.
ROWS = [(app, col)
        for app in ("SOR", "IS", "3D-FFT", "Barnes-Hut", "QS", "Water")
        for col in ("EC", "LRC", "LRC-home")]

# Per-layer counters: metric name -> NodeStats field summed over a pass.
COUNTERS = {
    "mem.page_faults": "pageFaults",
    "mem.twins_created": "twinsCreated",
    "mem.twin_words": "twinWordsCopied",
    "mem.dirty_stores": "dirtyStores",
    "mem.diffs_created": "diffsCreated",
    "mem.diffs_applied": "diffsApplied",
    "mem.diff_words_compared": "diffWordsCompared",
    "mem.ts_words_scanned": "tsWordsScanned",
    "net.replies_bypassed": "repliesBypassed",
    "net.bypass_refusals": "replyBypassRefusals",
    "net.retransmissions": "retransmissions",
    "sync.locks_acquired": "locksAcquired",
    "sync.local_lock_hits": "localLockHits",
    "sync.lock_forwards": "lockForwards",
    "sync.barriers": "barriersEntered",
    "core.lrc.access_misses": "accessMisses",
    "core.lrc.intervals": "intervalsCreated",
    "core.lrc.pages_invalidated": "pagesInvalidated",
    "core.lrc.diff_requests": "diffRequestsSent",
    "core.lrc.ts_requests": "tsRequestsSent",
    "core.lrc.reinvalidations_avoided": "reinvalidationsAvoided",
    "core.lrc.gc_rounds": "gcRounds",
    "core.home.flushes": "homeFlushesSent",
    "core.home.fetch_rts": "pageFetchRoundTrips",
    "core.home.migrations": "homeMigrations",
    "core.ec.updates": "updatesSent",
    "core.ec.update_bytes": "updateBytesSent",
    "core.ec.rebinds": "rebinds",
}


def per_layer_units():
    units = {
        "driver.launch_s": "s",
        "driver.run_overhead_s": "s",
        "apps.worker_skew": "ratio",
    }
    for app, col in ROWS:
        units[f"apps.{app}.{col}.run_s"] = "s"
        units[f"apps.{app}.{col}.virt_s"] = "s"
    for name in COUNTERS:
        units[name] = ("words" if "words" in name else
                       "bytes" if name.endswith("_bytes") else "count")
    units["net.bypass_ratio"] = "ratio"
    units["sync.forward_ratio"] = "ratio"
    units["time.compute_frac"] = "ratio"
    units["time.node_skew"] = "ratio"
    units["trace.overhead_s"] = "s"
    return units


PER_LAYER = per_layer_units()


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then (re)build; all output goes to stderr."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no program sources (src/) next to the benchmark")
    os.makedirs(TMP_DIR, exist_ok=True)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, env=ENV,
                          check=False).returncode:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                      stdout=sys.stderr, env=ENV, check=False).returncode:
        fail("build failed")


def _pump(stream, q):
    for line in stream:
        q.put(line)
    q.put(None)


def drive(args, trace_out, started):
    """Run the driver; return (records, lost). lost is true when the
    driver hung or died before finishing: one run was lost."""
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale, "--trace-out", trace_out]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=ENV, start_new_session=True)
    q = queue.Queue()
    pump = threading.Thread(target=_pump, args=(proc.stdout, q),
                            daemon=True)
    pump.start()
    records = []
    try:
        while True:
            budget = min(RUN_DEADLINE_S,
                         HARD_LIMIT_S - (time.monotonic() - started))
            try:
                line = q.get(timeout=max(0.0, budget))
            except queue.Empty:
                print("perfbench: driver silent past its deadline; "
                      "counting the in-flight run as failed",
                      file=sys.stderr)
                break
            if line is None:
                break
            records.append(json.loads(line))
    finally:
        # Unless the driver finished cleanly (it reaps its own node
        # processes), stop its whole process group, which holds any
        # socket-tier node processes too; then reap the driver.
        finished = any(r["type"] == "done" for r in records)
        if proc.poll() != 0 or not finished:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        proc.wait()
        pump.join(timeout=5)
    finished = finished and proc.returncode == 0
    if not finished and not any(r["type"] == "fingerprint"
                                for r in records):
        fail(f"driver exited with code {proc.returncode}")
    return records, not finished


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def passes(records, traced):
    """Complete, all-valid measured passes as lists of run records (a
    traced pass includes its launch probe)."""
    done = {r["pass"] for r in records
            if r["type"] == "pass" and r["traced"] == traced}
    groups = {}
    for r in records:
        if (r["type"] == "run" and r["traced"] == traced or
                r["type"] == "probe" and traced):
            groups.setdefault(r["pass"], []).append(r)
    return [g for p, g in sorted(groups.items())
            if p >= 0 and p in done and all(r["ok"] for r in g)]


def end_to_end(runs):
    runs = [r for r in runs if r["type"] == "run"]
    return {
        "run_s": sum(r["run_s"] for r in runs),
        "setup_s": sum(r["setup_s"] for r in runs),
        "virt_s": geomean([r["virt_s"] for r in runs]),
        "msgs": sum(r["msgs"] for r in runs),
        "mb_sent": sum(r["mb_sent"] for r in runs),
    }


def ratio(num, den):
    return num / den if den else 0.0


def per_layer(group):
    runs = [r for r in group if r["type"] == "run"]
    probes = [r for r in group if r["type"] == "probe"]
    ring = [r for r in runs if r["worker_s"]]
    total = {field: sum(r["counters"][field] for r in runs)
             for field in COUNTERS.values()}
    m = {
        "driver.launch_s": sum(p["launch_s"] for p in probes),
        "driver.run_overhead_s": sum(r["run_s"] - max(r["worker_s"])
                                     for r in ring),
        "apps.worker_skew": statistics.fmean(
            [max(r["worker_s"]) / min(r["worker_s"]) for r in ring])
        if ring else 0.0,
    }
    for app, col in ROWS:
        row = [r for r in runs if r["app"] == app and r["column"] == col]
        m[f"apps.{app}.{col}.run_s"] = sum(r["run_s"] for r in row)
        m[f"apps.{app}.{col}.virt_s"] = sum(r["virt_s"] for r in row)
    for name, field in COUNTERS.items():
        m[name] = total[field]
    m["net.bypass_ratio"] = ratio(
        total["repliesBypassed"],
        total["repliesBypassed"] + total["replyBypassRefusals"])
    m["sync.forward_ratio"] = ratio(total["lockForwards"],
                                    total["locksAcquired"])
    work_ns = sum(r["counters"]["workUnits"] * r["work_unit_ns"]
                  for r in runs)
    node_ns = sum(sum(r["node_times_ns"]) for r in runs)
    m["time.compute_frac"] = ratio(work_ns, node_ns)
    m["time.node_skew"] = statistics.fmean(
        [max(r["node_times_ns"]) / statistics.fmean(r["node_times_ns"])
         for r in runs])
    return m


def medians(dicts):
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("paper", "test"),
                        default="paper",
                        help="application input sizes (test: smoke runs)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    os.chdir(ROOT)
    build()
    started = time.monotonic()
    traces = os.path.join(".bench_build", "traces")
    os.makedirs(traces, exist_ok=True)
    trace_out = os.path.join(
        traces, f"{args.workload}-seed{args.seed}-{args.scale}.jsonl")

    records, lost = drive(args, trace_out, started)
    outcomes = [r for r in records if r["type"] in ("run", "probe")]
    attempted = len(outcomes) + lost
    failed = sum(not r["ok"] for r in outcomes) + lost
    for r in outcomes:
        if not r["ok"]:
            print(f"perfbench: FAILED run {r['run']} "
                  f"{r.get('app', 'launch probe')} {r.get('column', '')}: "
                  f"{r['error']}", file=sys.stderr)

    fp = next(r for r in records if r["type"] == "fingerprint")
    print("fingerprint " + json.dumps({k: v for k, v in fp.items()
                                       if k != "type"}))
    untraced = [end_to_end(g) for g in passes(records, False)]
    if args.trace:
        traced_groups = passes(records, True)
        traced_e2e = [end_to_end(g) for g in traced_groups]
        layers = [per_layer(g) for g in traced_groups]
        complete = bool(layers and untraced)
        if complete:
            for label, summary in (("untraced", untraced),
                                   ("traced", traced_e2e)):
                print(f"e2e-{label} " + json.dumps(medians(summary)))
            values = medians(layers)
            values["trace.overhead_s"] = (
                medians(traced_e2e)["run_s"] - medians(untraced)["run_s"])
        units = PER_LAYER
        count = len(layers)
    else:
        complete = bool(untraced)
        values = medians(untraced) if complete else {}
        units = END_TO_END
        count = len(untraced)
    if not complete:
        values = {name: 0.0 for name in units}

    print(f"passes {count} ({'traced' if args.trace else 'untraced'}, "
          f"medians reported)")
    print(f"metric fail_frac = {ratio(failed, attempted):.6g} ratio")
    for name, unit in units.items():
        print(f"metric {name} = {values[name]:.6g} {unit}")
    if args.trace:
        print(f"trace spans: {trace_out}")
    print(json.dumps({
        "correct": complete and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))


if __name__ == "__main__":
    main()
