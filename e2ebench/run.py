#!/usr/bin/env python3
"""End-to-end benchmark on the paper's graph (Starlink/Kuiper, 1,000
cities, 0.5 degree relay grid: about 69.6k nodes and 580k edges).

Builds the `leo-e2ebench` package next to this file, runs one workload
in fresh processes, checks the outputs, and prints one JSON object as the
last line of stdout. A table of every metric, by name and unit, goes to
stderr.

    python3 e2ebench/run.py --workload latency_day --seed 42 --seconds 36 --trace 0
    python3 e2ebench/run.py --workload all   # every workload, both passes, both seeds

`--trace 0` times the public entry point (`LEO_LOG=off`) and reports the
end-to-end metrics. `--trace 1` runs the entry point once more, then the
traced replay through the public layer calls (`LEO_LOG=info`, its RUN log
kept under the build directory) and reports the per-layer metrics; the
two passes must produce the same output digest. See README.md here.
"""

import argparse
import glob
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["latency_day", "throughput_multipath", "disconnected_day"]
DEFAULT_SEED = 42
HELD_OUT_SEED = 1009
# Fixed worker count: at most two threads, never more than the machine has.
THREADS = max(1, min(2, os.cpu_count() or 1))

END_TO_END = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
]

# (name, unit); values come from the replay's own timers and counts,
# except the program counters `traced` reads from the RUN log.
PER_LAYER = [
    ("setup.relays", "count"),
    ("setup.sources", "count"),
    ("sweep.steps", "count"),
    ("sweep.busy_s", "s"),
    ("sweep.busy_pct", "%"),
    ("sweep.step_p50_ms", "ms"),
    ("sweep.step_p90_ms", "ms"),
    ("sweep.nodes", "count"),
    ("sweep.edges", "count"),
    ("sweep.full_rebuilds", "count"),
    ("sweep.cell_transitions", "count"),
    ("route.sssp.calls", "count"),
    ("route.sssp.busy_pct", "%"),
    ("route.sssp.settled", "count"),
    ("route.sssp.settled_per_call", "count"),
    ("route.sssp.targets_per_call", "count"),
    ("route.sssp.spt_repairs", "count"),
    ("route.disjoint.calls", "count"),
    ("route.disjoint.busy_pct", "%"),
    ("route.disjoint.dijkstra_runs", "count"),
    ("route.disjoint.path_yield", "ratio"),
    ("alloc.maxmin.solves", "count"),
    ("alloc.maxmin.busy_pct", "%"),
    ("alloc.maxmin.rounds", "count"),
    ("alloc.maxmin.flows", "count"),
    ("alloc.maxmin.saturated_links", "count"),
    ("components.calls", "count"),
    ("components.busy_pct", "%"),
    ("fold.busy_s", "s"),
    ("fold.busy_pct", "%"),
    ("par.threads", "count"),
    ("par.idle_frac", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_frac", "ratio"),
]

# Shown in the stderr table only: per-call times read exactly 0 on the
# workloads that never make the call.
TABLE_ONLY = [("route.sssp.us_per_call", "us"), ("route.disjoint.us_per_call", "us")]


def fail(msg):
    print(f"e2ebench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Build the benchmark binary from source; return its path and the
    build directory (where traced RUN logs go too)."""
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.abspath(env["CARGO_TARGET_DIR"])
    env["CARGO_TARGET_DIR"] = target
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        r = subprocess.run(cmd, env=env, stdout=sys.stderr)
    except OSError as e:
        fail(f"cannot run cargo: {e}")
    if r.returncode != 0:
        fail("build failed")
    return os.path.join(target, "release", "leo-e2ebench"), target


def run_pass(binary, workload, seed, size, replay, log_dir=None):
    """One pass in a fresh process; returns its JSON report."""
    env = dict(os.environ)
    env["LEO_LOG"] = "info" if replay else "off"
    if replay:
        env["LEO_LOG_DIR"] = log_dir
    cmd = [binary, workload, "--pass", "replay" if replay else "entry",
           "--seed", str(seed), "--threads", str(THREADS), "--size", size]
    p = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True)
    if p.returncode != 0:
        fail(f"{workload} {cmd[3]} pass exited with {p.returncode}")
    lines = p.stdout.strip().splitlines()
    if not lines:
        fail(f"{workload} {cmd[3]} pass printed nothing")
    rep = json.loads(lines[-1])
    numbers = [rep[k] for k in ("setup_s", "wall_s", "cpu_s", "peak_rss_mib")]
    numbers += list(rep["layers"].values())
    if any(v is None or not math.isfinite(v) for v in numbers):
        fail(f"{workload} {cmd[3]} pass reported a non-finite value")
    return rep


def log_counters(log_dir):
    """Program counters from the manifest (last line) of the RUN log."""
    logs = glob.glob(os.path.join(log_dir, "RUN_*.jsonl"))
    if len(logs) != 1:
        fail(f"expected one RUN log in {log_dir}, found {len(logs)}")
    with open(logs[0]) as f:
        last = f.read().strip().splitlines()[-1]
    manifest = json.loads(last)
    if manifest.get("type") != "manifest":
        fail(f"{logs[0]} does not end in a manifest")
    return manifest["counters"]


def untraced(binary, workload, seed, size, seconds):
    """Entry passes in fresh processes until the next one would overrun
    `seconds` (at least one); medians of each end-to-end metric."""
    passes = []
    t0 = time.monotonic()
    while True:
        t_pass = time.monotonic()
        passes.append(run_pass(binary, workload, seed, size, replay=False))
        per_pass = time.monotonic() - t_pass
        if time.monotonic() - t0 + per_pass > seconds:
            break
    metrics = {name: statistics.median(p[name] for p in passes) for name, _ in END_TO_END}
    correct = len({p["digest"] for p in passes}) == 1 and all(p["violations"] == 0 for p in passes)
    return {
        "correct": correct,
        "attempted": sum(p["checks"] for p in passes),
        "failed": sum(p["violations"] for p in passes),
        "values": metrics,
        "passes": passes,
    }


def traced(binary, workload, seed, size, target):
    """One entry pass, then the traced replay; per-layer metrics."""
    entry = run_pass(binary, workload, seed, size, replay=False)
    log_dir = os.path.join(target, "e2ebench-runs", workload)
    shutil.rmtree(log_dir, ignore_errors=True)
    os.makedirs(log_dir)
    rep = run_pass(binary, workload, seed, size, replay=True, log_dir=log_dir)
    counters = log_counters(log_dir)
    c = lambda name: counters.get(name, 0)
    v = dict(rep["layers"])
    sssp_calls = v["route.sssp.calls"]
    disjoint_calls = v["route.disjoint.calls"]
    if sssp_calls and disjoint_calls:
        fail("a workload both runs SSSP and routes disjoint paths; counters cannot be split")
    # Every Dijkstra run in a workload comes from its one routing layer.
    v["sweep.full_rebuilds"] = c("sweep_full_rebuilds")
    v["sweep.cell_transitions"] = c("sweep_cell_transitions")
    v["route.sssp.settled"] = c("dijkstra_nodes_settled") if sssp_calls else 0
    v["route.sssp.settled_per_call"] = v["route.sssp.settled"] / sssp_calls if sssp_calls else 0.0
    v["route.sssp.spt_repairs"] = c("spt_repairs")
    v["route.disjoint.dijkstra_runs"] = c("dijkstra_calls") if disjoint_calls else 0
    v["alloc.maxmin.rounds"] = c("maxmin_rounds")
    v["trace.overhead_frac"] = rep["wall_s"] / entry["wall_s"] - 1.0
    same = entry["digest"] == rep["digest"]
    if not same:
        print(f"e2ebench: replay digest {rep['digest']} != entry digest {entry['digest']}",
              file=sys.stderr)
    failed = entry["violations"] + rep["violations"] + (0 if same else 1)
    return {
        "correct": failed == 0,
        "attempted": entry["checks"] + rep["checks"] + 1,
        "failed": failed,
        "values": v,
        "entry": entry,
        "replay": rep,
    }


def table(workload, seed, res, trace):
    rows = END_TO_END if not trace else PER_LAYER + TABLE_ONLY
    out = [f"== {workload} (seed {seed}, {THREADS} threads, trace {trace}) =="]
    for name, unit in rows:
        out.append(f"  {name:32s} {res['values'][name]:>16.6g} {unit}")
    out.append(f"  {'invariant_checks':32s} {res['attempted']:>16d} count")
    out.append(f"  {'invariant_violations':32s} {res['failed']:>16d} count")
    if trace:
        e, r = res["entry"], res["replay"]
        out.append(f"  digest entry {e['digest']} replay {r['digest']}")
    else:
        out.append(f"  digest {res['passes'][0]['digest']} over {len(res['passes'])} pass(es)")
    return "\n".join(out)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int,
                    help=f"default {DEFAULT_SEED}; --workload all runs {DEFAULT_SEED} and "
                         f"the held-out {HELD_OUT_SEED} unless a seed is given")
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["gated", "paper"], default="gated",
                    help="paper: 5,000 pairs x 96 instants, opt-in and never gated")
    args = ap.parse_args()
    if args.seed is not None and args.seed < 0:
        fail("--seed must be non-negative")

    binary, target = build()
    if args.workload == "all":
        ok = True
        seeds = [DEFAULT_SEED, HELD_OUT_SEED] if args.seed is None else [args.seed]
        for seed in seeds:
            for w in WORKLOADS:
                for trace in (0, 1):
                    res = (traced(binary, w, seed, args.size, target) if trace
                           else untraced(binary, w, seed, args.size, args.seconds))
                    print(table(w, seed, res, trace), flush=True)
                    ok &= res["correct"]
        sys.exit(0 if ok else 1)
    if args.seed is None:
        args.seed = DEFAULT_SEED

    if args.trace:
        res = traced(binary, args.workload, args.seed, args.size, target)
        names = PER_LAYER
    else:
        res = untraced(binary, args.workload, args.seed, args.size, args.seconds)
        names = END_TO_END
    print(table(args.workload, args.seed, res, args.trace), file=sys.stderr)
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {n: {"value": res["values"][n], "unit": u} for n, u in names},
    }))


if __name__ == "__main__":
    main()
