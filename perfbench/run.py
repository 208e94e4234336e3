#!/usr/bin/env python3
"""Repository benchmark runner (see perfbench/README.md).

    python3 perfbench/run.py --workload fleet|migrate|rollback --seed N \
        --seconds S --trace 0|1

Builds the marbench binary (Release) from this checkout, runs the
workload in fresh processes for at least S seconds, and prints the
metrics. The last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}: with --trace 0 the
end-to-end metrics, with --trace 1 the per-layer metrics of separate
traced runs.

With --trace 0 a run measures WORLDS worlds whose seeds derive from
--seed. Each world runs once with every span retained (exact simulated
step latencies) and at least once plain, the plain runs cycling through
the worlds until S seconds have passed. Wall-clock metrics take the best
plain run; simulated-time and byte metrics pool the worlds and repeat
exactly for a seed.
"""

import argparse
import importlib.util
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "marbench")
BINARY = os.path.join(BUILD_DIR, "marbench")
TIMELINE = os.path.join(ROOT, "tools", "trace_timeline.py")

WORKLOADS = ("fleet", "migrate", "rollback")
WORLDS = 3            # independent worlds per --trace 0 run
SETUP_PROCS = 6       # extra set-up-only processes per --trace 0 run
MIN_TRACED_REPS = 2   # traced (and paired plain) runs per --trace 1 run
REP_TIMEOUT_S = 150

# End-to-end metrics: name -> unit, in report order.
END_TO_END = {
    "steps_per_s": "1/s",
    "cpu_us_per_step": "us",
    "setup_s": "s",
    "virtual_steps_per_s": "1/s",
    "step_p50_us": "us",
    "step_p99_us": "us",
    "rollback_p50_us": "us",
    "rollback_p99_us": "us",
    "storage_bytes_per_step": "B",
    "wire_bytes_per_step": "B",
    "peak_rss_mb": "MB",
    "oracle_pass_frac": "ratio",
}

PHASES = ("queue_wait", "lock_wait", "step_exec", "commit_flush",
          "convoy_wait", "wire", "apply")
SHIP_PHASES = ("convoy_wait", "wire", "apply")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --- statistics -------------------------------------------------------------

def median(values):
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def merge_counts(maps):
    """Sum {value: samples} maps (JSON keys are strings)."""
    merged = {}
    for m in maps:
        for value, n in m.items():
            merged[int(value)] = merged.get(int(value), 0) + n
    return merged


def nearest_rank(counts, p):
    """Nearest-rank p-th percentile of a {value: samples} map, with the
    sample count and the number of samples beyond the percentile."""
    total = sum(counts.values())
    if total == 0:
        return 0, 0, 0
    rank = min(max(1, -(-total * p // 100)), total)
    seen = 0
    for value in sorted(counts):
        seen += counts[value]
        if seen >= rank:
            return value, total, total - rank
    raise AssertionError("unreachable")


def deterministic_mismatches(reps):
    """Deterministic figures that differ between runs of one world (must be
    none). Traced runs carry extra counts; only shared names compare."""
    bad = set()
    first = reps[0]
    for rep in reps[1:]:
        for section in ("totals", "counts"):
            a, b = first[section], rep[section]
            for name in set(a) & set(b):
                if a[name] != b[name]:
                    bad.add(f"{section}.{name}")
        if first["rollback_latency_us"] != rep["rollback_latency_us"]:
            bad.add("rollback_latency_us")
        # Only span-retaining runs have step latencies.
        a, b = first["step_latency_us"], rep["step_latency_us"]
        if a and b and a != b:
            bad.add("step_latency_us")
        if (first["agents"], first["failed"]) != (rep["agents"], rep["failed"]):
            bad.add("agents/failed")
    return sorted(bad)


def end_to_end_metrics(plain, worlds, setups=()):
    """The 12 end-to-end metrics. Wall-clock ones take the best of the run's
    plain runs (set-up also of `setups`, set-up-only runs): on a shared host
    interference only ever slows a run, and single runs of one world differ
    by up to 1.7x, so the fastest estimates the program's own cost. Peak
    RSS is the median. The others pool `worlds` (one span-retaining run
    per world)."""
    tot = lambda key: sum(r["totals"][key] for r in worlds)
    steps = tot("steps")
    step_lat = merge_counts(r["step_latency_us"] for r in worlds)
    rb_lat = merge_counts(r["rollback_latency_us"] for r in worlds)
    agents = sum(r["agents"] for r in worlds)
    failed = sum(r["failed"] for r in worlds)
    return {
        "steps_per_s": max(r["steps"] / r["drive_s"] for r in plain),
        "cpu_us_per_step": min(
            r["drive_cpu_s"] * 1e6 / r["steps"] for r in plain),
        "setup_s": min(r["setup_s"] for r in (*plain, *setups)),
        "virtual_steps_per_s": steps * 1e6 / tot("makespan_us"),
        "step_p50_us": nearest_rank(step_lat, 50)[0],
        "step_p99_us": nearest_rank(step_lat, 99)[0],
        "rollback_p50_us": nearest_rank(rb_lat, 50)[0],
        "rollback_p99_us": nearest_rank(rb_lat, 99)[0],
        "storage_bytes_per_step": tot("storage_bytes") / steps,
        "wire_bytes_per_step": tot("wire_bytes") / steps,
        "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
        "oracle_pass_frac": 1.0 - failed / agents,
    }


def stitch(dump_path):
    """Stitch a span dump with tools/trace_timeline.py.

    Returns (per-phase self time in simulated us summed over all hops,
    hops, structural problems, uncovered step hops, uncovered other hops).
    A structural problem (a broken causal chain, a trace without exactly
    one root or shared by two agents) means the dump does not stitch. The
    tool also wants its coverage phases to explain >= 95% of each hop;
    hops that miss that are counted, split into step hops (those with a
    step_exec span) and the rest (compensation and rollback-request hops,
    which have no execution-phase span). Ship spans nest inside the
    migrating hop's commit_flush, so commit_flush self time excludes them.
    """
    spec = importlib.util.spec_from_file_location("trace_timeline", TIMELINE)
    tl = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tl)
    check = subprocess.run([sys.executable, TIMELINE, "--self-check",
                            dump_path], capture_output=True, text=True,
                           check=False)
    structural, uncovered = [], set()
    for line in check.stderr.splitlines():
        m = re.search(r"hop span (\d+) on node \d+ covered", line)
        if m:
            uncovered.add(int(m.group(1)))
        elif line.strip():
            structural.append(line.strip())
    if check.returncode not in (0, 1) or (check.returncode == 1 and
                                          not structural and not uncovered):
        structural.append(f"trace_timeline.py exited {check.returncode}")

    totals = dict.fromkeys(PHASES, 0)
    hops = 0
    step_hops = set()
    for trace_spans in tl.group_traces(tl.load_spans(dump_path)).values():
        trace_hops, children = tl.build_timeline(trace_spans)
        for hop in trace_hops:
            hops += 1
            kids = children.get(hop["span_id"], [])
            if any(c["kind"] == "step_exec" for c in kids):
                step_hops.add(hop["span_id"])
            phases = tl.hop_phases(hop, kids)
            for k in PHASES:
                totals[k] += phases.get(k, 0)
            ship = sum(phases.get(k, 0) for k in SHIP_PHASES)
            totals["commit_flush"] -= min(ship, phases.get("commit_flush", 0))
    return (totals, hops, structural, len(uncovered & step_hops),
            len(uncovered - step_hops))


# --- build and run ------------------------------------------------------------

def build():
    """Configure and build marbench; False when the sources are missing or
    the build fails (build output goes to stderr)."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          check=False).returncode != 0:
            log(f"run.py: build step failed: {' '.join(cmd)}")
            return False
    return os.path.exists(BINARY)


def world_seed(seed, i):
    """Seed of the i-th world of a run."""
    return seed * 1000 + i


def run_rep(workload, seed, *flags):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), *flags]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=REP_TIMEOUT_S, check=False)
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}")
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    b = rep["build"]
    if b["build_type"] != "Release" or not b["ndebug"]:
        raise RuntimeError(f"refusing to report from a {b['build_type']} "
                           f"build (NDEBUG={b['ndebug']})")
    return rep


def verdict(worlds, problems=()):
    """True when every run passed its oracles and the runs of each world
    agree on every deterministic figure; reasons go to stderr."""
    problems = list(problems)
    for i, reps in enumerate(worlds):
        bad = deterministic_mismatches(reps)
        if bad:
            problems.append(f"world {i}: deterministic figures differ "
                            "between runs: " + ", ".join(bad[:8]))
        if not all(r["ok"] for r in reps):
            problems.append(f"world {i}: an oracle failed")
    for p in problems:
        log(f"run.py: NOT CORRECT: {p}")
    return not problems


def print_rows(rows):
    width = max(len(name) for name, _, _ in rows)
    for name, value, unit in rows:
        print(f"  {name:<{width}}  {value:>16.6g}  {unit}")


def measure_end_to_end(args):
    start = time.monotonic()
    exact = [run_rep(args.workload, world_seed(args.seed, i), "--retain-spans")
             for i in range(WORLDS)]
    plain, worlds = [], [[r] for r in exact]

    def run_world(i):
        plain.append(run_rep(args.workload, world_seed(args.seed, i)))
        worlds[i].append(plain[-1])

    for i in range(WORLDS):
        run_world(i)
    # Set-up is short and its speed varies from process to process: time it
    # in processes of its own as well.
    setups = [run_rep(args.workload, world_seed(args.seed, i % WORLDS),
                      "--setup-only") for i in range(SETUP_PROCS)]
    i = 0
    while time.monotonic() - start < args.seconds:
        run_world(i)
        i = (i + 1) % WORLDS
    log("run.py: plain runs (steps/s): " + " ".join(
        f"{r['steps'] / r['drive_s']:.0f}" for r in plain))
    m = end_to_end_metrics(plain, exact, setups)
    _, steps_n, steps_beyond = nearest_rank(
        merge_counts(r["step_latency_us"] for r in exact), 99)
    _, n, beyond = nearest_rank(
        merge_counts(r["rollback_latency_us"] for r in exact), 99)
    print(f"{args.workload} seed {args.seed}: {WORLDS} worlds x "
          f"{exact[0]['agents']} agents, {len(plain)} plain runs; step "
          f"latency {steps_n} samples ({steps_beyond} beyond p99), rollback "
          f"latency {n} samples ({beyond} beyond p99)")
    print_rows([(k, m[k], u) for k, u in END_TO_END.items()])
    attempted = sum(r["agents"] for r in exact)
    failed = sum(r["failed"] for r in exact)
    return m, dict(END_TO_END), attempted, failed, verdict(worlds)


def measure_per_layer(args):
    seed = world_seed(args.seed, 0)
    dump = os.path.join(os.path.dirname(BUILD_DIR),
                        f"spans-{args.workload}-{args.seed}.jsonl")
    start = time.monotonic()
    plain, traced = [], []
    while (len(traced) < MIN_TRACED_REPS or
           time.monotonic() - start < args.seconds):
        plain.append(run_rep(args.workload, seed))
        flags = ["--traced"] + ([] if traced else ["--span-dump", dump])
        traced.append(run_rep(args.workload, seed, *flags))
    totals, hops, structural, uncovered_steps, uncovered_other = stitch(dump)
    os.remove(dump)
    problems = [f"span dump does not stitch: {p}" for p in structural[:8]]

    m = dict(traced[0]["counts"])
    for name in traced[0]["timing"]:
        m[name] = median([r["timing"][name] for r in traced])
    m["bench.dump_s"] = traced[0]["timing"]["bench.dump_s"]  # only one dumps
    m["layer.unattributed.cpu_share"] = 100.0 - sum(
        v for k, v in m.items()
        if k.startswith("layer.") and k != "layer.unattributed.cpu_share")
    for k in PHASES:
        m[f"phase.{k}_us_per_hop"] = totals[k] / hops if hops else 0.0
    m["phase.uncovered_step_hops"] = uncovered_steps
    m["phase.uncovered_other_hops"] = uncovered_other
    # Each traced run follows a plain one; pairing them cancels most of the
    # host's drift in speed between runs.
    cpu = lambda r: r["drive_cpu_s"] / r["steps"]
    m["util.trace_overhead_pct"] = median(
        [(cpu(t) / cpu(p) - 1.0) * 100.0 for p, t in zip(plain, traced)])
    units = {k: unit_of(k) for k in m}

    print(f"{args.workload} seed {args.seed}: per-layer metrics of world 0 "
          f"from {len(traced)} traced runs (+{len(plain)} plain runs for the "
          "tracing overhead)")
    print_rows([(k, m[k], units[k]) for k in sorted(m)])
    shares = sum(v for k, v in m.items() if k.startswith("layer."))
    print(f"  layer.*.cpu_share sum to {shares:.1f}% "
          f"(unattributed {m['layer.unattributed.cpu_share']:.1f}%)")
    first = traced[0]
    return (m, units, first["agents"], first["failed"],
            verdict([plain + traced], problems))


def unit_of(name):
    """Unit of a per-layer metric, from its name."""
    if name.startswith("net.bytes_by_type.") or "bytes" in name:
        return "B"
    suffixes = (("_ns_per_kb", "ns/KB"), ("_ns", "ns"), ("ns_per_event", "ns"),
                ("_us_per_hop", "us"),
                ("_us", "us"), ("_pct", "%"), ("cpu_share", "%"),
                ("_s", "s"), ("_ratio", "ratio"), ("abort_rate", "1/step"),
                ("_per_step", "1/step"), ("_per_hop", "1/hop"),
                ("_per_rollback", "1/rollback"), ("_per_convoy", "1/convoy"))
    for suffix, unit in suffixes:
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not build():
        return 1
    try:
        measure = measure_per_layer if args.trace else measure_end_to_end
        metrics, units, attempted, failed, correct = measure(args)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError,
            KeyError, OSError) as e:
        log(f"run.py: {e}")
        return 1
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
