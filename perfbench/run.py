"""wbtree benchmark: one workload per run, one JSON result line at the end.

    python3 perfbench/run.py --workload churn-uniform --seed 1 \\
        --seconds 10 --trace 0

Run it from the repository root; it imports wbtree from ./src. Workloads
are churn-uniform, zipf-read and harness-cli (README.md says why each).
--trace 0 prints the end-to-end metrics, the timed ones in units of a
reference search (reference.py). --trace 1 is the separate traced
run: it prints the per-layer metrics and writes its spans to
.perfbench_out/. The last line of standard output is always the result
object; nothing is printed there when the run cannot start.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import statistics
import sys
import traceback
import tracemalloc
from time import perf_counter_ns

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

try:
    import wbtree
    from wbtree import cli
    from wbtree.bottom_up import BottomUpTree
    from wbtree.metrics import (MetricsSink, average_depth, count_violations,
                                max_depth)
    from wbtree.oracle import audit_balance, audit_structure
    from wbtree.params import PARAM_SETS
    from wbtree.redblack import RedBlackTree
    from wbtree.redblack import audit as rb_audit
    from wbtree.top_down import TopDownTree

    import timed
    import tracing
    from reference import REF_SEARCHES, Reference
    from workloads import (N, SEARCH, WORKLOADS, Phase, base_keys, dist_of,
                           round_trip, streams_for)
except ImportError as e:
    sys.exit(f"perfbench: cannot import wbtree from {ROOT}/src: {e}")

if not os.path.abspath(wbtree.__file__).startswith(
        os.path.join(ROOT, "src") + os.sep):
    sys.exit(f"perfbench: wbtree comes from {wbtree.__file__}, "
             f"not from {ROOT}/src")

# The three variants at their sound parameter sets.
VARIANTS = {
    "top_down-topdown": lambda: TopDownTree(PARAM_SETS["topdown"]),
    "bottom_up-integral": lambda: BottomUpTree(PARAM_SETS["integral"]),
    "redblack": RedBlackTree,
}
# How the harness labels the same three in its output rows.
ROW_LABELS = {
    "top_down-topdown": ("top_down", "topdown"),
    "bottom_up-integral": ("bottom_up", "integral"),
    "redblack": ("redblack", ""),
}

SETUP_REPS = 3          # set-ups per run; setup_s is their median
MEM_KEYS = 10_000       # keys built under tracemalloc for bytes_per_key
PROBE_KEYS = 20_000     # traced searches for base keys, on every workload
TRACE_CLI_N = 10_000    # harness size in the tree workloads' traced run
REF_AROUND = 5          # reference timings before and after a CLI call
TIMING_COLUMNS = ("elapsed_ns", "elapsed_ns_std", "normalized_elapsed")


def audit(v: str, tree) -> list[str]:
    if v == "redblack":
        return rb_audit(tree)
    return audit_structure(tree) + audit_balance(tree)


def git_revision() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(git, head[5:]), encoding="utf-8") as f:
            return f.read().strip()
    except OSError:
        return "unknown"


def run_header(args) -> dict:
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": f"{platform.python_implementation()} "
                  f"{platform.python_version()}",
        "git": git_revision(),
        "gc": {"enabled": gc.isenabled(), "thresholds": gc.get_threshold(),
               "freeze_after_setup": True},
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "clients": 1, "loop": "closed",
    }


def set_up(workload: str, seed: int) -> tuple[dict, list, dict]:
    """Keygen plus one base-tree build per variant, SETUP_REPS times.
    Keeps the last trees; returns them, the keys and the median times."""
    total, gen, build = [], [], {v: [] for v in VARIANTS}
    for _ in range(SETUP_REPS):
        bases = keys = None
        gc.collect()
        t0 = perf_counter_ns()
        keys = base_keys(workload, seed)
        gen.append(perf_counter_ns() - t0)
        bases = {}
        for v, make in VARIANTS.items():
            tb = perf_counter_ns()
            t = make()
            insert = t.insert
            for k in keys:
                insert(k)
            bases[v] = t
            build[v].append(perf_counter_ns() - tb)
        total.append(perf_counter_ns() - t0)
    times = {"setup_s": statistics.median(total) / 1e9,
             "keygen.gen_s": statistics.median(gen) / 1e9}
    for v in VARIANTS:
        times[f"{v}.build_s"] = statistics.median(build[v]) / 1e9
    return bases, keys, times


def bytes_per_key(make, keys: list[int]) -> float:
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        t = make()
        for k in keys:
            t.insert(k)
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return used / len(keys)


def cli_calls(workload: str, seed: int, n: int) -> list[list[str]]:
    """insert-pct and erase-pct at size n, then violations at n/10, all
    with --audit, default variants and params, and no time floor."""
    common = ["--base-trees", "1", "--time-floor-ms", "0", "--audit",
              "--format", "jsonl", "--dist", dist_of(workload),
              "--seed", str(seed)]
    vn = n // 10
    return [["insert-pct", "--sizes", str(n)] + common,
            ["erase-pct", "--sizes", str(n)] + common,
            ["violations", "--sizes", str(vn), "--op-pairs", str(vn),
             "--sample-interval", str(vn // 4)] + common]


def run_cli(argv: list[str], tally: timed.Tally):
    """One in-process cli.main call; returns (wall ns, rows or None)."""
    buf = io.StringIO()
    tally.attempted += 1
    t0 = perf_counter_ns()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except Exception:
        traceback.print_exc()
        rc = "an exception"
    wall = perf_counter_ns() - t0
    if rc != 0:
        tally.fail(f"wbtree-bench {' '.join(argv)} exited with {rc}")
        return wall, None
    return wall, [json.loads(line) for line in buf.getvalue().splitlines()]


def check_rows(argv, rows, first: dict, depths: dict, tally: timed.Tally):
    """Timing-free columns repeat across rounds; the measured variants
    have rows; insert-pct/erase-pct depths match the direct replay."""
    exp = argv[0]
    free = [{k: x for k, x in r.items() if k not in TIMING_COLUMNS}
            for r in rows]
    if first.setdefault(exp, free) != free:
        tally.fail(f"{exp}: timing-free columns changed between rounds")
    for v, (scheme, params) in ROW_LABELS.items():
        mine = [r for r in rows
                if r["variant"] == scheme and r["params"] == params]
        if not mine:
            tally.fail(f"{exp}: no row for {v}")
        elif (exp, v) in depths and mine[0]["avg_depth"] != depths[(exp, v)]:
            tally.fail(f"{exp} {v}: avg_depth {mine[0]['avg_depth']}, "
                       f"direct replay {depths[(exp, v)]}")


def cli_round(calls, ep: timed.Epochs, first: dict,
              depths: dict) -> tuple[int, list[float]]:
    """Each CLI call, checked, with the reference timed REF_AROUND times
    before and after it. Returns the CLI wall ns and those timings."""
    wall = 0
    refs = []
    for argv in calls:
        refs += [ep.ref() for _ in range(REF_AROUND)]
        ep.clock.owner = "bench"
        w, rows = run_cli(argv, ep.tally)
        ep.clock.owner = None
        wall += w
        refs += [ep.ref() for _ in range(REF_AROUND)]
        # The trees the call built are cyclic garbage; collect them here,
        # outside the timing, or whatever runs next would pay for it.
        gc.collect()
        if rows is not None:
            check_rows(argv, rows, first, depths, ep.tally)
    return wall, refs


def forward_depths(bases: dict, phases: list[Phase]) -> dict:
    """Average depth after each phase's forward ops on a clone of the base,
    which is the tree insert-pct and erase-pct report on."""
    depths = {}
    for v, base in bases.items():
        for phase in phases:
            t = base.clone()
            calls = (t.insert, t.delete, t.search)
            for kind, key in zip(phase.kinds[:phase.forward],
                                 phase.keys[:phase.forward]):
                calls[kind](key)
            depths[(phase.name, v)] = average_depth(t)
    return depths


def measure(args, ep: timed.Epochs, depths: dict):
    """The timed window: epochs until --seconds have passed, then on
    harness-cli one round of the CLI calls. Returns the round's wall time
    in reference searches, or None on the tree workloads."""
    ep.warm_up()
    deadline = perf_counter_ns() + args.seconds * 1_000_000_000
    while True:
        ep.busy.append(ep.run())
        if perf_counter_ns() >= deadline:
            break
    if args.workload != "harness-cli":
        return None
    calls = cli_calls(args.workload, args.seed, N)
    wall, refs = cli_round(calls, ep, {}, depths)
    ref = statistics.median(refs)
    print(f"# CLI round: {wall / 1e9:.3f} s; reference search: median "
          f"{ref:.0f} ns over the {len(refs)} timings around its calls")
    return wall / ref


def final_checks(ep: timed.Epochs) -> dict:
    """Check the trees as the window left them against the oracle's
    contents, and audit them; returns audit seconds."""
    secs = {}
    for v, t in ep.trees.items():
        if t.inorder_keys() != ep.phases[-1].final_keys:
            ep.tally.fail(f"{v}: contents differ from the oracle")
        t0 = perf_counter_ns()
        problems = audit(v, t)
        secs[f"{v}.audit_s"] = (perf_counter_ns() - t0) / 1e9
        if problems:
            ep.tally.fail(f"{v} audit: " + "; ".join(problems[:4]))
    return secs


def end_to_end(ep: timed.Epochs, setup_s: float, cli_wall,
               keys: list[int]) -> dict:
    """Timed metrics in reference searches (reference.py): `ref` is the
    median reference search time over the window."""
    m = {"setup_s": (setup_s, "s")}
    ref = statistics.median(ep.refs)
    print(f"# reference search: median {ref:.0f} ns over {len(ep.refs)} "
          f"timings of {REF_SEARCHES}")
    units = ep.in_ref_units()
    for v, make in VARIANTS.items():
        busy, p50, p99 = units[v]
        m[f"{v}.op_cost_ref"] = (busy / ep.ops, "ref")
        m[f"{v}.lat_p50_ref"] = (p50, "ref")
        m[f"{v}.lat_p99_ref"] = (p99, "ref")
        m[f"{v}.bytes_per_key"] = (bytes_per_key(make, keys[:MEM_KEYS]), "B")
        print(f"# {v}: {len(ep.busy)} epochs of {ep.ops} timed calls; "
              f"about {ep.ops * 1e9 / (busy * ref):.0f} ops/s and "
              f"p50 {p50 * ref:.0f} ns, p99 {p99 * ref:.0f} ns at the "
              "median reference; raw ops/s by epoch: "
              + " ".join(f"{ep.ops * 1e9 / b[v]:.0f}" for b in ep.busy))
    if cli_wall is None:
        cli_wall = sum(u[0] for u in units.values())
    m["wall_ref"] = (cli_wall, "ref")
    return m


def per_layer(args, ep: timed.Epochs, keys, times: dict, counts: dict,
              depths: dict) -> dict:
    """The traced run: plain, sink and span epochs, a search probe, scans,
    audits, and the harness with and without its references wrapped; the
    counting pass ran before the trees were first touched."""
    clock = ep.clock
    spans = tracing.Spans()
    plain, sink, gcs = [], [], []
    traced = {}
    ep.warm_up()
    for step in ("plain", "sink", "spans", "sink", "plain"):
        clock.reset()
        if step == "plain":
            plain.append(ep.run())
            gcs.append((dict(clock.pause_ns), dict(clock.collections)))
        elif step == "sink":
            sink.append(ep.run(sink_factory=MetricsSink))
        else:
            traced = ep.run(spans=spans)
    m = {}

    probe = keys[::max(1, len(keys) // PROBE_KEYS)]
    probe_phase = Phase("probe", [SEARCH] * len(probe), probe,
                        [True] * len(probe), len(probe), [])
    _, results, _ = timed.run_phase(probe_phase, ep.trees, clock,
                                    spans=spans)
    for v, got in results.items():
        bad = timed.mismatches(probe_phase, got)
        if bad:
            ep.tally.fail(f"{v} probe: {bad} searches missed", bad)
    del results

    durations = spans.durations_by_name()
    for v in VARIANTS:
        base = statistics.median(p[v] for p in plain)
        for op in ("insert", "delete", "search"):
            d = sorted(durations.get(f"{v}.{op}", ()))
            if d:
                m[f"{v}.{op}_ns"] = (timed.percentile(d, 0.5), "ns")
        m[f"{v}.sink_overhead_ratio"] = (
            statistics.median(s[v] for s in sink) / base, "ratio")
        m[f"{v}.gc_pause_s"] = (
            statistics.median(p.get(v, 0) for p, _ in gcs) / 1e9, "s")
        m[f"{v}.build_s"] = (times[f"{v}.build_s"], "s")
    m["gc.collections"] = (statistics.median(
        sum(c.get(v, 0) for v in VARIANTS) for _, c in gcs), "count")
    untraced = sum(statistics.median(p[v] for p in plain) for v in VARIANTS)
    m["trace.overhead_ratio"] = (
        sum(traced.values()) / untraced - 1, "ratio")
    m["keygen.gen_s"] = (times["keygen.gen_s"], "s")
    m["oracle.expect_s"] = (times["oracle.expect_s"], "s")

    units = {"avg_depth": "nodes", "max_depth": "nodes"}
    for v, row in counts.items():
        for k, x in row.items():
            m[f"{v}.{k}"] = (x, units.get(k, "count"))

    t0 = perf_counter_ns()
    for v, t in ep.trees.items():
        average_depth(t)
        max_depth(t)
        if v != "redblack":
            count_violations(t)
    m["metrics.scan_s"] = ((perf_counter_ns() - t0) / 1e9, "s")
    for k, x in final_checks(ep).items():
        m[k] = (x, "s")

    first: dict = {}
    if args.workload == "harness-cli":
        # The traced round's depths are checked against the direct replay.
        calls = cli_calls(args.workload, args.seed, N)
    else:
        # A plain round first, so the traced round's timing-free columns
        # are checked against it.
        calls = cli_calls(args.workload, args.seed, TRACE_CLI_N)
        cli_round(calls, ep, first, {})
    clock.reset()
    with tracing.harness_traced(spans) as installed:
        cli_round(calls, ep, first, depths)
    m["bench.gc_pause_s"] = (clock.pause_ns.get("bench", 0) / 1e9, "s")
    durations = spans.durations_by_name()
    for name in installed:
        if name.startswith("bench."):
            m[f"{name}_s"] = (sum(durations.get(name, ())) / 1e9, "s")
    if "bench.timed" in installed:
        m["bench.timed_share"] = (
            sum(durations["bench.timed"]) / sum(durations["cli.main"]),
            "ratio")
    m["bench.self_s"] = (spans.self_ns()["cli.main"] / 1e9, "s")

    out = os.path.join(ROOT, ".perfbench_out",
                       f"spans-{args.workload}-seed{args.seed}.tsv")
    spans.write(out)
    print(f"# spans: {len(spans.start)} written to {out}")
    return m


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")

    print("# run " + json.dumps(run_header(args)), flush=True)
    clock = timed.GcClock()
    tally = timed.Tally()
    ref = Reference()
    with clock:
        bases, keys, times = set_up(args.workload, args.seed)
        streams = streams_for(args.workload, keys, args.seed)
        t0 = perf_counter_ns()
        phases = [round_trip(name, keys, kinds, ks)
                  for name, kinds, ks in streams]
        times["oracle.expect_s"] = (perf_counter_ns() - t0) / 1e9
        depths = counts = {}
        if args.workload == "harness-cli":
            depths = forward_depths(bases, phases)
        if args.trace:
            counts = tracing.counting_pass(bases, phases)
        # Everything set-up made is now permanent: the collector skips it.
        gc.collect()
        gc.freeze()
        ep = timed.Epochs(bases, phases, clock, tally, ref)
        if args.trace:
            metrics = per_layer(args, ep, keys, times, counts, depths)
        else:
            cli_wall = measure(args, ep, depths)
            final_checks(ep)
            metrics = end_to_end(ep, times["setup_s"], cli_wall, keys)
    gc.unfreeze()

    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": x, "unit": u}
                    for k, (x, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
