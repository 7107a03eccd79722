"""Experiment harness behind the wbtree-bench command.

Each experiment builds base trees from a seeded key distribution, runs a
mutation phase per (variant, size, base-tree) cell, and emits one result
row per cell (or per sample point, for the over-time experiments). All
randomness is derived from the master seed plus the cell coordinates, so
every variant sees the same keys, the same victims, and the same churn
order; two runs with the same seed produce the same tree shapes.

Timed phases repeat on a fresh clone of the base snapshot until the time
floor is met or MAX_REPS have run, and report the per-op mean and standard
deviation across repetitions. No metrics sink runs in the timed window:
the counters come from one more, untimed rep on the base tree itself, so
a time never includes counter upkeep, which costs the schemes
differently. Cells always run sequentially in a fixed order: rows are
deterministic, and one interpreter lock means thread workers would only
add timing noise.

Every cell (one variant, size and base tree) goes through _cell: the
build, the experiment's run (timed reps on clones, one churn pass, or
sampled op-pairs; it scans the tree and fills the rows) and one audit, all
with the automatic cyclic collector off. No tree is cyclic, so reference
counting frees each one as soon as it is dropped; the collector would only
rescan the live trees, since a build allocates enough to trigger it
hundreds of times per cell.
"""

from __future__ import annotations

import csv
import gc
import io
import json
import sys
import time
from dataclasses import dataclass, field

from .bottom_up import BottomUpTree
# No cell computes a shape. perfbench wraps bench.tree_shape by name, and
# its wrapper test fails on a traced name that is missing, so the alias
# stays until that test skips such names.
from .core import structure_string as tree_shape  # noqa: F401
from .keygen import (
    STREAM_BASE,
    STREAM_CHURN,
    STREAM_FRESH,
    STREAM_VICTIM,
    SplitMix64,
    derive_seed,
    fresh_keys,
    generate,
)
from .metrics import (
    CSV_COLUMNS,
    MetricsRecord,
    MetricsSink,
    average_depth,
    count_violations,
    summarize_ns,
)
from .oracle import (audit_balance, audit_redblack as rb_audit,
                     audit_structure)
from .params import (SOUND_PARAMS, BalanceParams, param_set_name,
                     params_from_name)
from .redblack import RedBlackTree
from .top_down import TopDownTree

EXPERIMENTS = ("insert-pct", "erase-pct", "depth-churn", "violations",
               "rotations", "replay")
DISTS = ("uniform", "zipf", "skewed", "presorted")
SCHEMES = ("bottom_up", "top_down", "redblack")

# Default key universes per distribution; presorted always uses n.
ZIPF_UNIVERSE = 10 ** 6
WIDE_UNIVERSE = 2 ** 60

# Most reps of one timed phase, whatever the floor: a phase of a few ops
# (an empty replay, one insert) would otherwise take millions to fill it.
MAX_REPS = 10_000


class AuditFailure(RuntimeError):
    """Raised when --audit finds a defect; maps to exit code 2."""


class VariantSpec:
    """One tree configuration: a scheme plus (for the WBTs) its parameters."""

    __slots__ = ("scheme", "params")

    def __init__(self, scheme: str, params: BalanceParams | None):
        if scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r}")
        if (params is None) != (scheme == "redblack"):
            raise ValueError("params go with the weight-balanced schemes only")
        self.scheme = scheme
        self.params = params

    @property
    def params_name(self) -> str:
        return "" if self.params is None else param_set_name(self.params)

    @property
    def label(self) -> str:
        if self.params is None:
            return "redblack"
        return f"{self.scheme}/{self.params_name}"

    def make_tree(self, sink=None):
        if self.scheme == "bottom_up":
            return BottomUpTree(self.params, sink=sink)
        if self.scheme == "top_down":
            return TopDownTree(self.params, sink=sink)
        return RedBlackTree(sink=sink)

    def balance_guaranteed(self) -> bool:
        """True when this scheme/parameter pairing has a soundness claim."""
        return (self.scheme == "redblack"
                or self.params in SOUND_PARAMS[self.scheme])

    def __repr__(self):
        return f"VariantSpec({self.label})"


def expand_variants(schemes: list[str],
                    param_names: list[str]) -> list[VariantSpec]:
    """Cross schemes with parameter sets; redblack ignores the params list."""
    out = []
    for s in schemes:
        if s == "redblack":
            out.append(VariantSpec("redblack", None))
        elif s in ("bottom_up", "top_down"):
            if not param_names:
                raise ValueError(f"{s} needs at least one parameter set")
            out.extend(VariantSpec(s, params_from_name(p))
                       for p in param_names)
        else:
            raise ValueError(f"unknown variant {s!r}")
    return out


@dataclass
class ExperimentSpec:
    experiment: str
    variants: list[VariantSpec]
    dist: str = "uniform"
    sizes: list[int] = field(default_factory=lambda: [1000])
    base_trees: int = 10
    seed: int = 1
    time_floor_ms: int = 1000
    sample_interval: int = 10000
    zipf_s: float = 1.0
    universe: int | None = None    # None: distribution default
    op_pairs: int | None = None    # None: 2 * size
    audit: bool = False

    def check(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if self.dist not in DISTS:
            raise ValueError(f"unknown distribution {self.dist!r}")
        if not self.variants:
            raise ValueError("no variants selected")
        if self.base_trees < 1:
            raise ValueError("base-trees must be >= 1")
        if not self.sizes or any(n <= 0 for n in self.sizes):
            raise ValueError("sizes must be strictly positive")
        if self.sample_interval < 1:
            raise ValueError("sample-interval must be >= 1")
        if self.time_floor_ms < 0:
            raise ValueError("time-floor-ms must be >= 0")
        least = 10 if self.dist == "skewed" else 1
        if self.universe is not None and not least <= self.universe <= 1 << 64:
            raise ValueError(
                f"universe must be in {least}..2**64 for {self.dist}")
        if self.dist == "zipf" and not 0 < self.zipf_s < float("inf"):
            raise ValueError("zipf-s must be positive and finite")
        if self.op_pairs is not None and self.op_pairs < 0:
            raise ValueError("op-pairs must be >= 0")

    def universe_for(self, size: int) -> int:
        if self.dist == "presorted":
            return size
        if self.universe is not None:
            return self.universe
        return ZIPF_UNIVERSE if self.dist == "zipf" else WIDE_UNIVERSE


def _base_keys(spec: ExperimentSpec, size: int, tree_idx: int) -> list[int]:
    seed = derive_seed(spec.seed, size, tree_idx, STREAM_BASE)
    return generate(spec.dist, size, spec.universe_for(size), seed,
                    spec.zipf_s).keys


def _build(vs: VariantSpec, keys: list[int]):
    t = vs.make_tree(sink=None)
    insert = t.insert
    for k in keys:
        insert(k)
    return t


def _audit_cell(vs: VariantSpec, tree, spec: ExperimentSpec, where: str):
    if not spec.audit:
        return
    if vs.scheme == "redblack":
        problems = rb_audit(tree)
    elif vs.balance_guaranteed():
        problems = audit_balance(tree)
    else:
        problems = audit_structure(tree)
    if problems:
        raise AuditFailure(f"{vs.label} {where}: " + "; ".join(problems[:4]))


def _timed_reps(spec: ExperimentSpec, base_tree, phase):
    """Clone, run phase, repeat until the floor or MAX_REPS, with no sink
    in the timed window; then count the phase, untimed, on base_tree
    itself with a sink attached. Returns (durations ns, that sink,
    base_tree)."""
    floor = spec.time_floor_ms * 1_000_000
    durations: list[int] = []
    spent = 0
    while not durations or (spent < floor and len(durations) < MAX_REPS):
        t = base_tree.clone()
        t0 = time.perf_counter_ns()
        phase(t)
        dt = time.perf_counter_ns() - t0
        # Free this clone before the next one is built.
        del t
        durations.append(dt)
        spent += dt
    base_tree.sink = sink = MetricsSink()
    phase(base_tree)
    return durations, sink, base_tree


def _fill(spec: ExperimentSpec, vs: VariantSpec, size: int, sink,
          **over) -> MetricsRecord:
    return MetricsRecord(
        experiment=spec.experiment,
        variant=vs.scheme,
        params=vs.params_name,
        dist=spec.dist,
        universe=spec.universe_for(size),
        zipf_s=spec.zipf_s if spec.dist == "zipf" else 0.0,
        base_size=size,
        seed=spec.seed,
        rotation_count=sink.rotation_count,
        rotated_weight_total=sink.rotated_weight_total,
        **over)


def _pop_uniform(below, pool: list):
    """Remove and return a uniform draw from pool: swap it last, pop."""
    i = below(len(pool))
    pool[i], pool[-1] = pool[-1], pool[i]
    return pool.pop()


def _violations(vs: VariantSpec, tree) -> int:
    """Balance violations of a WBT; -1 for red-black, which has no weights."""
    return count_violations(tree) if vs.scheme != "redblack" else -1


def _cell(spec: ExperimentSpec, vs: VariantSpec, keys, run, where: str):
    """Build vs on keys, let run(vs, tree) return (rows, final tree), audit
    the final tree once. Returns the rows. The automatic collector stays
    off throughout, as it would only rescan the live trees (none is
    cyclic), and is restored however the cell exits."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        rows, final = run(vs, _build(vs, keys))
        _audit_cell(vs, final, spec, where)
        return rows
    finally:
        if was_enabled:
            gc.enable()


def _grid(spec: ExperimentSpec, make_run) -> list[MetricsRecord]:
    """Run one cell per size, base tree and variant, in that order.
    make_run(size, ti, keys) gives the run all variants share there."""
    spec.check()
    rows = []
    for size in spec.sizes:
        for ti in range(spec.base_trees):
            keys = _base_keys(spec, size, ti)
            run = make_run(size, ti, keys)
            where = f"{spec.experiment} n={size} tree={ti}"
            for vs in spec.variants:
                rows.extend(_cell(spec, vs, keys, run, where))
    return rows


def _timed(spec: ExperimentSpec, size: int, op: str, n_ops: int, phase):
    """A run that times phase on clones of the built tree to the floor and
    scans the last rep's tree."""
    def run(vs, base_tree):
        durations, sink, final = _timed_reps(spec, base_tree, phase)
        mean, std = summarize_ns(durations, n_ops)
        return [_fill(spec, vs, size, sink, op=op, rep=len(durations),
                      op_index=-1, ops=n_ops, elapsed_ns=mean,
                      elapsed_ns_std=std, avg_depth=average_depth(final),
                      violation_count=_violations(vs, final))], final
    return run


def _pct_rows(spec: ExperimentSpec, op: str, draw) -> list[MetricsRecord]:
    """Time ceil(5%) ops of one kind on each base tree. draw(size, ti,
    keys, m) gives the op keys, the same list for every variant."""
    def make_run(size, ti, keys):
        m = -(-size // 20)  # ceil(size / 20)
        batch = draw(size, ti, keys, m)

        def phase(t):
            apply = t.insert if op == "insert" else t.delete
            for k in batch:
                apply(k)
        return _timed(spec, size, op, m, phase)
    return _grid(spec, make_run)


def run_insert_pct(spec: ExperimentSpec) -> list[MetricsRecord]:
    """Time inserting ceil(5%) fresh keys into each base tree."""
    def draw(size, ti, keys, m):
        return fresh_keys(spec.dist, m, spec.universe_for(size),
                          derive_seed(spec.seed, size, ti, STREAM_FRESH),
                          spec.zipf_s)
    return _pct_rows(spec, "insert", draw)


def run_erase_pct(spec: ExperimentSpec) -> list[MetricsRecord]:
    """Time deleting ceil(5%) keys picked uniformly from the contents."""
    def draw(size, ti, keys, m):
        # Uniform draws without replacement from a scratch copy.
        rng = SplitMix64(derive_seed(spec.seed, size, ti, STREAM_VICTIM))
        pool = list(keys)
        return [_pop_uniform(rng.below, pool) for _ in range(m)]
    return _pct_rows(spec, "erase", draw)


def run_depth_churn(spec: ExperimentSpec) -> list[MetricsRecord]:
    """Delete every original key and reinsert a fresh one; report depth.

    One pass per cell, on the built tree itself (no repetition floor: the
    result of interest is the final shape, which repetitions would just
    duplicate). Its sink is attached while the clock runs. It books
    rotations only, but a red-black node stores no weight, so each booked
    red-black rotation also walks the pivot's subtree to count it, inside
    the timed window: in two 10^5-key churn probes the sink made red-black
    passes about 1.13x as long and top-down ones 1.04-1.09x. Do not
    compare these times across schemes.
    """
    def make_run(size, ti, keys):
        repl = fresh_keys(spec.dist, size, spec.universe_for(size),
                          derive_seed(spec.seed, size, ti, STREAM_CHURN),
                          spec.zipf_s)

        def run(vs, t):
            t.sink = sink = MetricsSink()
            ins, de = t.insert, t.delete
            t0 = time.perf_counter_ns()
            for old, new in zip(keys, repl):
                de(old)
                ins(new)
            dt = time.perf_counter_ns() - t0
            return [_fill(spec, vs, size, sink, op="churn", rep=1, ops=size,
                          op_index=-1, elapsed_ns=dt / size,
                          elapsed_ns_std=0.0, avg_depth=average_depth(t),
                          violation_count=_violations(vs, t))], t
        return run
    return _grid(spec, make_run)


def _churn_rows(spec: ExperimentSpec,
                want_violations: bool) -> list[MetricsRecord]:
    """Shared driver for the over-time experiments.

    Runs op-pairs (delete a uniform victim, insert a fresh key) on each
    cell, emitting one row per sample interval with either the violation
    count or the cumulative rotation counters.
    """
    def make_run(size, ti, keys):
        pairs = spec.op_pairs if spec.op_pairs is not None else 2 * size
        repl = fresh_keys(spec.dist, pairs, spec.universe_for(size),
                          derive_seed(spec.seed, size, ti, STREAM_CHURN),
                          spec.zipf_s)
        vic_seed = derive_seed(spec.seed, size, ti, STREAM_VICTIM)

        def run(vs, t):
            t.sink = sink = MetricsSink()
            rng = SplitMix64(vic_seed)
            contents = list(keys)
            ins, de = t.insert, t.delete
            samples = []
            done = 0
            while done < pairs:
                stop = min(done + spec.sample_interval, pairs)
                for i in range(done, stop):
                    de(_pop_uniform(rng.below, contents))
                    k = repl[i]
                    ins(k)
                    contents.append(k)
                done = stop
                samples.append(_fill(
                    spec, vs, size, sink, op="pair", rep=1, op_index=done,
                    ops=pairs,
                    violation_count=(_violations(vs, t)
                                     if want_violations else -1)))
            return samples, t
        return run
    return _grid(spec, make_run)


def run_violations_over_time(spec: ExperimentSpec) -> list[MetricsRecord]:
    return _churn_rows(spec, want_violations=True)


def run_rotations(spec: ExperimentSpec) -> list[MetricsRecord]:
    return _churn_rows(spec, want_violations=False)


def parse_ops(text: str) -> list[tuple[str, int]]:
    """Parse a replay file: one 'i <key>' or 'd <key>' per line; blank
    lines and '#' comments are skipped."""
    ops = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2 or parts[0] not in ("i", "d"):
            raise ValueError(f"line {ln}: expected 'i <key>' or "
                             f"'d <key>', got {raw!r}")
        try:
            key = int(parts[1])
        except ValueError:
            raise ValueError(f"line {ln}: bad key {parts[1]!r}") from None
        ops.append((parts[0], key))
    return ops


_REPLAY_BASELINE = ("bottom_up", "classic")


def run_replay(spec: ExperimentSpec,
               ops: list[tuple[str, int]]) -> list[MetricsRecord]:
    """Replay a recorded op list against every variant, from empty.

    Times the whole list on an empty tree until the time floor is met and
    reports per-op mean/stddev plus the mean normalized to the bottom-up
    classic baseline (auto-added when not already selected).
    """
    spec.check()
    variants = list(spec.variants)
    if not any((vs.scheme, vs.params_name) == _REPLAY_BASELINE
               for vs in variants):
        variants.insert(0, VariantSpec(_REPLAY_BASELINE[0],
                                       params_from_name(_REPLAY_BASELINE[1])))

    def phase(t):
        ins, de = t.insert, t.delete
        for op, key in ops:
            if op == "i":
                ins(key)
            else:
                de(key)

    run = _timed(spec, 0, "replay", len(ops), phase)
    rows = []
    for vs in variants:
        rows.extend(_cell(spec, vs, [], run, "replay"))
    base_mean = next(r.elapsed_ns for r in rows
                     if (r.variant, r.params) == _REPLAY_BASELINE)
    for r in rows:
        r.normalized_elapsed = (r.elapsed_ns / base_mean if base_mean > 0
                                else -1.0)
    return rows


def emit_results(rows: list[MetricsRecord], fmt: str, path: str | None):
    """Write rows as CSV (with header) or JSONL; path None means stdout."""
    if fmt not in ("csv", "jsonl"):
        raise ValueError(f"unknown format {fmt!r}")
    out = io.StringIO()
    if fmt == "csv":
        w = csv.writer(out, lineterminator="\n")
        w.writerow(CSV_COLUMNS)
        w.writerows(r.to_row() for r in rows)
    else:
        for r in rows:
            out.write(json.dumps(
                {c: getattr(r, c) for c in CSV_COLUMNS},
                separators=(",", ":")) + "\n")
    text = out.getvalue()
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)


RUNNERS = {
    "insert-pct": run_insert_pct,
    "erase-pct": run_erase_pct,
    "depth-churn": run_depth_churn,
    "violations": run_violations_over_time,
    "rotations": run_rotations,
}
