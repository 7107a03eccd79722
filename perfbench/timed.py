"""Closed-loop timing: one client, each op issued when the previous returns.

An epoch replays every phase of a workload on the base trees; each phase
ends with the trees holding the base keys again. Inside a phase the
variants take turns block by block, and the variant that goes first
rotates, so drift on the machine hits all of them alike. Each call is timed
with perf_counter_ns and its return value kept; the values are checked
against the oracle's expectations only after the phase, outside every
timed block.

On a shared host the speed of the whole machine swings by up to 1.7x,
within seconds and over minutes, so raw times spread by a quarter between
runs. The end-to-end figures are therefore in reference units: after each
round of blocks the reference search (reference.py) is timed, and every
block's time and latencies are divided by it. Every epoch replays the same
blocks, and each block's figures are the median over its repetitions.
"""

from __future__ import annotations

import gc
import statistics
import sys
from array import array
from time import perf_counter_ns

from workloads import DELETE, INSERT, Phase

BLOCK = 5000    # ops a variant runs before the next one takes its turn


def percentile(ordered, q: float) -> float:
    """Linear interpolation between the two nearest ranks."""
    x = q * (len(ordered) - 1)
    i = int(x)
    j = min(i + 1, len(ordered) - 1)
    return ordered[i] + (ordered[j] - ordered[i]) * (x - i)


class GcClock:
    """gc.callbacks hook: charges each collection, and its pause, to
    `owner` (None outside the timed blocks)."""

    def __init__(self):
        self.owner = None
        self.pause_ns: dict = {}
        self.collections: dict = {}
        self._t0 = 0

    def __call__(self, phase, info):
        if phase == "start":
            self._t0 = perf_counter_ns()
            return
        o = self.owner
        self.collections[o] = self.collections.get(o, 0) + 1
        self.pause_ns[o] = (self.pause_ns.get(o, 0)
                            + perf_counter_ns() - self._t0)

    def reset(self):
        self.pause_ns.clear()
        self.collections.clear()

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self)


def _block(tree, kinds, keys, lo, hi, lat, out) -> int:
    calls = (tree.insert, tree.delete, tree.search)
    ns = perf_counter_ns
    note = lat.append
    keep = out.append
    start = ns()
    for kind, key in zip(kinds[lo:hi], keys[lo:hi]):
        call = calls[kind]
        t0 = ns()
        r = call(key)
        note(ns() - t0)
        keep(r)
    return ns() - start


def _traced_block(tree, kinds, keys, lo, hi, spans, ids, out) -> int:
    # ids: (block span name, insert, delete, search span names) as ids.
    calls = (tree.insert, tree.delete, tree.search)
    ns = perf_counter_ns
    add = spans.add
    keep = out.append
    block = spans.open(ids[0])
    for kind, key in zip(kinds[lo:hi], keys[lo:hi]):
        call = calls[kind]
        t0 = ns()
        r = call(key)
        add(ids[kind + 1], t0, ns())
        keep(r)
    spans.close()
    return spans.end[block] - spans.start[block]


def run_phase(phase: Phase, trees: dict, clock: GcClock, lat: dict = None,
              spans=None, ref=None) -> tuple[dict, dict, list]:
    """Run one phase on every tree. Returns the busy ns of each block and
    the results, per variant, and the reference's ns per search after
    each round of blocks (with `ref`).

    Each call's latency goes to lat[v], one array per block; with `spans`,
    each call is recorded as a span instead."""
    names = list(trees)
    refs = []
    busy = {v: [] for v in names}
    results = {v: [] for v in names}
    kinds, keys = phase.kinds, phase.keys
    ids = None
    if spans is not None:
        ids = {v: [spans.id(f"{v}.{n}") for n in
                   ("block", "insert", "delete", "search")] for v in names}
    for r, lo in enumerate(range(0, len(keys), BLOCK)):
        hi = min(lo + BLOCK, len(keys))
        for i in range(len(names)):
            v = names[(r + i) % len(names)]
            clock.owner = v
            if spans is None:
                samples = array("q")
                busy[v].append(_block(trees[v], kinds, keys, lo, hi,
                                      samples, results[v]))
                if lat is not None:
                    lat[v].append(samples)
            else:
                busy[v].append(_traced_block(trees[v], kinds, keys, lo, hi,
                                             spans, ids[v], results[v]))
        clock.owner = None
        if ref is not None:
            refs.append(ref())
    return busy, results, refs


def mismatches(phase: Phase, results: list) -> int:
    """Ops whose return value disagrees with the oracle's expectation."""
    bad = 0
    for kind, key, want, got in zip(phase.kinds, phase.keys,
                                    phase.expected, results):
        if kind == INSERT:
            ok = got is not None and got.key == key
        elif kind == DELETE:
            ok = got is want
        else:
            ok = (got is not None) == want and (got is None or got.key == key)
        bad += not ok
    return bad


class Tally:
    """Ops attempted and failed across the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def fail(self, what: str, count: int = 1):
        self.failed += count
        print(f"check failed: {what}", file=sys.stderr)


class Epochs:
    """Replays a workload's phases on its trees and checks every result."""

    def __init__(self, trees: dict, phases: list[Phase], clock: GcClock,
                 tally: Tally, ref=None):
        self.trees = trees
        self.phases = phases
        self.clock = clock
        self.tally = tally
        self.ref = ref      # reference search timer, or None: no ref units
        self.ops = sum(len(p.keys) for p in phases)    # per variant
        self.busy: list[dict] = []      # busy ns per variant, per epoch
        self.refs: list[float] = []     # every reference timing, ns/search
        # (phase, block, variant) -> one (busy, p50, p99) per plain epoch,
        # each in reference units.
        self.reps: dict = {}

    def run(self, sink_factory=None, spans=None) -> dict:
        """One epoch; returns busy ns per variant over all phases. A plain
        epoch (no sink, no spans) also records its blocks in `reps`."""
        plain = sink_factory is None and spans is None
        ref = self.ref if plain else None
        total = dict.fromkeys(self.trees, 0)
        for p, phase in enumerate(self.phases):
            if sink_factory is not None:
                for t in self.trees.values():
                    t.sink = sink_factory()
            lat = {v: [] for v in self.trees} if ref is not None else None
            busy, results, refs = run_phase(phase, self.trees, self.clock,
                                            lat, spans, ref)
            self.refs += refs
            for v, t in self.trees.items():
                t.sink = None
                total[v] += sum(busy[v])
                self.tally.attempted += len(phase.keys)
                bad = mismatches(phase, results[v])
                if bad:
                    self.tally.fail(f"{v} {phase.name}: {bad} wrong results",
                                    bad)
                for b, (ns, r) in enumerate(zip(busy[v], refs)):
                    ordered = sorted(lat[v][b])
                    self.reps.setdefault((p, b, v), []).append(
                        (ns / r, percentile(ordered, 0.50) / r,
                         percentile(ordered, 0.99) / r))
        return total

    def in_ref_units(self) -> dict:
        """Per variant, in reference searches: the busy time of one epoch,
        and the p50 and p99 call latency of a block. Each block's figures
        are the median over its repetitions; the busy times are summed
        over the blocks and the percentiles averaged."""
        rows = {v: [] for v in self.trees}
        for (_, _, v), reps in self.reps.items():
            rows[v].append([statistics.median(x) for x in zip(*reps)])
        return {v: (sum(r[0] for r in rs),
                    statistics.fmean(r[1] for r in rs),
                    statistics.fmean(r[2] for r in rs))
                for v, rs in rows.items()}

    def warm_up(self):
        """One checked epoch whose timings are dropped: the heap grows to
        its working size here, so later inserts do not fault in pages."""
        self.run()
        self.busy.clear()
        self.refs.clear()
        self.reps.clear()
