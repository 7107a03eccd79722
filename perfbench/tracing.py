"""Spans, wrappers around wbtree's public functions, and the counting pass.

Every span is recorded from the benchmark's side of a call into a layer:
nothing under src/ is edited. Spans live in flat arrays while the run goes
on and are written out once, when it ends.
"""

from __future__ import annotations

import functools
import os
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

from wbtree import bench, cli
from wbtree.core import Tree
from wbtree.metrics import MetricsSink, average_depth, max_depth
from wbtree.redblack import RedBlackTree


class Spans:
    """In-memory spans: name, start, end and the span that was open."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._open: list[int] = []

    def id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def open(self, name_id: int) -> int:
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._open[-1] if self._open else -1)
        self.start.append(perf_counter_ns())
        self.end.append(0)
        self._open.append(i)
        return i

    def close(self):
        self.end[self._open.pop()] = perf_counter_ns()

    def add(self, name_id: int, t0: int, t1: int):
        """A finished span under the one now open."""
        self.name.append(name_id)
        self.parent.append(self._open[-1] if self._open else -1)
        self.start.append(t0)
        self.end.append(t1)

    def durations_by_name(self) -> dict[str, list[int]]:
        out: dict[str, list[int]] = {}
        names = self.names
        for n, s, e in zip(self.name, self.start, self.end):
            out.setdefault(names[n], []).append(e - s)
        return out

    def self_ns(self) -> dict[str, int]:
        """Per name: time inside its spans not covered by child spans."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for j, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[j] - self.start[j]
        out: dict[str, int] = {}
        for j, n in enumerate(self.name):
            name = self.names[n]
            out[name] = out.get(name, 0) + own[j]
        return out

    def write(self, path: str):
        """Tab-separated: index, parent index, name, start ns, end ns."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        names = self.names
        with open(path, "w", encoding="utf-8") as f:
            f.write("span\tparent\tname\tstart_ns\tend_ns\n")
            f.writelines(
                f"{j}\t{p}\t{names[n]}\t{s}\t{e}\n" for j, (n, p, s, e) in
                enumerate(zip(self.name, self.parent, self.start, self.end)))


def _wrap(fn, name_id: int, spans: Spans):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        spans.open(name_id)
        try:
            return fn(*args, **kwargs)
        finally:
            spans.close()
    return traced


# Span name -> the (owner, attribute) references the harness calls it by.
# bench looks each one up at call time, so replacing the attribute from
# outside puts a span around every call the harness makes.
HARNESS_TARGETS = {
    "cli.main": [(cli, "main")],
    "bench.build": [(bench, "_build")],
    "bench.clone": [(Tree, "clone"), (RedBlackTree, "clone")],
    "bench.audit": [(bench, "audit_structure"), (bench, "audit_balance"),
                    (bench, "rb_audit")],
    "bench.scan": [(bench, "count_violations"), (bench, "average_depth")],
    "bench.shape": [(bench, "tree_shape")],
    "bench.emit": [(cli, "emit_results")],
}


@contextmanager
def harness_traced(spans: Spans):
    """Wrap the harness's references for the duration of the block.

    Yields the span names that could be installed: a reference a later
    version of wbtree no longer has is skipped, and its metric dropped."""
    saved = []
    installed = []
    try:
        for name, refs in HARNESS_TARGETS.items():
            nid = spans.id(name)
            for owner, attr in refs:
                fn = getattr(owner, attr, None)
                if fn is None:
                    continue
                saved.append((owner, attr, fn))
                setattr(owner, attr, _wrap(fn, nid, spans))
                if name not in installed:
                    installed.append(name)
        reps = getattr(bench, "_timed_reps", None)
        if reps is not None:
            # The timed window is a closure handed to _timed_reps; wrap it
            # on its way in.
            nid = spans.id("bench.timed")

            def timed_reps(spec, base_tree, phase):
                return reps(spec, base_tree, _wrap(phase, nid, spans))

            saved.append((bench, "_timed_reps", reps))
            bench._timed_reps = timed_reps
            installed.append("bench.timed")
        yield installed
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def counting_key_type():
    """A fresh key class; every comparison it takes part in adds to its
    class attribute `count`, exactly once."""

    class Key:
        __slots__ = ("k",)
        count = 0

        def __init__(self, k):
            self.k = k

        def __lt__(self, o):
            Key.count += 1
            return self.k < (o.k if type(o) is Key else o)

        def __le__(self, o):
            Key.count += 1
            return self.k <= (o.k if type(o) is Key else o)

        def __gt__(self, o):
            Key.count += 1
            return self.k > (o.k if type(o) is Key else o)

        def __ge__(self, o):
            Key.count += 1
            return self.k >= (o.k if type(o) is Key else o)

        def __eq__(self, o):
            Key.count += 1
            return self.k == (o.k if type(o) is Key else o)

    return Key


def counting_pass(bases: dict, phases: list) -> dict[str, dict[str, float]]:
    """Untimed replay of every phase, on a clone of each base tree, with a
    MetricsSink attached and keys that count their comparisons. The counts
    depend only on the seed."""
    out = {}
    for v, base in bases.items():
        Key = counting_key_type()
        sink = MetricsSink()
        t = base.clone()
        t.sink = sink
        calls = (t.insert, t.delete, t.search)
        ops = 0
        for phase in phases:
            for kind, key in zip(phase.kinds, phase.keys):
                calls[kind](Key(key))
            ops += len(phase.keys)
        t.sink = None
        row = {
            "rotations_per_op": sink.rotation_count / ops,
            "rotated_weight_per_op": sink.rotated_weight_total / ops,
            "compares_per_op": Key.count / ops,
            "avg_depth": average_depth(t),
            "max_depth": max_depth(t),
        }
        if not isinstance(t, RedBlackTree):
            # The red-black tree keeps no touch counter.
            row["touches_per_op"] = sink.touch_count / ops
        out[v] = row
    return out
