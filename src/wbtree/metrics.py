"""Counters, derived measurements, and timing summaries.

A tree with sink=None records nothing and pays nothing. Counting balance
violations is a full O(n) traversal by design; harnesses sample it at
intervals instead of maintaining it incrementally.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields

from .core import NIL, Tree


class MetricsSink:
    """Rotation and node-touch counters shared by all tree variants.

    Every rotation is booked singly with its pivot's pre-rotation weight,
    so a double rotation counts as two, inner pivot first.
    """

    __slots__ = ("rotation_count", "rotated_weight_total", "touch_count")

    def __init__(self):
        self.rotation_count = 0
        self.rotated_weight_total = 0
        self.touch_count = 0

    def record_rotation(self, pivot_weight: int):
        self.rotation_count += 1
        self.rotated_weight_total += pivot_weight


@dataclass
class MetricsRecord:
    """One result row; its field order is the CSV column order. Fields not
    meaningful for an experiment stay empty."""

    experiment: str
    variant: str
    params: str
    dist: str = ""
    universe: int = 0
    zipf_s: float = 0.0
    base_size: int = 0
    op: str = ""
    rep: int = 0
    seed: int = 0
    op_index: int = 0
    ops: int = 0
    elapsed_ns: float = 0.0
    elapsed_ns_std: float = 0.0
    rotation_count: int = 0
    rotated_weight_total: int = 0
    violation_count: int = -1
    avg_depth: float = -1.0
    normalized_elapsed: float = -1.0

    def to_row(self) -> list[str]:
        return [str(v) for v in astuple(self)]


# Fixed CSV column order; every row carries its full configuration.
CSV_COLUMNS = [f.name for f in fields(MetricsRecord)]


def count_violations(tree: Tree) -> int:
    """Nodes violating the tree's own balance inequalities. Full traversal."""
    dn = tree.params.dn
    dd = tree.params.dd
    root = tree.root
    if root is NIL:
        return 0
    bad = 0
    # Depth first: each node reads both children's weights, and the next
    # pop visits one of them while it is still in cache. A level-order
    # loop, which visits them much later, measured about 25% slower on
    # 10^5-node trees.
    stack = [root]
    pop = stack.pop
    push = stack.append
    while stack:
        v = pop()
        l = v.left
        r = v.right
        # NIL's weight is 1, but it is read only off real nodes: NIL is not
        # a Node, and one weight read serving both measured about 30%
        # slower here.
        wl = wr = 1
        if l is not NIL:
            wl = l.weight
            push(l)
        if r is not NIL:
            wr = r.weight
            push(r)
        # Delta >= 1, so only the lighter side can be out of balance.
        if wl < wr:
            if wl * dn < wr * dd:
                bad += 1
        elif wr * dn < wl * dd:
            bad += 1
    return bad


def _level_sizes(tree) -> list[int]:
    """Node count at each depth, root first; [] for an empty tree."""
    level = [tree.root] if tree.root is not NIL else []
    sizes = []
    while level:
        sizes.append(len(level))
        below = [v.left for v in level if v.left is not NIL]
        below += [v.right for v in level if v.right is not NIL]
        level = below
    return sizes


def average_depth(tree) -> float:
    """Mean node depth with the root at depth 0. Empty tree: 0.0."""
    sizes = _level_sizes(tree)
    if not sizes:
        return 0.0
    return sum(d * n for d, n in enumerate(sizes)) / sum(sizes)


def max_depth(tree) -> int:
    """Deepest node's depth, root at 0. Empty tree: -1."""
    return len(_level_sizes(tree)) - 1


def summarize_ns(durations: list[int], ops: int) -> tuple[float, float]:
    """Per-op mean and population standard deviation across repetitions."""
    if not durations or ops <= 0:
        return 0.0, 0.0
    per_op = [d / ops for d in durations]
    mean = sum(per_op) / len(per_op)
    var = sum((x - mean) ** 2 for x in per_op) / len(per_op)
    return mean, math.sqrt(var)
