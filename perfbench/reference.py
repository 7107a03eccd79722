"""The reference workload that every timed end-to-end metric is divided by.

A plain, unbalanced binary search tree of REF_N random keys, built once
from a fixed seed and never changed. One reference unit (`ref`) is the mean
time of one search for one of its keys, timed right beside the blocks it
normalises. The tree belongs to the benchmark, not to wbtree, so no change
to wbtree moves it; a change in the host's speed moves it as it moves the
trees, because both chase pointers through about 10^5 Python objects.
"""

from __future__ import annotations

import random
from time import perf_counter_ns

REF_N = 100_000         # keys in the reference tree, as many as the base trees
REF_SEARCHES = 2_000    # searches per timing, about 2-4 ms
REF_SEED = 20191017     # fixed: the reference is the same for every --seed


class _Node:
    __slots__ = ("key", "left", "right")

    def __init__(self, key: int):
        self.key = key
        self.left = None
        self.right = None


class Reference:
    """Call it to time REF_SEARCHES searches; returns ns per search."""

    def __init__(self, n: int = REF_N, searches: int = REF_SEARCHES):
        rng = random.Random(REF_SEED)
        keys = [rng.getrandbits(60) for _ in range(n)]
        self.root = root = _Node(keys[0])
        for k in keys[1:]:
            node = root
            while True:
                side = "left" if k < node.key else "right"
                child = getattr(node, side)
                if child is None:
                    setattr(node, side, _Node(k))
                    break
                node = child
        self.probe = [keys[rng.randrange(n)] for _ in range(searches)]

    def __call__(self) -> float:
        root = self.root
        t0 = perf_counter_ns()
        for k in self.probe:
            node = root
            while node.key != k:
                node = node.left if k < node.key else node.right
        return (perf_counter_ns() - t0) / len(self.probe)
