"""Golden identity of the two weight-balanced schemes and the red-black
baseline.

A run is 600 seeded ops (55% inserts, the rest deletes, so duplicates and
absent keys occur) over one key universe, then deletes of every other
distinct key inserted. For the weight-balanced trees one sha256 covers, for
every run, the final `core.dump`, the sink's `rotation_count`,
`rotated_weight_total` and `touch_count`, and the return value of every
delete. For the red-black tree a second one covers the final shape, its
colours in pre-order, the size, both rotation counters, every delete result
and whether each key below min(universe, 300) is found. A change to a hot
loop that alters no shape, weight, colour, rotation, touch or delete result
leaves the digests as they are; anything else moves them.
"""

import hashlib
import random

from wbtree.bottom_up import BottomUpTree
from wbtree.core import dump, structure_string
from wbtree.metrics import MetricsSink
from wbtree.params import params_from_name
from wbtree.redblack import RedBlackTree
from wbtree.top_down import TopDownTree

SCHEMES = {"top_down": TopDownTree, "bottom_up": BottomUpTree}
PARAMS = ("classic", "integral", "topdown", "tight", "overtight",
          "custom:5/2:7/5", "custom:4/1:2/1", "custom:3/2:1/1")
UNIVERSES = (30, 300, 100_000)
SEEDS = (1, 2, 3, 4, 5, 6)
OPS = 600
INSERT_SHARE = 0.55

GOLDEN = "32c6250aa671176971370ae14a708c2793ad6d5a346120d97aaf73ce9e68a298"
GOLDEN_REDBLACK = (
    "d5c00f70d7c5264d70e86118ce1619a3062b7b779f35e2e829ffe90e76c62c7c")


def drive(t, universe, seed) -> str:
    """Run the seeded op stream on t; returns the delete results as T/F."""
    rng = random.Random(seed)
    inserted = set()
    returns = []
    for _ in range(OPS):
        k = rng.randrange(universe)
        if rng.random() < INSERT_SHARE:
            t.insert(k)
            inserted.add(k)
        else:
            returns.append(t.delete(k))
    for k in sorted(inserted)[::2]:
        returns.append(t.delete(k))
    return "".join("TF"[not r] for r in returns)


def run(cls, name, universe, seed) -> str:
    sink = MetricsSink()
    t = cls(params_from_name(name), sink=sink)
    returns = drive(t, universe, seed)
    return (f"{dump(t)}\n{sink.rotation_count} {sink.rotated_weight_total} "
            f"{sink.touch_count}\n{returns}\n")


def colours(t) -> str:
    """R/B for each node of t in pre-order."""
    out = []
    stack = [t.root]
    while stack:
        v = stack.pop()
        if v is not t.nil:
            out.append("R" if v.red else "B")
            stack.append(v.right)
            stack.append(v.left)
    return "".join(out)


def run_redblack(universe, seed) -> str:
    sink = MetricsSink()
    t = RedBlackTree(sink=sink)
    returns = drive(t, universe, seed)
    found = "".join("FT"[t.search(k) is not None]
                    for k in range(min(universe, 300)))
    return (f"{structure_string(t)}\n{colours(t)}\n{len(t)} "
            f"{sink.rotation_count} {sink.rotated_weight_total}\n"
            f"{returns}\n{found}\n")


def test_shapes_counters_and_delete_returns_match_the_golden_digest():
    h = hashlib.sha256()
    for scheme, cls in SCHEMES.items():
        for name in PARAMS:
            for universe in UNIVERSES:
                for seed in SEEDS:
                    h.update(f"{scheme} {name} {universe} {seed}\n".encode())
                    h.update(run(cls, name, universe, seed).encode())
    assert h.hexdigest() == GOLDEN


def test_redblack_shapes_colours_counters_and_results_match_the_golden_digest():
    h = hashlib.sha256()
    for universe in UNIVERSES:
        for seed in SEEDS:
            h.update(f"redblack {universe} {seed}\n".encode())
            h.update(run_redblack(universe, seed).encode())
    assert h.hexdigest() == GOLDEN_REDBLACK
