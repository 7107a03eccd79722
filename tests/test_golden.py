"""Golden identity of the two weight-balanced schemes and the red-black
baseline.

A run is 600 seeded ops (55% inserts, the rest deletes, so duplicates and
absent keys occur) over one key universe, then deletes of every other
distinct key inserted. For the weight-balanced trees one sha256 covers, for
every run, the final `dump` (tests/test_core.py), the sink's `rotation_count`
and `rotated_weight_total`, and the return value of every delete. For the
red-black tree a second one covers the final shape, its colours in pre-order,
the size, both rotation counters, every delete result and whether each key
below min(universe, 300) is found. A change to a hot loop that alters no
shape, weight, colour, rotation or delete result leaves the digests as they
are; anything else moves them.

A third digest covers the harness: every row (less its timing columns) and
every final shape of the five grid experiments and of a mixed replay, over
all 11 variants with the audit on, at toy sizes and no time floor.
"""

import hashlib
import random

from wbtree.bench import (
    DISTS,
    RUNNERS,
    ExperimentSpec,
    expand_variants,
    run_replay,
)
from wbtree.bottom_up import BottomUpTree
from wbtree.core import NIL, structure_string
from wbtree.metrics import CSV_COLUMNS, MetricsSink
from wbtree.params import params_from_name
from wbtree.redblack import RedBlackTree
from wbtree.top_down import TopDownTree

from test_bench import run_with_shapes
from test_core import dump

SCHEMES = {"top_down": TopDownTree, "bottom_up": BottomUpTree}
PARAMS = ("classic", "integral", "topdown", "tight", "overtight",
          "custom:5/2:7/5", "custom:4/1:2/1", "custom:3/2:1/1")
UNIVERSES = (30, 300, 100_000)
SEEDS = (1, 2, 3, 4, 5, 6)
OPS = 600
INSERT_SHARE = 0.55

GOLDEN = "4b9d8fa64ce194ad5e86d34d32c80a7e9700198eed3f46db75e516f121145542"
GOLDEN_REDBLACK = (
    "6f298d5e5f6e5049acbc1386d4d58516b8b79c43b3d100702415c2ad676076e8")
GOLDEN_HARNESS = (
    "a79e12a11679e302a8928ef10895a5bd5b01a94c81dc4000127e435974b3f081")

# Columns that hold wall-clock time; every other column is deterministic.
TIMING_COLUMNS = ("elapsed_ns", "elapsed_ns_std", "normalized_elapsed")


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
    return (f"{dump(t)}\n{sink.rotation_count} {sink.rotated_weight_total}"
            f"\n{returns}\n")


def colours(t) -> str:
    """R/B for each node of t in pre-order."""
    out = []
    stack = [t.root]
    while stack:
        v = stack.pop()
        if v is not NIL:
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


def harness_text(run, spec, *args) -> str:
    res, shapes = run_with_shapes(run, spec, *args)
    keep = [i for i, c in enumerate(CSV_COLUMNS) if c not in TIMING_COLUMNS]
    rows = "".join(",".join(r.to_row()[i] for i in keep) + "\n"
                   for r in res)
    shapes = "".join(f"{cell} {shape}\n" for cell, shape in shapes.items())
    return rows + shapes


def test_harness_rows_and_shapes_match_the_golden_digest():
    variants = expand_variants(["bottom_up", "top_down", "redblack"],
                               PARAMS[:5])
    assert len(variants) == 11
    rng = random.Random(9)
    replay_ops = [("i" if rng.random() < INSERT_SHARE else "d",
                   rng.randrange(60)) for _ in range(300)]
    h = hashlib.sha256()
    for dist in DISTS:
        for name, runner in RUNNERS.items():
            spec = ExperimentSpec(
                experiment=name, variants=variants, dist=dist,
                sizes=[30, 61], base_trees=2, seed=5, time_floor_ms=0,
                sample_interval=40, op_pairs=90, audit=True)
            h.update(f"{dist} {name}\n".encode())
            h.update(harness_text(runner, spec).encode())
    spec = ExperimentSpec(experiment="replay", variants=variants,
                          time_floor_ms=0, audit=True)
    h.update(b"replay\n")
    h.update(harness_text(run_replay, spec, replay_ops).encode())
    assert h.hexdigest() == GOLDEN_HARNESS
