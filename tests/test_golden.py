"""Golden identity of both weight-balanced schemes.

One sha256 covers, for every run, the final `core.dump`, the sink's
`rotation_count`, `rotated_weight_total` and `touch_count`, and the return
value of every delete. A run is 600 seeded ops (55% inserts, the rest
deletes, so duplicates and absent keys occur) over one key universe, then
deletes of every other distinct key inserted. A change to a hot loop that
alters no shape, weight, rotation, touch or delete result leaves the digest
as it is; anything else moves it.
"""

import hashlib
import random

from wbtree.bottom_up import BottomUpTree
from wbtree.core import dump
from wbtree.metrics import MetricsSink
from wbtree.params import params_from_name
from wbtree.top_down import TopDownTree

SCHEMES = {"top_down": TopDownTree, "bottom_up": BottomUpTree}
PARAMS = ("classic", "integral", "topdown", "tight", "overtight",
          "custom:5/2:7/5", "custom:4/1:2/1", "custom:3/2:1/1")
UNIVERSES = (30, 300, 100_000)
SEEDS = (1, 2, 3, 4, 5, 6)
OPS = 600
INSERT_SHARE = 0.55

GOLDEN = "32c6250aa671176971370ae14a708c2793ad6d5a346120d97aaf73ce9e68a298"


def run(cls, name, universe, seed) -> str:
    sink = MetricsSink()
    t = cls(params_from_name(name), sink=sink)
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
    return (f"{dump(t)}\n{sink.rotation_count} {sink.rotated_weight_total} "
            f"{sink.touch_count}\n{''.join('TF'[not r] for r in returns)}\n")


def test_shapes_counters_and_delete_returns_match_the_golden_digest():
    h = hashlib.sha256()
    for scheme, cls in SCHEMES.items():
        for name in PARAMS:
            for universe in UNIVERSES:
                for seed in SEEDS:
                    h.update(f"{scheme} {name} {universe} {seed}\n".encode())
                    h.update(run(cls, name, universe, seed).encode())
    assert h.hexdigest() == GOLDEN
