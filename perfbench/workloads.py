"""Workload inputs, made from the seed alone.

A workload is a list of base keys, from which each variant builds its base
tree, and one or more phases. A phase is an op stream followed by its
inverse, so it leaves the tree holding the base keys again and can be
replayed on the same trees as often as the measuring window allows.
SortedMultisetOracle precomputes every op's expected result.
"""

from __future__ import annotations

from dataclasses import dataclass

from wbtree.keygen import (STREAM_BASE, STREAM_CHURN, STREAM_FRESH,
                           STREAM_OPMIX, STREAM_VICTIM, SplitMix64,
                           derive_seed, fresh_keys, generate)
from wbtree.oracle import SortedMultisetOracle

WORKLOADS = ("churn-uniform", "zipf-read", "harness-cli")

N = 100_000             # base tree size on every workload
WIDE = 2 ** 60          # uniform key universe (the harness default)
ZIPF_U = 10 ** 6        # zipf universe (the harness default)
ZIPF_S = 1.0
CHURN_PAIRS = 12_500    # delete/insert pairs per churn-uniform phase
ZIPF_OPS = 75_000       # ops per zipf-read phase, before the inverse

INSERT, DELETE, SEARCH = 0, 1, 2

Stream = tuple[str, list, list]  # (name, kinds, keys)


@dataclass
class Phase:
    name: str
    kinds: list[int]
    keys: list[int]
    expected: list[bool]    # delete: found it; search: hit; insert: True
    forward: int            # ops before the inverse starts
    final_keys: list[int]   # sorted contents once the phase has run


def dist_of(workload: str) -> str:
    return "zipf" if workload == "zipf-read" else "uniform"


def base_keys(workload: str, seed: int, n: int = N) -> list[int]:
    """The keys the harness itself would build its first base tree from."""
    s = derive_seed(seed, n, 0, STREAM_BASE)
    if dist_of(workload) == "zipf":
        return generate("zipf", n, ZIPF_U, s, ZIPF_S).keys
    return generate("uniform", n, WIDE, s).keys


def _step(oracle: SortedMultisetOracle, kind: int, key) -> bool:
    if kind == SEARCH:
        return key in oracle
    if kind == DELETE:
        return oracle.remove(key)
    oracle.insert(key)
    return True


def round_trip(name: str, base: list[int], kinds: list[int],
               keys: list[int]) -> Phase:
    """The stream, then its inverse in reverse order, through the oracle.

    In the inverse a search repeats, an insert becomes a delete, a delete
    that found its key becomes an insert, and a delete that missed repeats
    and misses again. The op mix of the stream is kept."""
    oracle = SortedMultisetOracle(base)
    expected = []
    undo = []
    for kind, key in zip(kinds, keys):
        found = _step(oracle, kind, key)
        expected.append(found)
        undo.append(DELETE if kind == INSERT
                    else INSERT if kind == DELETE and found else kind)
    undo.reverse()
    back = keys[::-1]
    for kind, key in zip(undo, back):
        expected.append(_step(oracle, kind, key))
    return Phase(name, kinds + undo, keys + back, expected, len(kinds),
                 oracle.keys())


def churn_stream(base: list[int], seed: int, pairs: int) -> Stream:
    """Delete a uniform victim from the contents, insert a fresh key."""
    n = len(base)
    fresh = fresh_keys("uniform", pairs, WIDE,
                       derive_seed(seed, n, 0, STREAM_CHURN))
    below = SplitMix64(derive_seed(seed, n, 0, STREAM_VICTIM)).below
    contents = list(base)
    kinds, keys = [], []
    for k in fresh:
        j = below(len(contents))
        kinds += (DELETE, INSERT)
        keys += (contents[j], k)
        contents[j] = contents[-1]
        contents[-1] = k
    return "churn", kinds, keys


def zipf_stream(seed: int, n: int, ops: int) -> Stream:
    """90% search, 5% insert, 5% delete; keys from the base's zipf law."""
    keys = fresh_keys("zipf", ops, ZIPF_U,
                      derive_seed(seed, n, 0, STREAM_CHURN), ZIPF_S)
    below = SplitMix64(derive_seed(seed, n, 0, STREAM_OPMIX)).below
    kinds = []
    for _ in range(ops):
        u = below(100)
        kinds.append(SEARCH if u < 90 else INSERT if u < 95 else DELETE)
    return "zipf-mix", kinds, keys


def harness_streams(base: list[int], seed: int) -> list[Stream]:
    """The op streams `insert-pct` and `erase-pct` time on base tree 0:
    ceil(5%) fresh keys, and ceil(5%) victims drawn without replacement."""
    n = len(base)
    m = -(-n // 20)
    fresh = fresh_keys("uniform", m, WIDE,
                       derive_seed(seed, n, 0, STREAM_FRESH))
    below = SplitMix64(derive_seed(seed, n, 0, STREAM_VICTIM)).below
    pool = list(base)
    victims = []
    for _ in range(m):
        i = below(len(pool))
        victims.append(pool[i])
        pool[i] = pool[-1]
        pool.pop()
    return [("insert-pct", [INSERT] * m, fresh),
            ("erase-pct", [DELETE] * m, victims)]


def streams_for(workload: str, base: list[int], seed: int,
                scale: int = 1) -> list[Stream]:
    """Op streams of a workload; `scale` divides their lengths (tests)."""
    if workload == "churn-uniform":
        return [churn_stream(base, seed, CHURN_PAIRS // scale)]
    if workload == "zipf-read":
        return [zipf_stream(seed, len(base), ZIPF_OPS // scale)]
    return harness_streams(base, seed)
