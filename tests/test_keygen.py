import math

import pytest
from hypothesis import given, strategies as st

from wbtree import keygen
from wbtree.keygen import (
    STREAM_BASE,
    STREAM_FRESH,
    ZIPF_TABLE_MAX_UNIVERSE,
    SplitMix64,
    derive_seed,
    fresh_keys,
    gen_presorted,
    gen_skewed,
    gen_uniform,
    gen_zipf,
    generate,
    mix64,
)


def test_generator_matches_published_reference_vector():
    # First three outputs for seed 0, as published with the reference
    # implementation of splitmix64.
    r = SplitMix64(0)
    assert [r.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_mix64_is_the_output_stage():
    assert mix64(0) == 0xE220A8397B1DCDAF
    assert mix64(1) == 0x910A2DEC89025CC1


def test_streams_are_deterministic():
    a = SplitMix64(12345)
    b = SplitMix64(12345)
    assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]


def test_below_bounds_and_golden():
    r = SplitMix64(42)
    vals = [r.below(10) for _ in range(8)]
    assert vals == [3, 1, 8, 4, 0, 2, 5, 8]
    assert all(0 <= v < 10 for v in vals)
    with pytest.raises(ValueError):
        r.below(0)


def test_below_handles_tiny_and_huge_bounds():
    r = SplitMix64(3)
    assert all(r.below(1) == 0 for _ in range(5))
    big = 1 << 63
    assert 0 <= r.below(big) < big


class CappedSplitMix64(SplitMix64):
    """Fails after `left` draws instead of letting below() redraw forever."""

    __slots__ = ("left",)

    def next_u64(self):
        self.left -= 1
        if self.left < 0:
            raise RuntimeError("below() kept redrawing")
        return super().next_u64()


def test_below_rejects_bounds_above_two_to_the_64():
    r = CappedSplitMix64(5)
    r.left = 1000
    for bound in ((1 << 64) + 1, 10 ** 23, -1):
        with pytest.raises(ValueError):
            r.below(bound)
    assert r.left == 1000  # a rejected bound draws nothing
    # At 2**64 every draw is accepted and returned as it is.
    assert r.below(1 << 64) == SplitMix64(5).next_u64()


def test_float01_range_and_golden():
    r = SplitMix64(42)
    vals = [r.float01() for _ in range(4)]
    assert vals == pytest.approx(
        [0.7415648787718233, 0.1599103928769201,
         0.27860113025513866, 0.34419071652363753])
    assert all(0.0 <= v < 1.0 for v in vals)


def test_shuffle_is_a_seeded_permutation():
    xs = list(range(10))
    SplitMix64(7).shuffle(xs)
    assert xs == [8, 1, 5, 9, 0, 4, 3, 2, 6, 7]
    assert sorted(xs) == list(range(10))


def test_derive_seed_separates_streams():
    assert derive_seed(1, 5, 0, STREAM_BASE) != derive_seed(1, 5, 0, STREAM_FRESH)
    assert derive_seed(1, 5, 0, STREAM_BASE) == derive_seed(1, 5, 0, STREAM_BASE)
    assert derive_seed(1, 5, 0, 1) != derive_seed(2, 5, 0, 1)
    # pinned so workload files stay stable across releases
    assert derive_seed(1, 5, 0, 1) == 8984915011908676185


def test_uniform_golden_and_bounds():
    w = gen_uniform(6, 1000, 5)
    assert w.keys == [618, 344, 63, 709, 461, 436]
    assert w.dist == "uniform" and w.n == 6 and w.universe == 1000


def test_uniform_statistics():
    n = 50_000
    u = 1 << 40
    keys = gen_uniform(n, u, 11).keys
    assert all(0 <= k < u for k in keys)
    mean = sum(keys) / n
    # 3 standard errors of the mean for a uniform variable
    tol = 3 * u / math.sqrt(12 * n)
    assert abs(mean - u / 2) < tol


def test_uniform_rejects_bad_args():
    with pytest.raises(ValueError):
        gen_uniform(5, 0, 1)
    with pytest.raises(ValueError):
        gen_uniform(-1, 10, 1)


def test_zipf_golden_small():
    assert gen_zipf(6, 100, 5).keys == [3, 27, 1, 0, 0, 3]


def test_zipf_table_is_the_running_sum_from_zero():
    # The packed table holds exactly the sums of adding r**-s one rank at a
    # time from 0.0, so every rank drawn against it stays the same.
    for u, s in ((1, 1.0), (1000, 1.0), (1000, 1.25), (5000, 2.0)):
        want, total = [], 0.0
        for r in range(1, u + 1):
            total += r ** (-s)
            want.append(total)
        assert keygen._zipf_cumulative(u, s).tolist() == want


def test_zipf_table_path_rank_one_frequency():
    u = 10_000
    n = 200_000
    keys = gen_zipf(n, u, 2).keys
    assert all(0 <= k < u for k in keys)
    h = sum(1.0 / k for k in range(1, u + 1))
    want = 1.0 / h
    got = keys.count(0) / n
    assert got == pytest.approx(want, rel=0.05)


def test_zipf_table_path_heavier_s_concentrates_more():
    u = 1000
    a = gen_zipf(50_000, u, 3, s=1.0).keys
    b = gen_zipf(50_000, u, 3, s=2.0).keys
    assert b.count(0) > a.count(0)


def test_zipf_rejection_path_rank_one_frequency():
    u = 10 ** 8
    assert u > ZIPF_TABLE_MAX_UNIVERSE
    n = 60_000
    keys = gen_zipf(n, u, 4).keys
    assert all(0 <= k < u for k in keys)
    h = math.log(u) + 0.5772156649  # Euler-Mascheroni approximation
    got = keys.count(0) / n
    assert got == pytest.approx(1.0 / h, rel=0.08)


def test_zipf_rejection_path_s_not_one():
    u = 2 * 10 ** 7
    n = 30_000
    keys = gen_zipf(n, u, 4, s=1.5).keys
    assert all(0 <= k < u for k in keys)
    # zeta(1.5) ~ 2.612; truncation at u barely matters
    got = keys.count(0) / n
    assert got == pytest.approx(1 / 2.612, rel=0.08)


def test_zipf_rejects_bad_s():
    with pytest.raises(ValueError):
        gen_zipf(5, 100, 1, s=0)


def test_skewed_golden_and_windows():
    w = gen_skewed(9, 1000, 5)
    assert w.keys == [618, 194, 763, 709, 211, 736, 609, 165, 780]
    for i, k in enumerate(w.keys):
        if i % 3 == 1:
            assert 150 <= k < 250
        elif i % 3 == 2:
            assert 700 <= k < 800
        else:
            assert 0 <= k < 1000


def test_skewed_needs_room_for_windows():
    with pytest.raises(ValueError):
        gen_skewed(5, 9, 1)


def test_skewed_statistics():
    n = 30_000
    keys = gen_skewed(n, 10 ** 6, 7).keys
    in_low = sum(1 for k in keys if 150_000 <= k < 250_000)
    # every third key lands there on purpose, plus a tenth of the
    # full-range third spilling in uniformly
    want = n / 3 + (n / 3) * 0.1
    assert in_low == pytest.approx(want, rel=0.05)


def test_presorted_golden_and_shape():
    w = gen_presorted(8, 5)
    assert w.keys == [6, 1, 2, 3, 4, 5, 7, 0]
    assert sorted(w.keys) == list(range(8))
    assert w.universe == 8


def test_presorted_scrambles_about_half():
    n = 1000
    keys = gen_presorted(n, 3).keys
    assert sorted(keys) == list(range(n))
    displaced = sum(1 for i, k in enumerate(keys) if i != k)
    # floor(n/2) positions are rewritten; a few may land back in place
    assert displaced <= n // 2
    assert displaced > n // 4


def test_presorted_zero_and_one():
    assert gen_presorted(0, 1).keys == []
    assert gen_presorted(1, 1).keys == [0]


def test_generate_dispatch_and_unknown():
    assert generate("uniform", 4, 100, 1).keys == gen_uniform(4, 100, 1).keys
    assert generate("presorted", 4, 999, 1).keys == gen_presorted(4, 1).keys
    with pytest.raises(ValueError):
        generate("gaussian", 4, 100, 1)


def test_fresh_keys_presorted_falls_back_to_uniform():
    ks = fresh_keys("presorted", 5, 50, 9)
    assert ks == gen_uniform(5, 50, 9).keys


def dump_workload(w) -> str:
    """A workload as text: a header line, then one key per line. C9
    compares these bytes across runs; nothing loads them back."""
    head = (f"# dist={w.dist} n={w.n} U={w.universe} "
            f"seed={w.seed} s={w.s:g}")
    body = "\n".join(str(k) for k in w.keys)
    return head + ("\n" + body if body else "") + "\n"


def test_dump_load_round_trip():
    # Nothing loads a dump; it is the exact text determinism checks compare.
    w = gen_zipf(10, 500, 13, s=1.25)
    assert dump_workload(w) == (
        "# dist=zipf n=10 U=500 seed=13 s=1.25\n"
        + "".join(f"{k}\n" for k in w.keys))


def test_dump_empty_workload():
    w = gen_uniform(0, 10, 1)
    assert dump_workload(w) == "# dist=uniform n=0 U=10 seed=1 s=0\n"


@given(st.integers(0, 2 ** 64 - 1), st.integers(2, 1000))
def test_below_always_in_range(seed, bound):
    r = SplitMix64(seed)
    for _ in range(5):
        assert 0 <= r.below(bound) < bound


@given(st.integers(0, 2 ** 64 - 1))
def test_float01_always_in_unit_interval(seed):
    r = SplitMix64(seed)
    for _ in range(5):
        v = r.float01()
        assert 0.0 <= v < 1.0
