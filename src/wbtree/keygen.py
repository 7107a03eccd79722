"""Deterministic workload generation.

All randomness flows through splitmix64, a 64-bit counter-based generator
with a published public-domain reference implementation: state advances by
the golden-ratio increment 0x9E3779B97F4A7C15 and each output is a fixed
xor-shift-multiply mix of the state. It is pure integer arithmetic, so a
seed produces the same byte-for-byte stream on every platform and run.

Derived quantities are pinned down so streams stay reproducible:

* bounded draw below(n), 1 <= n <= 2**64: rejection over the top of the
  64-bit range (limit = 2**64 - (2**64 % n); redraw while u >= limit;
  return u % n), which is unbiased.
* unit double float01(): top 53 bits scaled by 2**-53.
* shuffles: Fisher-Yates from the top index down, j = below(i + 1).

Distributions:

* uniform: independent draws from [0, U).
* zipf: ranks 1..U with mass proportional to rank**-s, emitted as rank-1.
  Small universes (U <= 10**7) invert a cumulative table; larger ones use
  rejection against the continuous power-law envelope on [1, U+1).
* skewed: position i mod 3 == 0 draws from the full range, == 1 from the
  window [0.15U, 0.25U), == 2 from [0.70U, 0.80U); bounds use integer
  arithmetic (15 * U // 100 and so on) and need U >= 10.
* presorted: keys 0..n-1 with floor(n/2) positions chosen uniformly without
  replacement (partial Fisher-Yates over the index array) and the values at
  those positions uniformly permuted.
"""

from __future__ import annotations

import bisect
import itertools
import math
from array import array
from dataclasses import dataclass

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

ZIPF_TABLE_MAX_UNIVERSE = 10 ** 7

# Sub-stream purposes, folded into derived seeds.
STREAM_BASE = 1
STREAM_FRESH = 2
STREAM_CHURN = 3
STREAM_VICTIM = 4
STREAM_OPMIX = 5


class SplitMix64:
    """Counter-based 64-bit generator; see the module docstring."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = s = (self.state + _GOLDEN) & _MASK
        z = ((s ^ (s >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Unbiased draw from [0, bound), for bound in 1..2**64."""
        if not 0 < bound <= 1 << 64:
            # Above 2**64 the rejection limit is 0 and no draw is accepted.
            raise ValueError("bound must be in 1..2**64")
        limit = (1 << 64) - ((1 << 64) % bound)
        u = self.next_u64()
        while u >= limit:
            u = self.next_u64()
        return u % bound

    def float01(self) -> float:
        """Double in [0, 1) from the top 53 bits."""
        return (self.next_u64() >> 11) * 1.1102230246251565e-16  # 2**-53

    def shuffle(self, xs: list):
        below = self.below
        for i in range(len(xs) - 1, 0, -1):
            j = below(i + 1)
            xs[i], xs[j] = xs[j], xs[i]


def mix64(x: int) -> int:
    """The splitmix64 output stage as a standalone mixing function: the
    first output of a generator seeded with x."""
    return SplitMix64(x).next_u64()


def derive_seed(seed: int, *parts: int) -> int:
    """Deterministic sub-stream seed from a master seed and integer labels."""
    acc = mix64(seed & _MASK)
    for p in parts:
        acc = mix64(acc ^ (p & _MASK))
    return acc


@dataclass
class KeyWorkload:
    """A generated key sequence plus everything needed to regenerate it."""

    dist: str
    n: int
    universe: int
    seed: int
    s: float
    keys: list[int]


def gen_uniform(n: int, universe: int, seed: int) -> KeyWorkload:
    if universe < 1:
        raise ValueError("universe must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    rng = SplitMix64(seed)
    below = rng.below
    keys = [below(universe) for _ in range(n)]
    return KeyWorkload("uniform", n, universe, seed, 0.0, keys)


def _zipf_cumulative(universe: int, s: float) -> array:
    # Packed doubles take a quarter of a float list's memory; the sums are
    # the same as adding r**-s rank by rank from 0.0.
    powers = map(pow, range(1, universe + 1), itertools.repeat(-s))
    return array("d", itertools.accumulate(powers))


_zipf_table_cache: dict[tuple[int, float], array] = {}


def _zipf_rank_table(rng: SplitMix64, universe: int, s: float,
                     n: int) -> list[int]:
    key = (universe, s)
    cum = _zipf_table_cache.get(key)
    if cum is None:
        cum = _zipf_cumulative(universe, s)
        _zipf_table_cache[key] = cum
    total = cum[-1]
    float01 = rng.float01
    bl = bisect.bisect_left
    return [bl(cum, float01() * total) + 1 for _ in range(n)]


def _zipf_rank_reject(rng: SplitMix64, universe: int, s: float,
                      n: int) -> list[int]:
    # Propose from the continuous density x**-s on [1, U+1) by inversion,
    # floor to a rank, and accept with probability B(1) * k**(1-s) / B(k),
    # where B(k) is the proposal mass of the cell [k, k+1) scaled by k:
    # B(k) = k * ((k+1)**(1-s) - k**(1-s)) / (1-s)   for s != 1
    # B(k) = k * log((k+1)/k)                        for s == 1
    # B(k)/k**(1-s) rises monotonically toward 1, so B(1) is the right
    # constant and the accepted rank is exactly proportional to k**-s.
    out = []
    float01 = rng.float01
    top = universe + 1
    if s == 1.0:
        ln_top = math.log(top)
        b1 = math.log(2.0)
        while len(out) < n:
            x = math.exp(float01() * ln_top)
            k = int(x)
            if k > universe:
                continue
            bk = k * math.log((k + 1) / k)
            if float01() * bk <= b1:
                out.append(k)
    else:
        one_minus = 1.0 - s
        span = top ** one_minus - 1.0
        b1 = (2.0 ** one_minus - 1.0) / one_minus
        while len(out) < n:
            x = (1.0 + float01() * span) ** (1.0 / one_minus)
            k = int(x)
            if k < 1 or k > universe:
                continue
            bk = k * ((k + 1) ** one_minus - k ** one_minus) / one_minus
            if float01() * bk <= b1 * k ** one_minus:
                out.append(k)
    return out


def gen_zipf(n: int, universe: int, seed: int, s: float = 1.0) -> KeyWorkload:
    if universe < 1:
        raise ValueError("universe must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    if s <= 0:
        raise ValueError("s must be positive")
    rng = SplitMix64(seed)
    if universe <= ZIPF_TABLE_MAX_UNIVERSE:
        ranks = _zipf_rank_table(rng, universe, s, n)
    else:
        ranks = _zipf_rank_reject(rng, universe, s, n)
    return KeyWorkload("zipf", n, universe, seed, s, [r - 1 for r in ranks])


def gen_skewed(n: int, universe: int, seed: int) -> KeyWorkload:
    if universe < 10:
        raise ValueError("skewed needs universe >= 10")
    if n < 0:
        raise ValueError("n must be >= 0")
    a_lo = 15 * universe // 100
    a_hi = 25 * universe // 100
    b_lo = 70 * universe // 100
    b_hi = 80 * universe // 100
    a_span = a_hi - a_lo
    b_span = b_hi - b_lo
    rng = SplitMix64(seed)
    below = rng.below
    keys = []
    append = keys.append
    for i in range(n):
        m = i % 3
        if m == 0:
            append(below(universe))
        elif m == 1:
            append(a_lo + below(a_span))
        else:
            append(b_lo + below(b_span))
    return KeyWorkload("skewed", n, universe, seed, 0.0, keys)


def gen_presorted(n: int, seed: int) -> KeyWorkload:
    if n < 0:
        raise ValueError("n must be >= 0")
    keys = list(range(n))
    m = n // 2
    rng = SplitMix64(seed)
    below = rng.below
    if m >= 1:
        idx = list(range(n))
        for i in range(m):
            j = i + below(n - i)
            idx[i], idx[j] = idx[j], idx[i]
        positions = idx[:m]
        vals = [keys[p] for p in positions]
        rng.shuffle(vals)
        for p, val in zip(positions, vals):
            keys[p] = val
    return KeyWorkload("presorted", n, max(n, 1), seed, 0.0, keys)


def generate(dist: str, n: int, universe: int, seed: int,
             s: float = 1.0) -> KeyWorkload:
    """Dispatch by distribution name."""
    if dist == "uniform":
        return gen_uniform(n, universe, seed)
    if dist == "zipf":
        return gen_zipf(n, universe, seed, s)
    if dist == "skewed":
        return gen_skewed(n, universe, seed)
    if dist == "presorted":
        return gen_presorted(n, seed)
    raise ValueError(f"unknown distribution: {dist!r}")


def fresh_keys(dist: str, n: int, universe: int, seed: int,
               s: float = 1.0) -> list[int]:
    """Replacement keys for churn, drawn from the same distribution.

    presorted has no per-draw marginal distribution, so its churn keys are
    uniform over the same [0, n) range.
    """
    if dist == "presorted":
        return gen_uniform(n, max(universe, 1), seed).keys
    return generate(dist, n, universe, seed, s).keys

