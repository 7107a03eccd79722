"""Balance parameters for weight-balanced trees.

A tree is balanced under a parameter pair (delta, gamma) when every node v
satisfies both

    weight(left(v))  * delta >= weight(right(v))
    weight(right(v)) * delta >= weight(left(v))

where weight(v) is the number of nodes below v plus one (empty subtree: 1).
delta controls how lopsided a node may get; gamma picks between a single and
a double rotation when a repair is needed.

Parameters are either exact rationals (the comparisons cross-multiply
integers, exact at any weight since Python integers never overflow) or
reals (the comparisons use precomputed doubles; classic's <1+sqrt2,
sqrt2> is the only real-valued set). This module checks and names
parameter sets; it holds no predicate. The trees and
metrics.count_violations inline `w1 * dn >= w2 * dd` and the gamma test
on the operand pairs exposed here, and oracle.py re-derives the balance
inequalities in exact arithmetic as the independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

RatioOrReal = Union[int, float, Fraction]

# classic's <1+sqrt2, sqrt2> as doubles.
_CLASSIC = (1.0 + math.sqrt(2.0), math.sqrt(2.0))


@dataclass(frozen=True, slots=True)
class BalanceParams:
    """Immutable (delta, gamma) pair with precomputed comparison operands.

    delta is stored as dn/dd and gamma as gn/gd. In a rational set the four
    operands are ints and delta/gamma are Fractions; in the real set
    (classic) all of them are floats, dn and gn the double values and the
    denominators 1.0, so the same cross-multiplied expressions work for
    both. Build through make_params, which checks the inputs.
    """

    delta: RatioOrReal
    gamma: RatioOrReal
    dn: int | float
    dd: int | float
    gn: int | float
    gd: int | float


def make_params(delta: RatioOrReal, gamma: RatioOrReal) -> BalanceParams:
    """Validate and build a BalanceParams.

    The set is rational (delta and gamma are Fractions) when both inputs
    are exact rationals (int or Fraction). The one real-valued pair is
    classic's <1+sqrt2, sqrt2> as doubles: it is the only real set with an
    exact audit predicate and a name, so any other float input raises
    ValueError.
    """
    if isinstance(delta, float) or isinstance(gamma, float):
        if (delta, gamma) != _CLASSIC:
            raise ValueError("the only real-valued parameter set is "
                             "classic's <1+sqrt2, sqrt2>")
        d, g = _CLASSIC
        return BalanceParams(d, g, d, 1.0, g, 1.0)
    d = Fraction(delta)
    g = Fraction(gamma)
    if d < 1 or g < 1:
        raise ValueError("delta and gamma must both be >= 1")
    return BalanceParams(d, g, d.numerator, d.denominator, g.numerator,
                         g.denominator)


# Canonical parameter sets. classic is the historical real-valued pair
# <1+sqrt2, sqrt2>; integral is the only integer pair that keeps bottom-up
# rebalancing sound; topdown is the pair proven safe for single-pass
# updates; tight and overtight violate the known feasibility regions.
PARAM_SETS = {
    "classic": make_params(*_CLASSIC),
    "integral": make_params(3, 2),
    "topdown": make_params(3, Fraction(4, 3)),
    "tight": make_params(2, Fraction(3, 2)),
    "overtight": make_params(Fraction(3, 2), Fraction(5, 4)),
}

# Scheme -> the parameter sets with a proven soundness guarantee under it.
# Anything else, custom sets included, has none; harnesses then audit
# structure only, not balance.
SOUND_PARAMS = {
    "bottom_up": frozenset({PARAM_SETS["classic"], PARAM_SETS["integral"]}),
    "top_down": frozenset({PARAM_SETS["topdown"]}),
}


def params_from_name(name: str) -> BalanceParams:
    """Resolve a CLI parameter-set name.

    Accepts the canonical names plus custom:<dn>/<dd>:<gn>/<gd> with
    positive integers, e.g. custom:5/2:7/5.
    """
    if name in PARAM_SETS:
        return PARAM_SETS[name]
    if name.startswith("custom:"):
        try:
            d, g = name[len("custom:"):].split(":")
            dn, dd = map(int, d.split("/"))
            gn, gd = map(int, g.split("/"))
        except ValueError:
            raise ValueError(
                f"bad custom parameter syntax: {name!r}") from None
        if min(dn, dd, gn, gd) <= 0:
            raise ValueError(
                f"custom parameter terms must be positive: {name!r}")
        return make_params(Fraction(dn, dd), Fraction(gn, gd))
    raise ValueError(f"unknown parameter set: {name!r}")


def param_set_name(params: BalanceParams) -> str:
    """Canonical name for a parameter set, or its custom:... spelling; both
    parse back through params_from_name."""
    for name, ps in PARAM_SETS.items():
        if ps == params:
            return name
    return f"custom:{params.dn}/{params.dd}:{params.gn}/{params.gd}"
