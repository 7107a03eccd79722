from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from wbtree.bench import VariantSpec
from wbtree.params import (
    PARAM_SETS,
    make_params,
    param_set_name,
    params_from_name,
)


def test_rational_mode_keeps_integer_operands():
    p = make_params(3, 2)
    assert isinstance(p.delta, Fraction)
    assert (p.dn, p.dd) == (3, 1)
    assert (p.gn, p.gd) == (2, 1)
    assert isinstance(p.dn, int)
    assert p.delta == 3
    assert p.gamma == 2


def test_fractional_rational_params():
    p = make_params(Fraction(3, 2), Fraction(5, 4))
    assert isinstance(p.delta, Fraction)
    assert (p.dn, p.dd) == (3, 2)
    assert (p.gn, p.gd) == (5, 4)


def test_real_mode_from_floats():
    d = 1 + 2 ** 0.5
    g = 2 ** 0.5
    p = make_params(d, g)
    assert isinstance(p.delta, float)
    assert p.dn == d and p.dd == 1.0
    assert p.gn == g and p.gd == 1.0


@pytest.mark.parametrize("delta, gamma", [
    (2 ** 0.5 + 1, Fraction(3, 2)),
    (2.5, 1.5),
], ids=["mixed", "floats"])
def test_real_operands_other_than_classic_are_rejected(delta, gamma):
    # classic's pair is the only real-valued set: neither a mixed pair nor
    # another float pair is it.
    with pytest.raises(ValueError):
        make_params(delta, gamma)


@pytest.mark.parametrize("bad", [0.5, 0, -1, Fraction(9, 10), float("inf"), float("nan")])
def test_rejects_delta_below_one_or_nonfinite(bad):
    with pytest.raises(ValueError):
        make_params(bad, 1)


@pytest.mark.parametrize("bad", [0.25, -3, Fraction(1, 2), float("nan")])
def test_rejects_bad_gamma(bad):
    with pytest.raises(ValueError):
        make_params(3, bad)


def test_params_are_immutable():
    p = PARAM_SETS["integral"]
    with pytest.raises(AttributeError):
        p.dn = 7


def test_equality_is_by_value():
    assert make_params(3, 2) == make_params(Fraction(3), Fraction(2))
    assert make_params(3, 2) != make_params(3, Fraction(4, 3))
    with pytest.raises(ValueError):
        make_params(2.0, 1.5)  # a real-valued pair other than classic's


def test_canonical_sets_present_with_expected_operands():
    assert set(PARAM_SETS) == {"classic", "integral", "topdown", "tight", "overtight"}
    assert isinstance(PARAM_SETS["classic"].delta, float)
    assert PARAM_SETS["classic"].delta == pytest.approx(1 + 2 ** 0.5)
    assert PARAM_SETS["classic"].gamma == pytest.approx(2 ** 0.5)
    assert (PARAM_SETS["integral"].dn, PARAM_SETS["integral"].gn) == (3, 2)
    assert (PARAM_SETS["topdown"].gn, PARAM_SETS["topdown"].gd) == (4, 3)
    assert (PARAM_SETS["tight"].dn, PARAM_SETS["tight"].dd) == (2, 1)
    assert (PARAM_SETS["overtight"].dn, PARAM_SETS["overtight"].dd) == (3, 2)


@pytest.mark.parametrize(
    "name,bu,td",
    [
        ("classic", True, False),
        ("integral", True, False),
        ("topdown", False, True),
        ("tight", False, False),
        ("overtight", False, False),
    ],
)
def test_feasibility_table(name, bu, td):
    p = PARAM_SETS[name]
    assert VariantSpec("bottom_up", p).balance_guaranteed() is bu
    assert VariantSpec("top_down", p).balance_guaranteed() is td


def test_custom_params_are_never_feasible():
    p = make_params(4, 2)
    assert not VariantSpec("bottom_up", p).balance_guaranteed()
    assert not VariantSpec("top_down", p).balance_guaranteed()


def test_params_from_name_canonical():
    for name in PARAM_SETS:
        assert params_from_name(name) is PARAM_SETS[name]


def test_params_from_name_custom():
    p = params_from_name("custom:5/2:7/5")
    assert isinstance(p.delta, Fraction)
    assert (p.dn, p.dd, p.gn, p.gd) == (5, 2, 7, 5)


GARBAGE = [
    ("custom:5/2", "syntax"),
    ("custom:5/2:7/5:9/8", "syntax"),
    ("custom:5:7/5", "syntax"),
    ("custom:a/2:7/5", "syntax"),
    ("custom:5/0:7/5", "positive"),
    ("custom:-3/2:7/5", "positive"),
    # Malformed and non-positive: the syntax error is the one reported.
    ("custom:0/2:7/x", "syntax"),
    ("nosuchset", "unknown"),
    ("", "unknown"),
]


@pytest.mark.parametrize("text,match", GARBAGE, ids=[t for t, _ in GARBAGE])
def test_params_from_name_rejects_garbage(text, match):
    with pytest.raises(ValueError, match=match):
        params_from_name(text)


def test_param_set_name_round_trip():
    for name in PARAM_SETS:
        assert param_set_name(PARAM_SETS[name]) == name
    assert param_set_name(make_params(5, 3)) == "custom:5/1:3/1"
    again = params_from_name(param_set_name(make_params(Fraction(7, 4), Fraction(6, 5))))
    assert again == make_params(Fraction(7, 4), Fraction(6, 5))


@given(st.fractions(min_value=1, max_denominator=50),
       st.fractions(min_value=1, max_denominator=50),
       st.sampled_from(["bottom_up", "top_down"]))
def test_every_label_bench_emits_parses_back(delta, gamma, scheme):
    for params in (*PARAM_SETS.values(), make_params(delta, gamma)):
        label = VariantSpec(scheme, params).params_name
        assert params_from_name(label) == params


def test_repr_mentions_both_parameters():
    text = repr(make_params(3, 2))
    assert "3" in text and "2" in text
