import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from wbtree import oracle
from wbtree.bottom_up import BottomUpTree
from wbtree.core import NIL, Node
from wbtree.oracle import (
    SortedMultisetOracle,
    audit_balance,
    audit_structure,
    exact_balance_predicate,
)
from wbtree.params import PARAM_SETS, make_params, params_from_name
from wbtree.top_down import TopDownTree

from test_core import tree_of


def apply_op(tree, oracle: SortedMultisetOracle, op: str, key) -> str | None:
    """Apply one operation to both sides; returns a discrepancy or None.

    Sizes are compared after every op, and delete return values must
    agree. By induction this keeps the pair in lockstep cheaply; callers
    compare full contents at sample points.
    """
    if op == "i":
        tree.insert(key)
        oracle.insert(key)
    elif op == "d":
        got = tree.delete(key)
        want = oracle.remove(key)
        if got is not want:
            return f"delete {key!r}: tree said {got}, oracle said {want}"
    else:
        raise ValueError(f"unknown op {op!r}")
    if len(tree) != len(oracle):
        return f"size skew after {op} {key!r}: {len(tree)} vs {len(oracle)}"
    return None


def test_oracle_multiset_semantics():
    o = SortedMultisetOracle()
    for k in [5, 1, 5, 3]:
        o.insert(k)
    assert o.keys() == [1, 3, 5, 5]
    assert 5 in o and 2 not in o
    assert len(o) == 4
    assert o.remove(5) is True
    assert o.keys() == [1, 3, 5]
    assert o.remove(9) is False
    assert len(o) == 3


def test_oracle_seeded_constructor():
    o = SortedMultisetOracle([3, 1, 2, 1])
    assert o.keys() == [1, 1, 2, 3]


def test_audit_structure_clean_and_empty():
    assert audit_structure(tree_of(None)) == []
    assert audit_structure(tree_of((2, (1, None, None), (3, None, None)))) == []


def test_audit_structure_catches_weight_tamper():
    t = tree_of((2, (1, None, None), (3, None, None)))
    t.root.weight = 9
    assert any("weight" in line for line in audit_structure(t))


def test_audit_structure_catches_order_tamper():
    t = tree_of((2, (3, None, None), (1, None, None)))
    assert audit_structure(t) != []
    # 12 is in order against its parent 5 but sits left of the root 10.
    t = tree_of((10, (5, None, (12, None, None)), (20, None, None)))
    assert any("order" in line for line in audit_structure(t))


def test_audit_structure_accepts_duplicates_weakly_ordered():
    # An equal key on either side is legal; rotations move them around.
    t = tree_of((10, (10, None, None), (10, None, (11, None, None))))
    assert audit_structure(t) == []


def test_audit_structure_catches_size_tamper():
    t = tree_of((2, (1, None, None), (3, None, None)))
    t.size = 5
    assert any("size" in line for line in audit_structure(t))


def test_audit_balance_uses_true_weights_not_stored_ones():
    # Stored weights lie; balance auditing must recount.
    t = tree_of((1, None, (2, None, (3, None, (4, None, None)))))
    for v in (t.root, t.root.right):
        v.weight = 3  # pretend to be balanced
    # The lies also show as weight lines; the balance verdict must be there.
    assert any(line.startswith("balance at") for line in audit_balance(t))


def test_audit_combines_both():
    t = tree_of((2, (1, None, None), (3, None, None)))
    assert audit_balance(t) == []
    t.size = 4
    t.root.weight = 9
    assert audit_balance(t) == audit_structure(t) != []


def right_spine(n):
    """A tree of keys 0..n-1, each the right child of the one before, with
    true weights; built by linking nodes, so no insert runs."""
    t = TopDownTree(PARAM_SETS["topdown"])
    below = NIL
    for k in reversed(range(n)):
        below = Node(k, NIL, below, below.weight + 1)
    t.root = below
    t.size = n
    return t


def test_audits_walk_a_deep_spine_without_recursion():
    n = 10 ** 5
    t = right_spine(n)
    assert audit_structure(t) == []
    # Under delta = 3 every node with at least three nodes below it is
    # out of balance.
    unbalanced = audit_balance(t)
    assert len(unbalanced) == n - 3
    assert unbalanced[0] == f"balance at {n - 4}: true weights (1, 4)"
    assert unbalanced[-1] == f"balance at 0: true weights (1, {n})"


# Audit digests per scheme, recorded with the two-pass audit this walk
# replaced: its audit_structure, and audit_structure followed by
# audit_balance. Both were recorded while the scheme's nodes still carried
# parents, over every fault but the two that need parent links (a child's
# parent, the root's parent), which no weight-balanced node has now.
AUDIT_SCHEMES = {"top_down": TopDownTree, "bottom_up": BottomUpTree}
AUDIT_PARAMS = ("classic", "integral", "topdown", "tight", "overtight",
                "custom:3/2:1/1")
AUDIT_SIZES = (0, 1, 6, 40, 200)
AUDIT_SEEDS = (1, 2, 3)
FAULTS = (None, "weight+1", "weight-1", "key", "size")
STRUCTURE_GOLDEN = {
    "top_down":
        "e2ac344eeae275848bb4ab4b354522b46dee89afe2d27b050edef8da95e31456",
    "bottom_up":
        "ae679461e497ef22bc739a0d60db7d7e87194f1666820f8d14af11d808c5c4c7",
}
BALANCE_GOLDEN = {
    "top_down":
        "54135c6eea6369bb19763b7a5ff8abcc9162be75c443da32c2b3168871d1d228",
    "bottom_up":
        "30401cbbb812e7a6bf5d99fabdedefa2ba1a42735df6b1814ee11e601e98ee76",
}


def faulted_tree(cls, name, size, seed, fault):
    """A seeded tree after size inserts and 2*size delete/insert pairs, so
    the unsound sets bring natural imbalance, then one injected fault."""
    rng = random.Random(seed)
    t = cls(params_from_name(name))
    universe = 2 * size + 4
    for _ in range(size):
        t.insert(rng.randrange(universe))
    for _ in range(2 * size):
        t.delete(rng.randrange(universe))
        t.insert(rng.randrange(universe))
    # Pre-order, each node with its parent.
    nodes, parent = [], {}
    stack = [t.root] if t.root is not NIL else []
    while stack:
        v = stack.pop()
        nodes.append(v)
        for c in (v.left, v.right):
            if c is not NIL:
                parent[c] = v
                stack.append(c)
    if fault == "size":
        t.size += 1
    elif fault in ("weight+1", "weight-1") and nodes:
        rng.choice(nodes).weight += 1 if fault == "weight+1" else -1
    elif fault == "key" and len(nodes) > 1:
        v = rng.choice(nodes[1:])
        p = parent[v]
        # Past its parent: a left child above it, a right one below.
        v.key = p.key + 1 if v is p.left else p.key - 1
    return t


def audit_digest(audit, scheme) -> str:
    cls = AUDIT_SCHEMES[scheme]
    h = hashlib.sha256()
    for name in AUDIT_PARAMS:
        for size in AUDIT_SIZES:
            for seed in AUDIT_SEEDS:
                for fault in FAULTS:
                    t = faulted_tree(cls, name, size, seed, fault)
                    h.update(f"{scheme} {name} {size} {seed} {fault}\n"
                             f"{audit(t)!r}\n".encode())
    return h.hexdigest()


def test_audits_match_the_golden_digests():
    for scheme in AUDIT_SCHEMES:
        assert audit_digest(audit_structure, scheme) == \
            STRUCTURE_GOLDEN[scheme], scheme
        assert audit_digest(audit_balance, scheme) == \
            BALANCE_GOLDEN[scheme], scheme


def test_exact_predicate_rational():
    ok = exact_balance_predicate(make_params(3, 2))
    assert ok(1, 3) and ok(3, 1)
    assert not ok(1, 4) and not ok(4, 1)


def test_exact_predicate_classic_integer_algebra():
    ok = exact_balance_predicate(PARAM_SETS["classic"])
    # boundary: wr <= wl * (1 + sqrt 2); for wl = 5 that is 12.07...
    assert ok(5, 12)
    assert not ok(5, 13)
    assert ok(12, 5)
    assert not ok(13, 5)
    assert ok(1, 1)


# 1 + sqrt 2 to 50 digits, more than enough to separate any ratio of
# integers below 10^20 from the irrational boundary.
CLASSIC_DELTA = Fraction("2.41421356237309504880168872420969807856967187537694")


@given(st.integers(1, 10 ** 6), st.integers(1, 10 ** 6))
def test_exact_predicate_classic_matches_high_precision(wl, wr):
    ok = exact_balance_predicate(PARAM_SETS["classic"])
    want = wl * CLASSIC_DELTA >= wr and wr * CLASSIC_DELTA >= wl
    assert ok(wl, wr) == want


def test_exact_predicate_generic_real_uses_float_value():
    # classic is the only real-valued set; no other float pair exists.
    with pytest.raises(ValueError):
        make_params(2.5, 1.5)


def delta_fraction(params) -> Fraction:
    """delta's exact value, or 1 + sqrt 2 to 50 digits for the classic set."""
    if params == PARAM_SETS["classic"]:
        return CLASSIC_DELTA
    return Fraction(params.delta)


def fraction_predicate(params):
    """The balance definition, with delta a Fraction."""
    d = delta_fraction(params)
    return lambda wl, wr: wl * d >= wr and wr * d >= wl


@pytest.mark.parametrize("params", [
    *PARAM_SETS.values(), params_from_name("custom:7/3:5/4")],
    ids=[*PARAM_SETS, "custom"])
def test_exact_predicate_matches_fraction_definition(params):
    ok = exact_balance_predicate(params)
    want = fraction_predicate(params)
    d = delta_fraction(params)
    pairs = [(a, b) for a in range(1, 201) for b in range(1, 201)]
    rng = random.Random(5)
    ws = [*range(1, 1001), *(10 ** k for k in range(3, 10)),
          *(rng.randrange(1, 10 ** 9 + 1) for _ in range(1000))]
    for w in ws:
        edge = w * d.numerator // d.denominator  # floor(w * d)
        for v in (edge, edge + 1):
            pairs += [(w, v), (v, w)]
    assert [p for p in pairs if ok(*p) != want(*p)] == []


@pytest.mark.parametrize("cls", [TopDownTree, BottomUpTree])
@pytest.mark.parametrize("name", ["tight", "overtight"])
def test_audit_balance_matches_fraction_audit_after_churn(name, cls,
                                                          monkeypatch):
    rng = random.Random(3)
    keys = [rng.randrange(10 ** 6) for _ in range(2000)]
    t = cls(PARAM_SETS[name])
    for k in keys:
        t.insert(k)
    for k in keys:
        t.delete(k)
        t.insert(rng.randrange(10 ** 6))
    got = audit_balance(t)
    monkeypatch.setattr(oracle, "exact_balance_predicate", fraction_predicate)
    want = audit_balance(t)
    assert want and got == want


def test_apply_op_lockstep_and_errors():
    t = TopDownTree(PARAM_SETS["topdown"])
    o = SortedMultisetOracle()
    assert apply_op(t, o, "i", 4) is None
    assert apply_op(t, o, "d", 4) is None
    assert apply_op(t, o, "d", 4) is None  # absent on both sides agrees
    with pytest.raises(ValueError):
        apply_op(t, o, "insert", 1)


def test_apply_op_reports_disagreement():
    t = TopDownTree(PARAM_SETS["topdown"])
    o = SortedMultisetOracle()
    o.insert(7)  # oracle drifts ahead on purpose
    msg = apply_op(t, o, "d", 7)
    assert msg is not None and "tree said False" in msg


@given(st.lists(st.tuples(st.sampled_from("id"), st.integers(0, 30)),
                max_size=200))
def test_lockstep_over_random_programs(program):
    t = BottomUpTree(PARAM_SETS["classic"])
    o = SortedMultisetOracle()
    for op, key in program:
        assert apply_op(t, o, op, key) is None
    assert t.inorder_keys() == o.keys()
    assert audit_balance(t) == []
