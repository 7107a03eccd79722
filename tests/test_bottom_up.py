import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from wbtree.bottom_up import BottomUpTree
from wbtree.core import NIL
from wbtree.metrics import MetricsSink, count_violations, max_depth
from wbtree.oracle import SortedMultisetOracle, audit_balance, audit_structure
from wbtree.params import PARAM_SETS, make_params

from test_core import build, dump
from test_top_down import Fuse


def grown(keys, params=PARAM_SETS["integral"], sink=None):
    t = BottomUpTree(params, sink=sink)
    for k in keys:
        t.insert(k)
    return t


def test_small_insert_golden():
    t = grown([1, 2, 3])
    # delta = 3 tolerates the bare chain at three nodes; the fourth insert
    # finally tips the root
    assert dump(t) == "1:4 2:3 3:2\n(1 . (2 . (3 . .)))"
    t.insert(4)
    assert dump(t) == "1:2 2:5 3:3 4:2\n(2 (1 . .) (3 . (4 . .)))"


def test_insert_returns_new_node():
    t = BottomUpTree(PARAM_SETS["integral"])
    n = t.insert(7)
    assert n is t.root and n.key == 7
    m = t.insert(3)
    assert m.key == 3 and n.left is m


def test_sorted_inserts_stay_balanced():
    t = grown(range(200))
    assert audit_structure(t) == []
    assert count_violations(t) == 0
    assert max_depth(t) <= 16  # far below the 199 an unbalanced BST would hit


def test_duplicates_go_left_initially():
    t = BottomUpTree(PARAM_SETS["integral"])
    t.insert(5)
    t.insert(5)
    assert t.root.key == 5 and t.root.left.key == 5
    assert t.inorder_keys() == [5, 5]


def test_delete_leaf_and_missing():
    t = grown([2, 1, 3])
    assert t.delete(1) is True
    assert t.delete(1) is False
    assert t.inorder_keys() == [2, 3]
    assert audit_structure(t) == []
    assert t.delete(99) is False
    assert len(t) == 2


@pytest.mark.parametrize("op,present", [("insert", False),
                                        ("delete", True), ("delete", False)])
def test_raising_comparison_changes_nothing(op, present):
    # The descent only records its path, so a key that raises at any
    # comparison leaves every link and weight as it was.
    rng = random.Random(13)
    base = grown([2 * rng.randrange(150) for _ in range(300)])
    keys = base.inorder_keys()
    k = keys[len(keys) // 2] if present else 151
    if present:  # a node with two children, so delete relinks
        v = base.search(k)
        assert v.left is not NIL and v.right is not NIL
    spare = Fuse(k, 10 ** 6)
    getattr(base.clone(), op)(spare)
    needed = 10 ** 6 - spare.budget
    assert needed > 2
    before = dump(base)
    for budget in range(needed):
        t = base.clone()
        with pytest.raises(RuntimeError):
            getattr(t, op)(Fuse(k, budget))
        assert dump(t) == before and len(t) == len(keys)


def test_delete_one_child_node():
    t = grown([2, 1, 3, 4])
    assert t.delete(3) is True
    assert t.inorder_keys() == [1, 2, 4]
    assert audit_structure(t) == []


def test_delete_two_child_node_uses_predecessor():
    t = grown([10, 5, 20, 3, 7, 15, 30])
    assert t.delete(10) is True
    # 7 is 10's in-order predecessor and takes its place
    assert t.root.key == 7
    assert t.inorder_keys() == [3, 5, 7, 15, 20, 30]
    assert audit_structure(t) == []
    assert count_violations(t) == 0


def test_delete_root_until_empty():
    t = grown([4, 2, 6, 1, 3, 5, 7])
    for _ in range(7):
        assert t.delete(t.root.key) is True
        assert audit_structure(t) == []
    assert len(t) == 0 and t.root is NIL


def test_delete_repairs_all_the_way_up():
    # Remove everything from one side; the tree must stay within bounds.
    t = grown(range(64))
    for k in range(40):
        assert t.delete(k)
        assert count_violations(t) == 0
        assert audit_structure(t) == []


def test_delete_gamma_tie_takes_double_rotation():
    """A tied gamma test must pick the double rotation.

    With <3,2>, deleting the lone right leaf under a (6,2) node leaves
    (6,1); if the heavy child splits (2,4) the gamma test ties (4 == 2*2)
    and a single rotation would re-root as (4,1) — still outside delta.
    """
    t = BottomUpTree(PARAM_SETS["integral"])
    t.root = build(
        (50,
         (20, (10, None, None),
              (30, (25, None, None), (40, None, None))),
         (60, None, None)))
    t.size = 7
    assert audit_structure(t) == [] and count_violations(t) == 0

    assert t.delete(60)
    assert count_violations(t) == 0
    assert dump(t) == (
        "10:2 20:4 25:2 30:7 40:2 50:3\n"
        "(30 (20 (10 . .) (25 . .)) (50 (40 . .) .))")


@pytest.mark.parametrize("delta", [1, Fraction(5, 4), Fraction(3, 2),
                                   Fraction(7, 4)], ids=lambda d: str(float(d)))
def test_gamma_one_never_rotates_the_sentinel(delta):
    """Under gamma = 1 a leaf heavy child ties the gamma test with two empty
    grandchildren. The tie must not pick a double rotation: its inner pivot
    would be the shared sentinel. Structure stays sound, though balance
    is not promised for these sets."""
    t = BottomUpTree(make_params(delta, 1))
    o = SortedMultisetOracle()
    rng = random.Random(61)
    for _ in range(400):
        k = rng.randrange(30)
        if rng.random() < 0.6:
            t.insert(k)
            o.insert(k)
        else:
            assert t.delete(k) == o.remove(k)
        assert audit_structure(t) == []
        assert t.inorder_keys() == o.keys()
        assert len(t) == len(o)


def test_sink_sees_rotations():
    sink = MetricsSink()
    t = grown(range(50), sink=sink)
    assert sink.rotation_count > 0
    assert sink.rotated_weight_total >= 2 * sink.rotation_count


keys_strategy = st.lists(st.integers(0, 40), min_size=0, max_size=120)


@given(keys_strategy, keys_strategy)
def test_matches_sorted_oracle(inserts, deletes):
    t = BottomUpTree(PARAM_SETS["integral"])
    o = SortedMultisetOracle()
    for k in inserts:
        t.insert(k)
        o.insert(k)
    for k in deletes:
        assert t.delete(k) == o.remove(k)
    assert t.inorder_keys() == o.keys()
    assert len(t) == len(o)
    assert audit_balance(t) == []
    assert count_violations(t) == 0


@given(keys_strategy, keys_strategy)
def test_classic_params_hold_balance_too(inserts, deletes):
    t = BottomUpTree(PARAM_SETS["classic"])
    for k in inserts:
        t.insert(k)
    for k in deletes:
        t.delete(k)
    assert count_violations(t) == 0
    assert audit_structure(t) == []


@given(keys_strategy)
def test_infeasible_params_still_structurally_sound(keys):
    # tight has no bottom-up guarantee; shape may drift but must stay a
    # consistent weighted multiset BST.
    t = BottomUpTree(PARAM_SETS["tight"])
    for k in keys:
        t.insert(k)
    for k in keys[::2]:
        t.delete(k)
    assert audit_structure(t) == []
