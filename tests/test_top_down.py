import gc
import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from wbtree.bottom_up import BottomUpTree
from wbtree.core import NIL, Node, structure_string
from wbtree.metrics import MetricsSink, count_violations, max_depth
from wbtree.oracle import SortedMultisetOracle, audit_balance, audit_structure
from wbtree.params import PARAM_SETS, params_from_name
from wbtree.redblack import RbNode, RedBlackTree
from wbtree.redblack import audit as rb_audit
from wbtree.top_down import TopDownTree

from test_core import build, dump
from test_golden import PARAMS


def grown(keys, params=PARAM_SETS["topdown"], sink=None):
    t = TopDownTree(params, sink=sink)
    for k in keys:
        t.insert(k)
    return t


def link(key, weight, left=None, right=None):
    return Node(key, left or NIL, right or NIL, weight)


def test_small_insert_golden():
    t = grown([1, 2, 3])
    assert dump(t) == "1:4 2:3 3:2\n(1 . (2 . (3 . .)))"
    t.insert(4)
    assert dump(t) == "1:2 2:5 3:3 4:2\n(2 (1 . .) (3 . (4 . .)))"
    assert count_violations(t) == 0


def test_matches_bottom_up_on_shared_feasible_prefix():
    # Same keys, same delta: the single-rotation repair fires at the same
    # place whether applied on the way down or on the way back up.
    from wbtree.bottom_up import BottomUpTree

    b = BottomUpTree(PARAM_SETS["integral"])
    t = TopDownTree(PARAM_SETS["integral"])
    for k in [5, 1, 9, 3, 7, 11, 2, 8, 10]:
        b.insert(k)
        t.insert(k)
    assert dump(t) == dump(b)


def test_anticipated_single_descends_into_moved_subtree():
    t = grown([4, 2, 8, 6, 10, 12])
    # Next insert lands right of 12; the descent repairs near the top
    # before the key ever gets there.
    t.insert(14)
    assert audit_structure(t) == []
    assert count_violations(t) == 0
    assert t.search(14) is not None


def test_anticipated_double_reaims_below_old_outer_grandchild():
    # Hand-built tree where inserting 27 trips the size test at the root
    # and the gamma test picks a double rotation; the key must then finish
    # its descent under the outer grandchild that just moved.
    t = TopDownTree(PARAM_SETS["tight"])
    n5 = link(5, 2)
    n12 = link(12, 2)
    n13 = link(13, 3, left=n12)
    n17 = link(17, 2)
    n15 = link(15, 5, left=n13, right=n17)
    n25 = link(25, 2)
    n20 = link(20, 7, left=n15, right=n25)
    n10 = link(10, 9, left=n5, right=n20)
    t.root = n10
    t.size = 8
    assert audit_structure(t) == []

    t.insert(27)
    assert dump(t) == (
        "5:2 10:5 12:2 13:3 15:10 17:2 20:5 25:3 27:2\n"
        "(15 (10 (5 . .) (13 (12 . .) .)) (20 (17 . .) (25 . (27 . .))))"
    )
    assert audit_structure(t) == []


def test_empty_slot_double_builds_node_in_place():
    # Inserting between a leaf and its lone child: the double rotation's
    # rising pivot is the key's own empty slot, so the node is hung there
    # and the double raises it to the top position.
    t = TopDownTree(PARAM_SETS["tight"])
    t.insert(10)
    t.insert(20)
    assert structure_string(t) == "(10 . (20 . .))"
    t.insert(15)
    assert dump(t) == "10:2 15:4 20:2\n(15 (10 . .) (20 . .))"
    assert count_violations(t) == 0
    assert t.size == 3


def test_empty_slot_double_mirror_side():
    t = TopDownTree(PARAM_SETS["tight"])
    t.insert(20)
    t.insert(10)
    assert structure_string(t) == "(20 (10 . .) .)"
    t.insert(15)
    assert dump(t) == "10:2 15:4 20:2\n(15 (10 . .) (20 . .))"
    assert count_violations(t) == 0


def test_empty_slot_double_counts_as_a_double():
    sink = MetricsSink()
    t = TopDownTree(PARAM_SETS["tight"], sink=sink)
    t.insert(10)
    t.insert(20)
    before = sink.rotation_count
    t.insert(15)
    assert sink.rotation_count - before == 2


def test_delete_simple_cases():
    t = grown([4, 2, 8, 1, 3, 6, 10])
    assert t.delete(99) is False
    assert len(t) == 7
    assert audit_structure(t) == []
    assert t.delete(1) is True
    assert t.delete(8) is True
    assert t.inorder_keys() == [2, 3, 4, 6, 10]
    assert audit_structure(t) == []
    assert count_violations(t) == 0


def test_delete_absent_key_rolls_weights_back():
    t = grown(range(40))
    before = dump(t)
    assert t.delete(200) is False
    assert t.delete(-5) is False
    assert dump(t) == before
    assert audit_structure(t) == []


def test_delete_two_child_uses_predecessor():
    t = grown([10, 5, 20, 3, 7, 15, 30])
    shape_before = structure_string(t)
    assert "(10 " in shape_before
    assert t.delete(10) is True
    assert t.root.key == 7
    assert t.inorder_keys() == [3, 5, 7, 15, 20, 30]
    assert audit_structure(t) == []


def test_delete_two_child_with_adjacent_predecessor():
    # predecessor is the left child itself
    t = TopDownTree(PARAM_SETS["topdown"])
    for k in [10, 5, 20]:
        t.insert(k)
    assert t.delete(10) is True
    assert t.inorder_keys() == [5, 20]
    assert audit_structure(t) == []


def test_delete_until_empty():
    t = grown(range(33))
    for k in range(33):
        assert t.delete(k) is True
        assert audit_structure(t) == []
        assert count_violations(t) == 0
    assert t.root is NIL and len(t) == 0


def test_feasible_params_never_violate():
    t = grown(range(300))
    assert count_violations(t) == 0
    for k in range(0, 300, 3):
        t.delete(k)
        assert count_violations(t) == 0
    assert audit_structure(t) == []
    assert max_depth(t) <= 18


def test_duplicate_keys_survive_round_trips():
    t = TopDownTree(PARAM_SETS["topdown"])
    for k in [5, 5, 5, 3, 3, 9]:
        t.insert(k)
    assert t.inorder_keys() == [3, 3, 5, 5, 5, 9]
    assert t.delete(5) and t.delete(5)
    assert t.inorder_keys() == [3, 3, 5, 9]
    assert audit_structure(t) == []


class Fuse:
    """Compares like the number k for `budget` comparisons, then raises."""

    def __init__(self, k, budget):
        self.k = k
        self.budget = budget

    def _spend(self):
        if self.budget == 0:
            raise RuntimeError("comparison failed")
        self.budget -= 1

    def __lt__(self, other):
        self._spend()
        return self.k < other

    def __le__(self, other):
        self._spend()
        return self.k <= other

    def __gt__(self, other):
        self._spend()
        return self.k > other

    def __ge__(self, other):
        self._spend()
        return self.k >= other

    def __eq__(self, other):
        self._spend()
        return self.k == other


RAISING_TREES = {
    "top_down": (lambda: TopDownTree(PARAM_SETS["topdown"]), audit_structure),
    "bottom_up": (lambda: BottomUpTree(PARAM_SETS["integral"]),
                  audit_structure),
    "redblack": (RedBlackTree, rb_audit),
}


@pytest.mark.parametrize("op,keys,key", [
    # Top-down rotates on the way to both keys before later budgets run out,
    # so the weight rollback is exercised across a rotation too.
    ("insert", [0, 1, 2, 3, 4], 5),
    ("delete", [4, 2, 8, 6, 10, 12, 14], 1),
    # A present key whose node has two children and is repaired on arrival,
    # so a later budget raises on the key == k branch after that repair.
    ("delete", [0, 1, 2, 3, 4], 1),
    # The root repairs with a single rotation; the third comparison is the
    # re-aim against the raised child.
    ("insert", [1, 2, 3], 4),
])
@pytest.mark.parametrize("kind", sorted(RAISING_TREES))
def test_raising_comparison_leaves_tree_intact(kind, op, keys, key):
    make, structure_audit = RAISING_TREES[kind]
    for budget in itertools.count():
        t = make()
        for k in keys:
            t.insert(k)
        before = t.inorder_keys()
        try:
            getattr(t, op)(Fuse(key, budget))
        except RuntimeError:
            assert t.inorder_keys() == before
            assert structure_audit(t) == []
        else:
            break  # the budget outlasted the operation
    assert budget > 0


def test_raising_reaim_after_repair_restores_every_weight():
    sink = MetricsSink()
    t = grown([1, 2, 3], sink=sink)
    assert dump(t) == "1:4 2:3 3:2\n(1 . (2 . (3 . .)))"
    # Budget 2: the overload check at the root, the gamma test's
    # comparison, then the re-aim against the raised node 2 raises.
    fuse = Fuse(4, 2)
    with pytest.raises(RuntimeError):
        t.insert(fuse)
    assert fuse.budget == 0 and sink.rotation_count == 1
    # The rotation stays; every weight is the true one again.
    assert dump(t) == "1:2 2:4 3:2\n(2 (1 . .) (3 . .))"
    assert t.inorder_keys() == [1, 2, 3] and len(t) == 3
    assert audit_structure(t) == []
    t.insert(4)
    assert audit_balance(t) == []


class Counted:
    """A number key that counts the comparisons made between such keys."""

    calls = 0

    def __init__(self, k):
        self.k = k

    def __repr__(self):
        return repr(self.k)

    def __lt__(self, other):
        Counted.calls += 1
        return self.k < other.k

    def __le__(self, other):
        Counted.calls += 1
        return self.k <= other.k

    def __gt__(self, other):
        Counted.calls += 1
        return self.k > other.k

    def __ge__(self, other):
        Counted.calls += 1
        return self.k >= other.k

    def __eq__(self, other):
        Counted.calls += 1
        return self.k == other.k


def search_path_length(t, k) -> int:
    """Nodes a search for k compares against, without counting them."""
    n = 0
    v = t.root
    while v is not NIL:
        n += 1
        if k == v.key.k:
            break
        v = v.left if k < v.key.k else v.right
    return n


def ancestors(t, node) -> int:
    """Nodes above node, by a walk from the root that counts nothing."""
    n = 0
    v = t.root
    k = node.key.k
    while v is not node:
        assert v is not NIL
        n += 1
        v = v.left if k <= v.key.k else v.right
    return n


@pytest.mark.parametrize("name", ["topdown", "tight", "overtight"])
def test_insert_without_rotation_compares_once_per_ancestor(rnd, name):
    sink = MetricsSink()
    t = TopDownTree(PARAM_SETS[name], sink=sink)
    plain = 0
    for _ in range(3000):
        k = rnd.randrange(1000)
        rotations = sink.rotation_count
        Counted.calls = 0
        node = t.insert(Counted(k))
        if sink.rotation_count == rotations:
            assert Counted.calls == ancestors(t, node)
            plain += 1
    assert plain > 200


@pytest.mark.parametrize("name", ["topdown", "tight", "overtight"])
def test_delete_compares_at_most_twice_per_level(rnd, name):
    sink = MetricsSink()
    t = TopDownTree(PARAM_SETS[name], sink=sink)
    for _ in range(1500):
        t.insert(Counted(rnd.randrange(1000)))
    plain = misses = 0
    for _ in range(2000):
        k = rnd.randrange(1000)
        path = search_path_length(t, k)
        rotations = sink.rotation_count
        Counted.calls = 0
        hit = t.delete(Counted(k))
        rotated = sink.rotation_count - rotations
        # A miss walks its path once more, with one < per node.
        if rotated == 0:
            # == then < at every node passed, == alone at a hit.
            assert Counted.calls == 2 * path - hit + (0 if hit else path)
            plain += 1
            misses += not hit
        else:
            # A repair may deepen the key by one level and re-examines
            # the node it raises.
            assert Counted.calls <= (2 * path + 4 * rotated
                                     + (0 if hit else path + rotated))
    assert plain > 200 and misses > 20


keys_strategy = st.lists(st.integers(0, 40), min_size=0, max_size=120)
param_names = st.sampled_from(["classic", "integral", "topdown", "tight", "overtight"])


@given(param_names, keys_strategy, keys_strategy)
def test_matches_sorted_oracle_under_any_params(name, inserts, deletes):
    t = TopDownTree(PARAM_SETS[name])
    o = SortedMultisetOracle()
    for k in inserts:
        t.insert(k)
        o.insert(k)
    for k in deletes:
        assert t.delete(k) == o.remove(k)
    assert t.inorder_keys() == o.keys()
    assert len(t) == len(o)
    assert audit_structure(t) == []


@given(keys_strategy, keys_strategy)
@settings(max_examples=40)
def test_guaranteed_params_pass_full_audit(inserts, deletes):
    t = TopDownTree(PARAM_SETS["topdown"])
    for k in inserts:
        t.insert(k)
        assert count_violations(t) == 0
    for k in deletes:
        t.delete(k)
        assert count_violations(t) == 0
    assert audit_balance(t) == []


# --- parent-free nodes -------------------------------------------------------

def seeded(name, sink=None):
    """A churned tree of even keys under the named set, so every odd key
    is absent and every even one may be present more than once."""
    rng = random.Random(name)
    t = TopDownTree(params_from_name(name), sink=sink)
    for _ in range(300):
        t.insert(2 * rng.randrange(150))
    for _ in range(100):
        t.delete(2 * rng.randrange(150))
    return t


@pytest.mark.parametrize("name", PARAMS)
def test_delete_miss_leaves_the_tree_as_it_was(name):
    sink = MetricsSink()
    t = seeded(name, sink)
    plain = 0
    for k in range(-1, 302, 2):
        before = dump(t)
        keys = t.inorder_keys()
        rotations = sink.rotation_count
        assert t.delete(k) is False
        if sink.rotation_count == rotations:
            assert dump(t) == before
            plain += 1
        else:
            # Rotations made on the way down stay; weights are exact.
            assert t.inorder_keys() == keys
        assert audit_structure(t) == [] and len(t) == len(keys)
    assert plain > 80


@pytest.mark.parametrize("name", PARAMS)
def test_raising_key_leaves_exact_weights(name):
    # Every budget short of what the op needs raises at a later comparison:
    # in the descent, in a repair's gamma test or re-aim, and for the absent
    # key (odd) also in the second walk, which makes the op's last
    # comparisons. audit_structure checks every stored weight.
    base = seeded(name)
    keys = base.inorder_keys()
    present = keys[len(keys) // 2]
    cases = [("insert", 151), ("delete", present), ("delete", 151)]
    # A double can raise the key's own empty slot, below a leaf that is its
    # parent's only child, under delta < 3 and gamma < 2 only: the node is
    # hung there, then rotated up, so it alone ends with children at once.
    params = base.params
    slot = [k for k in range(1, 300, 2)
            if base.clone().insert(k).left is not NIL]
    assert bool(slot) == (params.dn < 3 * params.dd
                          and params.gn < 2 * params.gd)
    cases += [("insert", k) for k in slot[:1]]
    for op, k in cases:
        spare = Fuse(k, 10 ** 6)
        getattr(base.clone(), op)(spare)
        needed = 10 ** 6 - spare.budget
        assert needed > 2
        for budget in range(needed):
            t = base.clone()
            with pytest.raises(RuntimeError):
                getattr(t, op)(Fuse(k, budget))
            assert t.inorder_keys() == keys and len(t) == len(keys)
            assert audit_structure(t) == []


def test_top_down_trees_are_freed_without_the_collector():
    # No tree keeps parent links, so dropping one frees it by reference
    # counting alone: the collector finds nothing left of it.
    was = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for make in (lambda: TopDownTree(PARAM_SETS["topdown"]),
                     lambda: BottomUpTree(PARAM_SETS["integral"]),
                     RedBlackTree):
            t = make()
            for k in range(3000):
                t.insert(k)
            for k in range(0, 3000, 3):
                t.delete(k)
            t.delete(-1)
            c = t.clone()
            del t, c
            assert gc.collect() == 0
    finally:
        if was:
            gc.enable()


def built_bytes_per_key(make, keys) -> float:
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        t = make()
        for k in keys:
            t.insert(k)
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return used / len(keys)


def test_top_down_nodes_carry_no_parent_and_take_64_bytes():
    # Both weight-balanced schemes build the same parent-free Node; the
    # red-black baseline's RbNode swaps the weight for a colour bit. Each
    # is four slots, 64 B per key under tracemalloc.
    rng = random.Random(12)
    keys = [rng.randrange(1 << 60) for _ in range(10 ** 4)]
    makers = {"top_down": lambda: TopDownTree(PARAM_SETS["topdown"]),
              "bottom_up": lambda: BottomUpTree(PARAM_SETS["integral"]),
              "redblack": RedBlackTree}
    for name, make in makers.items():
        t = make()
        for k in keys[:500]:
            t.insert(k)
        node = RbNode if name == "redblack" else Node
        stack = [t.root]
        while stack:
            v = stack.pop()
            assert type(v) is node and not hasattr(v, "parent")
            stack += [c for c in (v.left, v.right) if c is not NIL]
    sizes = {name: built_bytes_per_key(make, keys)
             for name, make in makers.items()}
    assert max(sizes.values()) < 65, sizes


def test_tight_is_not_sound_top_down():
    # The witness behind README's "no" for `tight` (<2, 3/2>) under the
    # top-down scheme: a balanced five-key tree that one insert leaves out
    # of balance, with every stored weight still true.
    t = TopDownTree(PARAM_SETS["tight"])
    t.root = build((2, (0, None, None), (6, (4, None, None), (8, None, None))))
    t.size = 5
    assert audit_balance(t) == []
    t.insert(3)
    assert structure_string(t) == "(6 (2 (0 . .) (4 (3 . .) .)) (8 . .))"
    assert audit_structure(t) == []
    assert audit_balance(t) == ["balance at 6: true weights (5, 2)"]
