import random
import sys

from hypothesis import given, strategies as st

from wbtree.core import structure_string
from wbtree.metrics import MetricsSink, max_depth
from wbtree.oracle import SortedMultisetOracle
from wbtree.redblack import BLACK, RED, RedBlackTree, audit


def grown(keys, sink=None):
    t = RedBlackTree(sink=sink)
    for k in keys:
        t.insert(k)
    return t


def test_empty_tree_is_clean():
    t = RedBlackTree()
    assert audit(t) == []
    assert len(t) == 0
    assert t.inorder_keys() == []


def test_small_inserts_keep_properties():
    t = grown([10, 20, 30])  # forces the recolor/rotate path at the root
    assert audit(t) == []
    assert t.root.key == 20
    assert t.root.red is BLACK
    assert t.inorder_keys() == [10, 20, 30]


def test_sorted_inserts_stay_logarithmic():
    t = grown(range(512))
    assert audit(t) == []
    # Node count on the deepest root-to-node path, within 2 * log2(n + 1).
    assert max_depth(t) + 1 <= 2 * 10


def test_duplicates_are_kept():
    t = grown([5, 5, 5])
    assert t.inorder_keys() == [5, 5, 5]
    assert audit(t) == []
    assert t.delete(5) and t.delete(5) and t.delete(5)
    assert not t.delete(5)
    assert len(t) == 0


def test_delete_cases():
    t = grown([10, 5, 20, 3, 7, 15, 30, 1])
    assert t.delete(99) is False
    for k in [3, 20, 10, 1]:
        assert t.delete(k) is True
        assert audit(t) == []
    assert t.inorder_keys() == [5, 7, 15, 30]


def test_search_miss_and_hit():
    t = grown([4, 2, 6])
    assert t.search(6).key == 6
    assert t.search(5) is None


def test_clone_preserves_colors_and_shape():
    t = grown(range(40))
    c = t.clone()
    assert structure_string(c) == structure_string(t)
    assert audit(c) == []
    originals = list(zip(t.inorder_keys(), [n.red for n in _nodes_inorder(t)]))
    copies = list(zip(c.inorder_keys(), [n.red for n in _nodes_inorder(c)]))
    assert originals == copies
    t.delete(17)
    assert c.search(17) is not None


def _nodes_inorder(t):
    out = []
    v = t.root
    stack = []
    while stack or v is not t.nil:
        while v is not t.nil:
            stack.append(v)
            v = v.left
        v = stack.pop()
        out.append(v)
        v = v.right
    return out


def test_sink_counts_rotations():
    sink = MetricsSink()
    t = grown(range(100), sink=sink)
    assert sink.rotation_count > 0
    assert sink.rotated_weight_total > sink.rotation_count


def test_audit_detects_seeded_breakage():
    t = grown(range(10))
    t.root.red = RED
    assert any("root is red" in line for line in audit(t))
    t.root.red = BLACK
    v = t.search(3)
    old = v.red
    # force a red-red or black-height problem by flipping one color
    v.red = not old
    assert audit(t) != []
    v.red = old
    assert audit(t) == []
    t.size += 1
    assert any("size" in line for line in audit(t))


keys_strategy = st.lists(st.integers(0, 60), min_size=0, max_size=150)


@given(keys_strategy, keys_strategy)
def test_matches_sorted_oracle(inserts, deletes):
    t = RedBlackTree()
    o = SortedMultisetOracle()
    for k in inserts:
        t.insert(k)
        o.insert(k)
    for k in deletes:
        assert t.delete(k) == o.remove(k)
    assert t.inorder_keys() == o.keys()
    assert len(t) == len(o)
    assert audit(t) == []


def fixup_lines_run(ops):
    """Run ops on the tree with a line tracer on both fixups; returns the
    lines of each fixup that never ran."""
    fixups = {RedBlackTree._insert_fixup.__code__: set(),
              RedBlackTree._delete_fixup.__code__: set()}

    def local(frame, event, arg):
        if event == "line":
            fixups[frame.f_code].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code in fixups else None

    sys.settrace(tracer)
    try:
        ops()
    finally:
        sys.settrace(None)
    missed = {}
    for code, ran in fixups.items():
        body = {ln for _, _, ln in code.co_lines()
                if ln is not None and ln != code.co_firstlineno}
        missed[code.co_name] = sorted(body - ran)
    return missed


def test_differential_against_the_oracle_runs_every_fixup_case():
    # Seeded mixed ops over a small universe, then a drain: duplicates,
    # absent deletes and enough churn that every line of both fixups runs,
    # so both insert rotations and all four delete cases are taken on each
    # side. The audit runs after every op.
    rng = random.Random(14)
    t = RedBlackTree()
    o = SortedMultisetOracle()

    def ops():
        for _ in range(3000):
            k = rng.randrange(40)
            if rng.random() < 0.5:
                t.insert(k)
                o.insert(k)
            else:
                assert t.delete(k) == o.remove(k)
            assert audit(t) == []
            assert len(t) == len(o)
        assert t.inorder_keys() == o.keys()
        # Drain it: the last deletes climb to the root and empty the tree.
        for k in o.keys():
            assert t.delete(k) and audit(t) == []
        assert len(t) == 0 and t.root is t.nil

    assert fixup_lines_run(ops) == {"_insert_fixup": [], "_delete_fixup": []}
