import hashlib
import random
import sys

import pytest
from hypothesis import given, strategies as st

from wbtree import bench, oracle
from wbtree.core import NIL, structure_string
from wbtree.metrics import MetricsSink, max_depth
from wbtree.oracle import SortedMultisetOracle
from wbtree.redblack import BLACK, RED, RedBlackTree, audit

from test_top_down import Fuse


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
    while stack or v is not NIL:
        while v is not NIL:
            stack.append(v)
            v = v.left
        v = stack.pop()
        out.append(v)
        v = v.right
    return out


@pytest.mark.parametrize("op,present", [("insert", False),
                                        ("delete", True), ("delete", False)])
def test_raising_comparison_changes_nothing(op, present):
    # Both ops compare keys only while recording their path, before any
    # link or colour changes, so a key that raises at any comparison
    # leaves the shape, every colour and the size as they were.
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

    def state(t):
        return structure_string(t), [v.red for v in _nodes_inorder(t)]

    before = state(base)
    for budget in range(needed):
        t = base.clone()
        with pytest.raises(RuntimeError):
            getattr(t, op)(Fuse(k, budget))
        assert state(t) == before and len(t) == len(keys)


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
        assert len(t) == 0 and t.root is NIL

    assert fixup_lines_run(ops) == {"_insert_fixup": [], "_delete_fixup": []}


# Red-black audit parity: each case's verdict and its sorted colour lines
# (black-height splits and red-red pairs), recorded with the red-black
# tree's own post-order audit before the referee's walk took it over.
RB_SIZES = (50, 500)
RB_SEEDS = (1, 2, 3)
RB_FAULTS = (None, "colour", "red-root", "size", "key")
RB_AUDIT_GOLDEN = \
    "9b553ff0682b0d64212f6b345ea04a0d98a9467ce0fd32a8f8d6d0521dfb54a1"


def faulted_rb_tree(size, seed, fault):
    """A seeded red-black tree after size inserts and 2*size delete/insert
    pairs, then one injected fault."""
    rng = random.Random(seed)
    t = RedBlackTree()
    universe = 2 * size + 4
    for _ in range(size):
        t.insert(rng.randrange(universe))
    for _ in range(2 * size):
        t.delete(rng.randrange(universe))
        t.insert(rng.randrange(universe))
    # Breadth-first, each node with its parent.
    nodes, parent = [t.root], {}
    for v in nodes:
        for c in (v.left, v.right):
            if c is not NIL:
                parent[c] = v
                nodes.append(c)
    if fault == "size":
        t.size += 1
    elif fault == "red-root":
        t.root.red = RED
    elif fault == "colour":
        v = rng.choice(nodes[1:])
        v.red = not v.red
    elif fault == "key":
        v = rng.choice(nodes[1:])
        p = parent[v]
        # Past its parent: a left child above it, a right one below.
        v.key = p.key + 1 if v is p.left else p.key - 1
    return t


def rb_audit_digest(audit) -> str:
    h = hashlib.sha256()
    for size in RB_SIZES:
        for seed in RB_SEEDS:
            for fault in RB_FAULTS:
                lines = audit(faulted_rb_tree(size, seed, fault))
                colour = sorted(line for line in lines
                                if line.startswith(("black-height", "red node")))
                verdict = "faulty" if lines else "clean"
                h.update(f"{size} {seed} {fault} {verdict}\n"
                         f"{colour!r}\n".encode())
    return h.hexdigest()


def test_audit_matches_the_parity_digest():
    # One audit under three names: the referee's, the tree module's and
    # the harness's.
    assert audit is oracle.audit_redblack is bench.rb_audit
    assert rb_audit_digest(audit) == RB_AUDIT_GOLDEN
