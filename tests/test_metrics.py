import math
import random

import pytest

from wbtree import core, redblack
from wbtree.bench import expand_variants
from wbtree.bottom_up import BottomUpTree
from wbtree.metrics import (
    CSV_COLUMNS,
    MetricsRecord,
    MetricsSink,
    average_depth,
    count_violations,
    max_depth,
    summarize_ns,
)
from wbtree.core import NIL, structure_string
from wbtree.params import PARAM_SETS, make_params, params_from_name
from wbtree.redblack import RedBlackTree
from wbtree.top_down import TopDownTree

from test_core import dump, tree_of
from test_golden import PARAMS
from test_top_down import Counted


def test_sink_single_accumulates():
    s = MetricsSink()
    s.record_rotation(5)
    s.record_rotation(2)
    assert s.rotation_count == 2
    assert s.rotated_weight_total == 7


def test_count_violations_on_broken_shape():
    # A left chain of five nodes: the top two both violate delta = 3.
    chain = (5, (4, (3, (2, (1, None, None), None), None), None), None)
    assert count_violations(tree_of(chain)) == 2
    # Under delta = 4 only the root (weights 5 and 1) is out of bounds.
    assert count_violations(tree_of(chain, make_params(4, 2))) == 1


def test_count_violations_zero_on_balanced():
    t = tree_of((2, (1, None, None), (3, None, None)))
    assert count_violations(t) == 0
    t2 = BottomUpTree(PARAM_SETS["classic"])
    for k in range(100):
        t2.insert(k)
    assert count_violations(t2) == 0


def two_sided_violations(t) -> int:
    """count_violations by its definition: both inequalities at every
    node."""
    dn, dd = t.params.dn, t.params.dd
    bad = 0
    stack = [t.root] if t.root is not NIL else []
    while stack:
        v = stack.pop()
        wl, wr = v.left.weight, v.right.weight
        if wl * dn < wr * dd or wr * dn < wl * dd:
            bad += 1
        stack += [c for c in (v.left, v.right) if c is not NIL]
    return bad


@pytest.mark.parametrize("name", PARAMS)
def test_count_violations_matches_the_two_sided_test(rnd, name):
    # Random trees under each set: unbalanced BSTs built by plain inserts,
    # and trees each scheme churned, which the unsound sets leave out of
    # balance. The one-sided scan must count exactly what both
    # inequalities count, classic's floats included.
    params = params_from_name(name)
    seen = 0
    for n in (0, 1, 2, 5, 40, 300):
        keys = [rnd.randrange(n + 1) for _ in range(n)]
        # Under delta = 10^9 nothing rotates: a plain BST, read under params.
        plain = BottomUpTree(make_params(10 ** 9, 1))
        for k in keys:
            plain.insert(k)
        plain.params = params
        trees = [plain]
        for cls in (TopDownTree, BottomUpTree):
            t = cls(params)
            for k in keys:
                t.insert(k)
            for k in keys[::3]:
                t.delete(k)
                t.insert(rnd.randrange(n + 1))
            trees.append(t)
        for t in trees:
            want = two_sided_violations(t)
            assert count_violations(t) == want
            seen += want
    assert seen > 0


def test_average_depth_examples():
    t = tree_of((2, (1, None, None), (3, None, None)))
    assert average_depth(t) == pytest.approx(2 / 3)
    chain = tree_of((1, None, (2, None, (3, None, None))))
    assert average_depth(chain) == pytest.approx(1.0)
    assert average_depth(tree_of(None)) == 0.0


def test_average_depth_uses_per_tree_sentinel():
    rb = RedBlackTree()
    for k in [2, 1, 3]:
        rb.insert(k)
    assert average_depth(rb) == pytest.approx(2 / 3)


def test_max_depth():
    assert max_depth(tree_of(None)) == -1
    assert max_depth(tree_of((1, None, None))) == 0
    assert max_depth(tree_of((1, None, (2, None, (3, None, None))))) == 2


def depths_by_recursion(v, nil, d=0):
    """Every node's depth, by the definition: the old tuple-stack scans
    and this walk see the same multiset."""
    if v is nil:
        return []
    return ([d] + depths_by_recursion(v.left, nil, d + 1)
            + depths_by_recursion(v.right, nil, d + 1))


@pytest.mark.parametrize("make", [
    lambda: TopDownTree(PARAM_SETS["tight"]),
    lambda: BottomUpTree(PARAM_SETS["overtight"]),
    RedBlackTree,
], ids=["top_down", "bottom_up", "redblack"])
def test_level_scans_match_the_depth_definitions(rnd, make):
    for n in (0, 1, 2, 7, 100, 900):
        t = make()
        for _ in range(n):
            t.insert(rnd.randrange(n // 2 + 1))
        depths = depths_by_recursion(t.root, NIL)
        assert max_depth(t) == (max(depths) if depths else -1)
        assert average_depth(t) == (sum(depths) / len(depths) if depths
                                    else 0.0)


def test_summarize_ns():
    mean, std = summarize_ns([100, 200], 10)
    assert mean == pytest.approx(15.0)
    assert std == pytest.approx(5.0)
    assert summarize_ns([], 10) == (0.0, 0.0)
    assert summarize_ns([100], 0) == (0.0, 0.0)


def test_summarize_ns_std_is_population():
    vals = [10, 20, 30, 40]
    mean, std = summarize_ns(vals, 1)
    expect = math.sqrt(sum((v - 25) ** 2 for v in vals) / 4)
    assert std == pytest.approx(expect)


def test_record_round_trips_through_columns():
    rec = MetricsRecord(experiment="insert-pct", variant="top_down/classic",
                        params="classic", seed=3, ops=50, elapsed_ns=12.5)
    row = rec.to_row()
    assert len(row) == len(CSV_COLUMNS)
    assert row[CSV_COLUMNS.index("experiment")] == "insert-pct"
    assert row[CSV_COLUMNS.index("seed")] == "3"
    assert row[CSV_COLUMNS.index("violation_count")] == "-1"
    assert row[CSV_COLUMNS.index("avg_depth")] == "-1.0"


def test_columns_are_stable():
    # The CSV schema is part of the tool's interface; reordering breaks
    # downstream parsing.
    assert CSV_COLUMNS[:4] == ["experiment", "variant", "params", "dist"]
    assert CSV_COLUMNS[-1] == "normalized_elapsed"


VARIANTS = expand_variants(["bottom_up", "top_down", "redblack"], PARAMS[:5])


@pytest.mark.parametrize("vs", VARIANTS, ids=lambda vs: vs.label)
def test_a_sink_adds_no_key_comparisons(vs):
    # A sink books rotations only: the same op stream of counting keys,
    # with misses among its deletes and searches, compares as many keys
    # and leaves the same tree with a sink attached as without one.
    rng = random.Random(7)
    ops = [(rng.randrange(10), rng.randrange(3000)) for _ in range(6000)]
    seen = []
    for sink in (None, MetricsSink()):
        t = vs.make_tree(sink)
        calls = (t.insert,) * 5 + (t.delete,) * 4 + (t.search,)
        Counted.calls = 0
        for op, k in ops:
            calls[op](Counted(k))
        shape = structure_string(t) if vs.scheme == "redblack" else dump(t)
        seen.append((Counted.calls, shape))
    assert seen[0] == seen[1]
    assert sink.rotation_count > 0


@pytest.mark.parametrize("vs", VARIANTS, ids=lambda vs: vs.label)
def test_every_booked_rotation_is_a_link_edit(vs, monkeypatch):
    # A sink books a rotation exactly where a link edit raises a node: on
    # one stream of inserts with duplicates and deletes with misses, the
    # link edits made equal the rotations booked.
    edits = 0

    def counting(link):
        def counted(tree, v, p):
            nonlocal edits
            edits += 1
            return link(tree, v, p)
        return counted

    for name in ("link_left", "link_right"):
        counted = counting(getattr(core, name))
        monkeypatch.setattr(core, name, counted)
        monkeypatch.setattr(redblack, name, counted)
    rng = random.Random(11)
    sink = MetricsSink()
    t = vs.make_tree(sink)
    for i in range(3000):
        t.insert(rng.randrange(1000))
        if i % 3 == 2:
            t.delete(rng.randrange(1000))
    assert edits == sink.rotation_count > 0
