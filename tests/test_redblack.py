from hypothesis import given, strategies as st

from wbtree.core import structure_string
from wbtree.metrics import MetricsSink
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


def test_audit_catches_parent_tamper():
    # Red-black nodes are the only ones left with parent links.
    t = grown([2, 1, 3])
    assert audit(t) == []
    t.root.left.parent = t.root.right
    assert "bad parent link at 1" in audit(t)
    t = grown([2, 1, 3])
    t.root.parent = t.root.left
    assert "root parent not sentinel" in audit(t)


def test_sorted_inserts_stay_logarithmic():
    t = grown(range(512))
    assert audit(t) == []

    def depth(v):
        d = 0
        while v is not t.nil:
            v = v.parent
            d += 1
        return d

    deepest = max(depth(t.search(k)) for k in range(512))
    assert deepest <= 2 * 10  # 2 * log2(n + 1) bound


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
