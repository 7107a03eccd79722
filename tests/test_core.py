import pytest
from hypothesis import given, strategies as st

from wbtree.bottom_up import BottomUpTree
from wbtree.core import (
    NIL,
    Node,
    Tree,
    link_left,
    relink_predecessor,
    rotate_left,
    rotate_right,
    splice_out,
    structure_string,
)
from wbtree.metrics import MetricsSink
from wbtree.oracle import audit_structure
from wbtree.params import PARAM_SETS
from wbtree.redblack import RbNode, RedBlackTree
from wbtree.redblack import audit as rb_audit
from wbtree.top_down import TopDownTree


def build(shape):
    """Build a node graph from (key, left, right) tuples; None is empty.

    Weights are computed from the shape, so tests tamper with them
    explicitly when they want a broken tree.
    """
    if shape is None:
        return NIL
    key, l, r = shape
    v = Node(key, build(l), build(r))
    v.weight = v.left.weight + v.right.weight
    return v


def tree_of(shape, params=PARAM_SETS["integral"]):
    t = Tree(params)
    t.root = build(shape)
    t.size = 0 if t.root is NIL else t.root.weight - 1
    return t


def subtree_maximum(v: Node) -> Node:
    """Rightmost node below v; v must not be NIL."""
    while v.right is not NIL:
        v = v.right
    return v


def dump(t) -> str:
    """Two-line debug dump of a weight-balanced tree: in-order key:weight
    pairs, then the shape."""
    pairs = []
    stack = []
    v = t.root
    while stack or v is not NIL:
        while v is not NIL:
            stack.append(v)
            v = v.left
        v = stack.pop()
        pairs.append(f"{v.key}:{v.weight}")
        v = v.right
    return " ".join(pairs) + "\n" + structure_string(t)


def test_nil_sentinel_shape():
    # One sentinel for all three trees: the weight a weight-balanced tree
    # reads and the colour a red-black one reads, in neither node class.
    assert NIL.weight == 1 and NIL.red is False
    assert NIL.left is NIL and NIL.right is NIL
    assert NIL.key is None and type(NIL) not in (Node, RbNode)
    assert not hasattr(NIL, "parent")
    for t in (Tree(PARAM_SETS["integral"]), RedBlackTree()):
        assert t.root is NIL


def test_manual_build_weights():
    t = tree_of((10, (5, None, None), (20, (15, None, None), None)))
    assert t.root.weight == 5
    assert t.root.left.weight == 2
    assert t.root.right.weight == 3
    assert len(t) == 4
    assert audit_structure(t) == []


def test_structure_string_and_dump():
    t = tree_of((10, (5, None, None), (20, (15, None, None), None)))
    assert structure_string(t) == "(10 (5 . .) (20 (15 . .) .))"
    assert dump(t) == "5:2 10:5 15:2 20:3\n(10 (5 . .) (20 (15 . .) .))"


def test_empty_tree_reads():
    t = tree_of(None)
    assert len(t) == 0
    assert t.search(1) is None
    assert t.inorder_keys() == []
    assert structure_string(t) == "."
    assert audit_structure(t) == []


def test_search_min_max_inorder():
    t = tree_of((10, (5, (2, None, None), (7, None, None)), (20, None, None)))
    assert t.search(7).key == 7
    assert t.search(11) is None
    assert t.inorder_keys() == [2, 5, 7, 10, 20]
    assert subtree_maximum(t.root.left).key == 7


def test_search_returns_highest_duplicate_on_path():
    # Equal key in the left child: descent stops at the root occurrence.
    t = tree_of((10, (10, None, None), (20, None, None)))
    assert t.search(10) is t.root
    assert audit_structure(t) == []


def test_clone_is_deep_and_unlinked():
    t = tree_of((10, (5, None, None), (20, (15, None, None), None)))
    t.sink = MetricsSink()
    c = t.clone()
    assert dump(c) == dump(t)
    assert c.sink is None
    assert audit_structure(c) == []
    assert c.root is not t.root
    t.root.key = 99
    assert c.root.key == 10


def test_clone_copies_the_node_class_and_colours():
    # A tree clones into its own node class: Node for both weight-balanced
    # schemes, RbNode, colours included, for the red-black tree. Neither
    # has a parent link.
    shape = (10, (5, None, None), (20, (15, None, None), None))
    for cls in (Tree, TopDownTree, BottomUpTree):
        t = cls(PARAM_SETS["integral"])
        t.root = build(shape)
        t.size = 4
        c = t.clone()
        assert dump(c) == dump(t)
        assert {type(c.root), type(c.root.right.left)} == {Node}
        assert not hasattr(c.root, "parent")
        assert audit_structure(c) == []
    t = RedBlackTree()
    for k in (10, 5, 20, 15):
        t.insert(k)
    c = t.clone()
    assert structure_string(c) == structure_string(t)
    assert {type(c.root), type(c.root.right.left)} == {RbNode}
    assert c.root.left.left is NIL and c.root.right.right is NIL
    assert [c.root.red, c.root.left.red, c.root.right.red,
            c.root.right.left.red] == [False, False, False, True]
    assert not hasattr(c.root, "parent")
    assert rb_audit(c) == []


def test_single_rotation_weights_and_links():
    t = tree_of((10, None, (20, None, (30, None, None))))
    sink = MetricsSink()
    t.sink = sink
    top = rotate_left(t, t.root, NIL)
    assert top.key == 20 and t.root is top
    assert structure_string(t) == "(20 (10 . .) (30 . .))"
    assert (t.root.weight, t.root.left.weight, t.root.right.weight) == (4, 2, 2)
    assert sink.rotation_count == 1
    assert sink.rotated_weight_total == 4  # pivot weight before the rotation
    assert audit_structure(t) == []


def test_single_rotation_right_mirror():
    t = tree_of((30, (20, (10, None, None), None), None))
    top = rotate_right(t, t.root, NIL)
    assert structure_string(t) == "(20 (10 . .) (30 . .))"
    assert top.weight == 4
    assert audit_structure(t) == []


def test_rotation_below_root_relinks_parent():
    t = tree_of((50, (10, None, (20, None, (30, None, None))), (60, None, None)))
    top = rotate_left(t, t.root.left, t.root)
    assert structure_string(t) == "(50 (20 (10 . .) (30 . .)) (60 . .))"
    assert t.root.left is top
    assert audit_structure(t) == []


def test_double_rotation_raises_inner_grandchild():
    t = tree_of((10, (5, None, None), (20, (15, None, None), None)))
    sink = MetricsSink()
    t.sink = sink
    rotate_right(t, t.root.right, t.root)
    top = rotate_left(t, t.root, NIL)
    assert top.key == 15 and t.root is top
    assert structure_string(t) == "(15 (10 (5 . .) .) (20 . .))"
    assert (top.weight, top.left.weight, top.right.weight) == (5, 3, 2)
    # A double rotation books two rotations: the heavy-child pivot's
    # weight (3) plus v's weight (5), both pre-rotation.
    assert sink.rotation_count == 2
    assert sink.rotated_weight_total == 8
    assert audit_structure(t) == []


@given(st.lists(st.integers(-50, 50), min_size=2, max_size=80))
def test_single_rotations_preserve_order_and_structure(keys):
    t = BottomUpTree(PARAM_SETS["integral"])
    for k in keys:
        t.insert(k)
    before = t.inorder_keys()
    if t.root.right is not NIL:
        rotate_left(t, t.root, NIL)
    if t.root.left is not NIL:
        rotate_right(t, t.root, NIL)
    assert t.inorder_keys() == before
    assert audit_structure(t) == []


@given(st.lists(st.integers(-50, 50), min_size=4, max_size=80))
def test_double_rotations_preserve_order_and_structure(keys):
    t = BottomUpTree(PARAM_SETS["integral"])
    for k in keys:
        t.insert(k)
    before = t.inorder_keys()
    if t.root.right is not NIL and t.root.right.left is not NIL:
        rotate_right(t, t.root.right, t.root)
        rotate_left(t, t.root, NIL)
    if t.root.left is not NIL and t.root.left.right is not NIL:
        rotate_left(t, t.root.left, t.root)
        rotate_right(t, t.root, NIL)
    assert t.inorder_keys() == before
    assert audit_structure(t) == []


def settle(t, *path):
    """Refresh weights along path, root first, after a delete's link edit
    (which edits links only)."""
    for v in reversed(path):
        v.weight = v.left.weight + v.right.weight
    t.size -= 1


def test_splice_out_leaf_one_child_and_root():
    t = tree_of((10, (5, None, None), (20, None, None)))
    assert splice_out(t, t.root.left, t.root) is NIL
    assert t.root.weight == 4  # links only; the caller refreshes weights
    settle(t, t.root)
    assert structure_string(t) == "(10 . (20 . .))"
    assert audit_structure(t) == []

    t = tree_of((10, (5, (2, None, None), None), (20, None, None)))
    assert splice_out(t, t.root.left, t.root) is t.root.left
    assert t.root.left.key == 2
    settle(t, t.root)
    assert structure_string(t) == "(10 (2 . .) (20 . .))"
    assert audit_structure(t) == []

    t = tree_of((10, None, (20, None, None)))
    assert splice_out(t, t.root, NIL) is t.root
    assert t.root.key == 20
    settle(t)
    assert structure_string(t) == "(20 . .)"
    assert audit_structure(t) == []


@pytest.mark.parametrize("outer", [False, True])
def test_relink_predecessor_that_is_the_left_child(outer):
    # u = v.left keeps its own left subtree and gains v's right one.
    inner = (10, (5, (2, None, None), None), (20, None, None))
    t = tree_of((50, inner, (60, None, None)) if outer else inner)
    g = t.root if outer else NIL
    v = t.root.left if outer else t.root
    u = v.left
    assert relink_predecessor(t, v, g, u, v) is u
    assert (u.left.key, u.right.key) == (2, 20)
    assert (g.left if outer else t.root) is u
    settle(t, *([g, u] if outer else [u]))
    shape = "(5 (2 . .) (20 . .))"
    assert structure_string(t) == (f"(50 {shape} (60 . .))" if outer else shape)
    assert audit_structure(t) == []


@pytest.mark.parametrize("outer", [False, True])
def test_relink_deeper_predecessor_hands_its_slot_to_its_left_child(outer):
    inner = (10, (5, (2, None, None), (8, (7, None, None), None)),
             (20, None, None))
    t = tree_of((50, inner, (60, None, None)) if outer else inner)
    g = t.root if outer else NIL
    v = t.root.left if outer else t.root
    five = v.left
    u = subtree_maximum(five)
    assert u.key == 8
    assert relink_predecessor(t, v, g, u, five) is five
    assert five.right.key == 7
    assert u.left is five and u.right.key == 20
    assert (g.left if outer else t.root) is u
    settle(t, *([g, u, five] if outer else [u, five]))
    shape = "(8 (5 (2 . .) (7 . .)) (20 . .))"
    assert structure_string(t) == (f"(50 {shape} (60 . .))" if outer else shape)
    assert audit_structure(t) == []


def test_core_edits_write_no_parent_field():
    # Each edit takes the parent as an argument: a splice, a predecessor
    # relink and both link edits leave a sound tree of parent-free nodes.
    t = tree_of((10, (5, (2, None, None), (8, (7, None, None), None)),
                 (20, None, (30, None, None))))
    five = t.root.left
    assert splice_out(t, t.root.right, t.root).key == 30
    assert relink_predecessor(t, t.root, NIL, five.right, five) is five
    assert structure_string(t) == "(8 (5 (2 . .) (7 . .)) (30 . .))"
    assert link_left(t, five, t.root).key == 7
    assert structure_string(t) == "(8 (7 (5 (2 . .) .) .) (30 . .))"
    for v in (t.root.left.left, t.root.left, t.root):
        v.weight = v.left.weight + v.right.weight
    t.size -= 2
    assert audit_structure(t) == []
