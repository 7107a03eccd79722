import pytest
from hypothesis import given, strategies as st

from wbtree.bottom_up import BottomUpTree
from wbtree.core import (
    NIL,
    LinkedNode,
    Node,
    Tree,
    link_left,
    linked_left,
    linked_relink_predecessor,
    linked_right,
    linked_splice_out,
    relink_predecessor,
    rotate_left,
    rotate_right,
    splice_out,
    structure_string,
    subtree_maximum,
)
from wbtree.metrics import MetricsSink
from wbtree.oracle import audit_structure
from wbtree.params import PARAM_SETS


def build(shape, parent=NIL, linked=True):
    """Build a node graph from (key, left, right) tuples; None is empty.
    LinkedNodes with their parent links, or parent-free Nodes.

    Weights are computed from the shape, so tests tamper with them
    explicitly when they want a broken tree.
    """
    if shape is None:
        return NIL
    key, l, r = shape
    v = (LinkedNode if linked else Node)(key, NIL, NIL)
    if linked:
        v.parent = parent
    v.left = build(l, v, linked)
    v.right = build(r, v, linked)
    v.weight = v.left.weight + v.right.weight
    return v


def tree_of(shape, params=PARAM_SETS["integral"], linked=True):
    t = Tree(params)
    t.root = build(shape, linked=linked)
    t.size = 0 if t.root is NIL else t.root.weight - 1
    return t


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
    assert NIL.weight == 1
    assert NIL.left is NIL and NIL.right is NIL and NIL.parent is NIL
    assert NIL.key is None


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


def test_clone_copies_the_node_class_with_its_parent_links():
    # A tree clones into its own node class: Node for the base and top-down
    # trees, LinkedNode, parents included, for the bottom-up tree.
    for cls, node in ((Tree, Node), (BottomUpTree, LinkedNode)):
        t = cls(PARAM_SETS["integral"])
        t.root = build((10, (5, None, None), (20, (15, None, None), None)))
        t.size = 4
        c = t.clone()
        assert dump(c) == dump(t)
        assert {type(c.root), type(c.root.right.left)} == {node}
        assert audit_structure(c) == []  # checks the parents it carries
        if node is LinkedNode:
            assert c.root.parent is NIL
            assert c.root.right.left.parent is c.root.right


def test_single_rotation_weights_and_links():
    t = tree_of((10, None, (20, None, (30, None, None))))
    sink = MetricsSink()
    t.sink = sink
    top = linked_left(rotate_left, t, t.root)
    assert top.key == 20 and t.root is top
    assert structure_string(t) == "(20 (10 . .) (30 . .))"
    assert (t.root.weight, t.root.left.weight, t.root.right.weight) == (4, 2, 2)
    assert t.root.parent is NIL
    assert t.root.left.parent is top and t.root.right.parent is top
    assert sink.rotation_count == 1
    assert sink.rotated_weight_total == 4  # pivot weight before the rotation
    assert audit_structure(t) == []


def test_single_rotation_right_mirror():
    t = tree_of((30, (20, (10, None, None), None), None), linked=False)
    top = rotate_right(t, t.root, NIL)
    assert structure_string(t) == "(20 (10 . .) (30 . .))"
    assert top.weight == 4
    assert audit_structure(t) == []


def test_rotation_below_root_relinks_parent():
    t = tree_of((50, (10, None, (20, None, (30, None, None))), (60, None, None)))
    linked_left(rotate_left, t, t.root.left)
    assert structure_string(t) == "(50 (20 (10 . .) (30 . .)) (60 . .))"
    assert t.root.left.parent is t.root
    assert audit_structure(t) == []


def test_double_rotation_raises_inner_grandchild():
    # The core edits alone, on parent-free nodes.
    t = tree_of((10, (5, None, None), (20, (15, None, None), None)),
                linked=False)
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
        linked_left(rotate_left, t, t.root)
    if t.root.left is not NIL:
        linked_right(rotate_right, t, t.root)
    assert t.inorder_keys() == before
    assert audit_structure(t) == []


@given(st.lists(st.integers(-50, 50), min_size=4, max_size=80))
def test_double_rotations_preserve_order_and_structure(keys):
    t = BottomUpTree(PARAM_SETS["integral"])
    for k in keys:
        t.insert(k)
    before = t.inorder_keys()
    if t.root.right is not NIL and t.root.right.left is not NIL:
        linked_right(rotate_right, t, t.root.right)
        linked_left(rotate_left, t, t.root)
    if t.root.left is not NIL and t.root.left.right is not NIL:
        linked_left(rotate_left, t, t.root.left)
        linked_right(rotate_right, t, t.root)
    assert t.inorder_keys() == before
    assert audit_structure(t) == []


def settle(t, low):
    """Refresh weights from low, a link edit's answer, up to the root."""
    while low is not NIL:
        low.weight = low.left.weight + low.right.weight
        low = low.parent
    t.size -= 1


def test_splice_out_leaf_one_child_and_root():
    t = tree_of((10, (5, None, None), (20, None, None)))
    five = t.root.left
    assert linked_splice_out(t, five) is t.root
    assert t.root.weight == 4  # links only; the caller refreshes weights
    settle(t, t.root)
    assert structure_string(t) == "(10 . (20 . .))"
    assert audit_structure(t) == []

    t = tree_of((10, (5, (2, None, None), None), (20, None, None)))
    assert linked_splice_out(t, t.root.left) is t.root
    assert t.root.left.key == 2 and t.root.left.parent is t.root
    settle(t, t.root)
    assert structure_string(t) == "(10 (2 . .) (20 . .))"
    assert audit_structure(t) == []

    t = tree_of((10, None, (20, None, None)))
    assert linked_splice_out(t, t.root) is NIL
    assert t.root.key == 20 and t.root.parent is NIL
    settle(t, NIL)
    assert structure_string(t) == "(20 . .)"
    assert audit_structure(t) == []


@pytest.mark.parametrize("outer", [False, True])
def test_relink_predecessor_that_is_the_left_child(outer):
    # u = v.left keeps its own left subtree and gains v's right one.
    inner = (10, (5, (2, None, None), None), (20, None, None))
    t = tree_of((50, inner, (60, None, None)) if outer else inner)
    v = t.root.left if outer else t.root
    u = v.left
    assert linked_relink_predecessor(t, v, u) is u
    assert (u.left.key, u.right.key) == (2, 20)
    assert u.right.parent is u
    assert u.parent is (t.root if outer else NIL)
    settle(t, u)
    shape = "(5 (2 . .) (20 . .))"
    assert structure_string(t) == (f"(50 {shape} (60 . .))" if outer else shape)
    assert audit_structure(t) == []


@pytest.mark.parametrize("outer", [False, True])
def test_relink_deeper_predecessor_hands_its_slot_to_its_left_child(outer):
    inner = (10, (5, (2, None, None), (8, (7, None, None), None)),
             (20, None, None))
    t = tree_of((50, inner, (60, None, None)) if outer else inner)
    v = t.root.left if outer else t.root
    five = v.left
    u = subtree_maximum(five)
    assert u.key == 8
    assert linked_relink_predecessor(t, v, u) is five
    assert five.right.key == 7 and five.right.parent is five
    assert u.left is five and five.parent is u
    assert u.right.key == 20 and u.right.parent is u
    settle(t, five)
    shape = "(8 (5 (2 . .) (7 . .)) (20 . .))"
    assert structure_string(t) == (f"(50 {shape} (60 . .))" if outer else shape)
    assert audit_structure(t) == []


def test_core_edits_write_no_parent_field():
    # On parent-free nodes each edit takes the parent as an argument: a
    # splice, a predecessor relink and both link edits leave a sound tree.
    t = tree_of((10, (5, (2, None, None), (8, (7, None, None), None)),
                 (20, None, (30, None, None))), linked=False)
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
