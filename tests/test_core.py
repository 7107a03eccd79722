import random

import pytest
from hypothesis import given, strategies as st

from wbtree.bench import expand_variants
from wbtree.bottom_up import BottomUpTree
from wbtree.core import (
    NIL,
    Node,
    SearchTree,
    Tree,
    attach,
    detach,
    lift,
    raise_child,
    relink_predecessor,
    rotate,
    splice_out,
    structure_string,
    subtree_nodes,
)
from wbtree.metrics import MetricsSink
from wbtree.oracle import audit_structure
from wbtree.params import PARAM_SETS
from wbtree.redblack import RbNode, RedBlackTree
from wbtree.redblack import audit as rb_audit
from wbtree.top_down import TopDownTree

# Every scheme with the five named parameter sets, as test_metrics has.
CLONE_VARIANTS = expand_variants(
    ["bottom_up", "top_down", "redblack"],
    ["classic", "integral", "topdown", "tight", "overtight"])


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


def preorder(t) -> list:
    """Every real node of t, root first."""
    out = []
    stack = [t.root]
    while stack:
        v = stack.pop()
        if v is not NIL:
            out.append(v)
            stack += (v.right, v.left)
    return out


def slot_fields(t) -> dict:
    """Every field a tree's classes declare in __slots__, by name."""
    names = [n for cls in type(t).__mro__
             for n in getattr(cls, "__slots__", ())]
    return {n: getattr(t, n) for n in names}


def copied_view(t):
    """What a clone must reproduce: the shape, each node's key with its
    weight or colour, and every tree field but the root and sink."""
    fields = {k: x for k, x in slot_fields(t).items()
              if k not in ("root", "sink")}
    marks = [(v.key, v.red if type(v) is RbNode else v.weight)
             for v in preorder(t)]
    return structure_string(t), marks, fields


def test_clone_is_deep_and_unlinked():
    # Every variant, empty and with duplicates, clones into an equal tree
    # that shares no node with the original, has no sink, and can be
    # mutated without touching the original.
    rng = random.Random(11)
    keys = [rng.randrange(40) for _ in range(60)]
    for vs in CLONE_VARIANTS:
        for n in (0, len(keys)):
            t = vs.make_tree(MetricsSink())
            for k in keys[:n]:
                t.insert(k)
            before = copied_view(t)
            c = t.clone()
            assert type(c) is type(t), vs
            # Slotted trees: every tree-field load specialises, on a clone
            # as on a fresh tree.
            assert not hasattr(t, "__dict__") and not hasattr(c, "__dict__")
            assert copied_view(c) == before, vs
            audit = rb_audit if vs.params is None else audit_structure
            assert audit(c) == [], vs
            assert len(c) == len(t) == n, vs
            assert getattr(c, "params", None) is vs.params
            if vs.params is not None:
                assert dump(c) == dump(t)
            assert c.sink is None and t.sink is not None, vs
            assert not set(map(id, preorder(c))) & set(map(id, preorder(t)))
            for k in range(0, 50, 3):
                c.insert(k)
            for k in range(0, 50, 2):
                c.delete(k)
            assert copied_view(t) == before, vs


@pytest.mark.parametrize("cls", [Node, RbNode])
def test_node_children_default_to_the_sentinel(cls):
    # A node built with the default children is a sound one-node tree:
    # search misses and hits, insert descends past it, the audit is clean.
    if cls is RbNode:
        t = RedBlackTree()
    else:
        t = TopDownTree(PARAM_SETS["integral"])
    t.root = cls(5)
    t.size = 1
    if cls is RbNode:
        t.root.red = False
    assert t.root.left is NIL and t.root.right is NIL
    assert t.search(3) is None and t.search(5) is t.root
    t.insert(3)
    t.insert(8)
    assert t.inorder_keys() == [3, 5, 8]
    assert (rb_audit if cls is RbNode else audit_structure)(t) == []


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
    top = rotate(t, t.root, t.root.right, NIL)
    assert top.key == 20 and t.root is top
    assert structure_string(t) == "(20 (10 . .) (30 . .))"
    assert (t.root.weight, t.root.left.weight, t.root.right.weight) == (4, 2, 2)
    assert sink.rotation_count == 1
    assert sink.rotated_weight_total == 4  # pivot weight before the rotation
    assert audit_structure(t) == []


def test_single_rotation_right_mirror():
    t = tree_of((30, (20, (10, None, None), None), None))
    top = rotate(t, t.root, t.root.left, NIL)
    assert structure_string(t) == "(20 (10 . .) (30 . .))"
    assert top.weight == 4
    assert audit_structure(t) == []


def test_rotation_below_root_relinks_parent():
    t = tree_of((50, (10, None, (20, None, (30, None, None))), (60, None, None)))
    top = rotate(t, t.root.left, t.root.left.right, t.root)
    assert structure_string(t) == "(50 (20 (10 . .) (30 . .)) (60 . .))"
    assert t.root.left is top
    assert audit_structure(t) == []


def test_double_rotation_raises_inner_grandchild():
    t = tree_of((10, (5, None, None), (20, (15, None, None), None)))
    sink = MetricsSink()
    t.sink = sink
    rotate(t, t.root.right, t.root.right.left, t.root)
    top = rotate(t, t.root, t.root.right, NIL)
    assert top.key == 15 and t.root is top
    assert structure_string(t) == "(15 (10 (5 . .) .) (20 . .))"
    assert (top.weight, top.left.weight, top.right.weight) == (5, 3, 2)
    # A double rotation books two rotations: the heavy-child pivot's
    # weight (3) plus v's weight (5), both pre-rotation.
    assert sink.rotation_count == 2
    assert sink.rotated_weight_total == 8
    assert audit_structure(t) == []


def mirror(shape):
    """The shape reflected left to right, keys negated to keep the order."""
    if shape is None:
        return None
    key, l, r = shape
    return (-key, mirror(r), mirror(l))


# (before, after) of raising 30's left child 10, single and double.
_LEAF = {k: (k, None, None) for k in (5, 15, 20, 25, 40)}
RAISE_SINGLE = ((30, (10, _LEAF[5], _LEAF[20]), _LEAF[40]),
                (10, _LEAF[5], (30, _LEAF[20], _LEAF[40])))
RAISE_DOUBLE = ((30, (10, _LEAF[5], (20, _LEAF[15], _LEAF[25])), _LEAF[40]),
                (20, (10, _LEAF[5], _LEAF[15]), (30, _LEAF[25], _LEAF[40])))


@pytest.mark.parametrize("below", [False, True], ids=["root", "below"])
@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("double", [False, True], ids=["single", "double"])
def test_raise_child(double, side, below):
    # v's child h on either side rises into v's slot, at the root or under
    # a parent; a double first raises h's inner child, which then rises.
    before, after = RAISE_DOUBLE if double else RAISE_SINGLE
    if side == "right":
        before, after = mirror(before), mirror(after)
    if below:
        before = (99, before, (100, None, None))
        after = (99, after, (100, None, None))
    t = tree_of(before)
    sink = MetricsSink()
    t.sink = sink
    p = t.root if below else NIL
    v = p.left if below else t.root
    h = v.left if side == "left" else v.right
    inner = h.right if side == "left" else h.left
    top = raise_child(t, v, h, p, double)
    assert top is (inner if double else h)
    assert (p.left if below else t.root) is top
    assert dump(t) == dump(tree_of(after))
    # Pre-rotation weights: v weighs 6 (single) or 8 (double), and a
    # double books h's 6 first.
    assert sink.rotation_count == 1 + double
    assert sink.rotated_weight_total == (14 if double else 6)
    assert audit_structure(t) == []


@given(st.lists(st.integers(-50, 50), min_size=2, max_size=80))
def test_single_rotations_preserve_order_and_structure(keys):
    t = BottomUpTree(PARAM_SETS["integral"])
    for k in keys:
        t.insert(k)
    before = t.inorder_keys()
    if t.root.right is not NIL:
        rotate(t, t.root, t.root.right, NIL)
    if t.root.left is not NIL:
        rotate(t, t.root, t.root.left, NIL)
    assert t.inorder_keys() == before
    assert audit_structure(t) == []


@given(st.lists(st.integers(-50, 50), min_size=4, max_size=80))
def test_double_rotations_preserve_order_and_structure(keys):
    t = BottomUpTree(PARAM_SETS["integral"])
    for k in keys:
        t.insert(k)
    before = t.inorder_keys()
    if t.root.right is not NIL and t.root.right.left is not NIL:
        raise_child(t, t.root, t.root.right, NIL, True)
    if t.root.left is not NIL and t.root.left.right is not NIL:
        raise_child(t, t.root, t.root.left, NIL, True)
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
def test_relink_predecessor_that_is_the_child(outer):
    # u = v.left keeps its own left subtree and gains v's right one.
    inner = (10, (5, (2, None, None), None), (20, None, None))
    t = tree_of((50, inner, (60, None, None)) if outer else inner)
    g = t.root if outer else NIL
    v = t.root.left if outer else t.root
    u = v.left
    relink_predecessor(t, v, g, u, v)
    assert (u.left.key, u.right.key) == (2, 20)
    assert (g.left if outer else t.root) is u
    settle(t, *([g, u] if outer else [u]))
    shape = "(5 (2 . .) (20 . .))"
    assert structure_string(t) == (f"(50 {shape} (60 . .))" if outer else shape)
    assert audit_structure(t) == []


@pytest.mark.parametrize("outer", [False, True])
def test_relink_deeper_predecessor_hands_its_slot_to_its_child(outer):
    # The rightmost node of v.left hands its slot to its left child.
    inner = (10, (5, (2, None, None), (8, (7, None, None), None)),
             (20, None, None))
    t = tree_of((50, inner, (60, None, None)) if outer else inner)
    g = t.root if outer else NIL
    v = t.root.left if outer else t.root
    five = v.left
    u = subtree_maximum(five)
    assert u.key == 8
    relink_predecessor(t, v, g, u, five)
    assert five.right.key == 7
    assert u.left is five and u.right.key == 20
    assert (g.left if outer else t.root) is u
    settle(t, *([g, u, five] if outer else [u, five]))
    shape = "(8 (5 (2 . .) (7 . .)) (20 . .))"
    assert structure_string(t) == (f"(50 {shape} (60 . .))" if outer else shape)
    assert audit_structure(t) == []


def linked(cls, shape):
    """A SearchTree of cls nodes in shape, (key, left, right) tuples with
    None for empty; links only, as attach and detach read no weight or
    colour."""
    def grow(shape):
        if shape is None:
            return NIL
        key, l, r = shape
        return cls(key, grow(l), grow(r))
    t = SearchTree()
    t.root = grow(shape)
    t.size = len(t.inorder_keys())
    return t


LAYOUTS = pytest.mark.parametrize("cls", [Node, RbNode])


@LAYOUTS
def test_attach_and_detach_on_an_empty_tree(cls):
    t = SearchTree()
    assert detach(t, 5) is None
    assert t.root is NIL and len(t) == 0
    node = cls(5)
    assert attach(t, node) == [NIL]
    assert t.root is node and len(t) == 1
    assert (node.left, node.right) == (NIL, NIL)


@LAYOUTS
def test_attach_returns_the_root_first_path_to_the_attach_parent(cls):
    t = linked(cls, (10, (5, None, (8, None, None)), (20, None, None)))
    node = cls(7)
    path = attach(t, node)
    assert path[0] is NIL
    assert [v.key for v in path[1:]] == [10, 5, 8]
    assert path[-1].left is node and len(t) == 5
    assert structure_string(t) == "(10 (5 . (8 (7 . .) .)) (20 . .))"


@LAYOUTS
def test_attach_sends_equal_keys_left(cls):
    t = linked(cls, (10, (5, None, None), (20, None, None)))
    ten = cls(10)
    assert [v.key for v in attach(t, ten)[1:]] == [10, 5]
    assert t.root.left.right is ten
    five = cls(5)
    assert [v.key for v in attach(t, five)[1:]] == [10, 5]
    assert t.root.left.left is five
    assert t.inorder_keys() == [5, 5, 10, 10, 20] and len(t) == 5


# 2, 7, 17, 30 and 70 are leaves; 8, 15 and 60 have one child; 5, 10, 20
# and 50 have two, with neighbours that are their own child or sit deeper.
DETACH_SHAPE = (50, (10, (5, (2, None, None), (8, (7, None, None), None)),
                     (20, (15, None, (17, None, None)), (30, None, None))),
                (60, None, (70, None, None)))


def detach_case(cls, mirrored):
    """DETACH_SHAPE linked from cls nodes, or its mirror image when mirrored,
    with the sign that carries a key of DETACH_SHAPE into that tree."""
    shape = mirror(DETACH_SHAPE) if mirrored else DETACH_SHAPE
    return linked(cls, shape), (-1 if mirrored else 1)


@LAYOUTS
@pytest.mark.parametrize("mirrored", [True, False])
@pytest.mark.parametrize("key", [6, 0, 99, 16])
def test_detach_of_an_absent_key_changes_nothing(cls, mirrored, key):
    t, sign = detach_case(cls, mirrored)
    before = structure_string(t)
    assert detach(t, sign * key) is None
    assert structure_string(t) == before and len(t) == 12


# Keys are DETACH_SHAPE's; a mirrored row runs on its mirror image with
# every key negated, where the predecessor of -key is the negated
# successor of key, so two-child rows reach the neighbour from both sides.
@LAYOUTS
@pytest.mark.parametrize("key,mirrored,u,x,path", [
    # Leaves and one-child nodes are spliced out.
    (2, True, 2, None, [50, 10, 5]),
    (7, False, 7, None, [50, 10, 5, 8]),
    (8, True, 8, 7, [50, 10, 5]),
    (15, False, 15, 17, [50, 10, 20]),
    (60, True, 60, 70, [50]),
    # Two children, the predecessor is v's own child: u's entry ends the
    # path.
    (5, False, 2, None, [50, 10, 2]),
    (20, True, 30, None, [50, 10, 30]),
    (50, True, 60, 70, [60]),
    # Two children, the predecessor sits deeper.
    (5, True, 7, None, [50, 10, 7, 8]),
    (10, True, 15, 17, [50, 15, 20]),
    (10, False, 8, 7, [50, 8, 5]),
    (20, False, 17, None, [50, 10, 17, 15]),
    (50, False, 30, None, [30, 10, 20]),
])
def test_detach_returns_the_neighbour_its_child_and_the_path(
        cls, key, mirrored, u, x, path):
    t, sign = detach_case(cls, mirrored)
    key, u, x = sign * key, sign * u, None if x is None else sign * x
    want = t.inorder_keys()
    want.remove(key)
    got_path, got_v, got_u, got_x = detach(t, key)
    assert got_v.key == key and got_u.key == u
    assert (got_u is got_v) == (u == key)
    assert (None if got_x is NIL else got_x.key) == x
    assert got_path[0] is NIL
    assert [v.key for v in got_path[1:]] == [sign * k for k in path]
    # x hangs in u's old slot, below the path's last entry.
    p = got_path[-1]
    assert (t.root is got_x) if p is NIL else got_x in (p.left, p.right)
    if got_u is not got_v:
        # u sits in v's old slot, in v's old entry of the path.
        i = got_path.index(got_u)
        above = got_path[i - 1]
        assert t.root is got_u if above is NIL else got_u in (above.left,
                                                             above.right)
    # The shape's keys are distinct, so v's key is gone with v.
    assert t.inorder_keys() == want and len(t) == 11


def test_subtree_nodes_lists_parents_before_children():
    assert subtree_nodes(NIL) == []
    t = tree_of(DETACH_SHAPE)
    nodes = subtree_nodes(t.root)
    assert len(set(nodes)) == len(nodes) == len(t) == 12
    at = {v: i for i, v in enumerate(nodes)}
    for v in nodes:
        for c in (v.left, v.right):
            if c is not NIL:
                assert at[v] < at[c]
    assert [v.key for v in subtree_nodes(t.root.left.left)] == [5, 2, 8, 7]


def test_core_edits_write_no_parent_field():
    # Each edit takes the parent as an argument: a splice, a neighbour
    # relink and a lift leave a sound tree of parent-free nodes.
    t = tree_of((10, (5, (2, None, None), (8, (7, None, None), None)),
                 (20, None, (30, None, None))))
    five = t.root.left
    assert splice_out(t, t.root.right, t.root).key == 30
    relink_predecessor(t, t.root, NIL, five.right, five)
    assert structure_string(t) == "(8 (5 (2 . .) (7 . .)) (30 . .))"
    lift(t, five, five.right, t.root)
    assert t.root.left.key == 7
    assert structure_string(t) == "(8 (7 (5 (2 . .) .) .) (30 . .))"
    for v in (t.root.left.left, t.root.left, t.root):
        v.weight = v.left.weight + v.right.weight
    t.size -= 2
    assert audit_structure(t) == []
