"""The weight-balanced node, rotations, and the BST plumbing all three trees
share.

Weight convention: weight(v) = number of nodes in the subtree rooted at v,
plus one. An empty subtree has weight 1, a leaf has weight 2, and
weight(v) = weight(left(v)) + weight(right(v)) holds at every node.

Both weight-balanced trees use one node layout, Node (key, left, right,
weight), with no parent link: the top-down tree never climbs back, and the
bottom-up tree's upward pass walks the descent path it recorded. The
red-black baseline's RbNode has no parent link either, so no tree is
cyclic and every tree is freed by reference counting.

Empty children in every tree are the one NIL sentinel, which carries
weight 1 and the colour black, so neither weight nor colour reads branch.
Trees are multisets: insertion sends equal keys left, but a rotation can
later carry an equal key into a right subtree, so the maintained invariant
is the weaker one — the in-order key sequence is non-decreasing (search
still works: every run of equal keys is reachable by the usual three-way
descent). Single-writer only; nothing here is safe for concurrent
mutation.

SearchTree (len, search, in-order keys) and the link edits link_left,
link_right and splice_out serve all three trees. Every link edit exists
once and takes the parent of the node it moves as an argument. Weights,
rotation booking and the predecessor relink are for the weight-balanced
trees only.
"""

from __future__ import annotations

from .params import BalanceParams


class Node:
    """A weight-balanced node: key, two children and the subtree weight.

    Neither scheme reads a parent, so nodes carry none.
    """

    __slots__ = ("key", "left", "right", "weight")

    def __init__(self, key, left=None, right=None, weight=2):
        self.key = key
        self.left = left
        self.right = right
        self.weight = weight

    def __repr__(self):
        return f"Node(key={self.key!r}, weight={self.weight})"


class _Nil:
    """The class of NIL alone: the fields either node layout reads."""

    __slots__ = ("key", "left", "right", "weight", "red")

    def __repr__(self):
        return "NIL"


# The empty-subtree sentinel of every tree. Its children self-loop so a
# traversal bug spins instead of raising on None, which is easier to catch
# in tests.
NIL = _Nil()
NIL.key = None
NIL.left = NIL.right = NIL
NIL.weight = 1
NIL.red = False


class SearchTree:
    """Read-only operations shared by all three trees."""

    def __len__(self):
        return self.size

    def search(self, key):
        """First node with this key on the root-to-leaf path, else None."""
        nil = NIL
        v = self.root
        while v is not nil:
            k = v.key
            if key == k:
                return v
            v = v.left if key < k else v.right
        return None

    def inorder_keys(self) -> list:
        nil = NIL
        out = []
        push = out.append
        stack = []
        v = self.root
        while stack or v is not nil:
            while v is not nil:
                stack.append(v)
                v = v.left
            v = stack.pop()
            push(v.key)
            v = v.right
        return out


class Tree(SearchTree):
    """Shared state of both weight-balanced rebalancing schemes.

    Subclasses implement insert/delete.
    """

    def __init__(self, params: BalanceParams, sink=None):
        self.root = NIL
        self.size = 0
        self.params = params
        self.sink = sink
        self._dn = params.dn
        self._dd = params.dd
        self._ds = params.dn + params.dd  # for the top-down overload tests
        self._gn = params.gn
        self._gd = params.gd

    def clone(self) -> "Tree":
        """Structure-preserving copy with fresh nodes; no rebalancing runs."""
        dup = type(self)(self.params, sink=None)
        dup.size = self.size
        src = self.root
        if src is NIL:
            return dup
        top = Node(src.key, NIL, NIL, src.weight)
        dup.root = top
        stack = [(src, top)]
        pop = stack.pop
        push = stack.append
        while stack:
            old, new = pop()
            ol = old.left
            if ol is not NIL:
                c = Node(ol.key, NIL, NIL, ol.weight)
                new.left = c
                push((ol, c))
            orr = old.right
            if orr is not NIL:
                c = Node(orr.key, NIL, NIL, orr.weight)
                new.right = c
                push((orr, c))
        return dup


# The link edits. Each takes the parent p of the node it unlinks or lowers
# (the sentinel for the root) and edits child links only: no node in any
# tree has a parent field.

def splice_out(tree, v, p):
    """Unlink v, which has at most one real child, lifting that child (the
    sentinel if v has none) into v's slot under p. Returns the lifted
    child."""
    c = v.left if v.left is not NIL else v.right
    if p is NIL:
        tree.root = c
    elif p.left is v:
        p.left = c
    else:
        p.right = c
    return c


def relink_predecessor(tree: Tree, v: Node, g: Node, u: Node,
                       up: Node) -> Node:
    """Move u, the rightmost node of v's left subtree, into v's position
    under g; up is u's parent.

    u's left child takes u's old slot, and u adopts v's subtrees (keeping
    its own left one when u is v.left). Edits links only; returns the
    lowest node that lost a descendant: up, or u itself when u was v.left.
    """
    if up is v:
        up = u
    else:
        up.right = u.left
        u.left = v.left
    u.right = v.right
    if g is NIL:
        tree.root = u
    elif g.left is v:
        g.left = u
    else:
        g.right = u
    return up


def link_left(tree, v, p):
    """Raise v.right into v's position under p and return it.

    Edits links only, for any of the three trees.
    """
    r = v.right
    v.right = r.left
    if p is NIL:
        tree.root = r
    elif p.left is v:
        p.left = r
    else:
        p.right = r
    r.left = v
    return r


def link_right(tree, v, p):
    """Mirror of link_left: raise v.left into v's position under p."""
    r = v.left
    v.left = r.right
    if p is NIL:
        tree.root = r
    elif p.left is v:
        p.left = r
    else:
        p.right = r
    r.right = v
    return r


def rotate_left(tree: Tree, v: Node, p: Node) -> Node:
    """Weight-balanced left rotation: link_left, then both weights.

    An attached metrics sink books one rotation with v's weight from before
    the rotation; a double rotation is two calls, inner pivot first.
    """
    sink = tree.sink
    if sink is not None:
        sink.record_rotation(v.weight)
    r = link_left(tree, v, p)
    v.weight = v.left.weight + v.right.weight
    r.weight = v.weight + r.right.weight
    return r


def rotate_right(tree: Tree, v: Node, p: Node) -> Node:
    """Mirror of rotate_left: link_right, then both weights."""
    sink = tree.sink
    if sink is not None:
        sink.record_rotation(v.weight)
    r = link_right(tree, v, p)
    v.weight = v.left.weight + v.right.weight
    r.weight = r.left.weight + v.weight
    return r


def structure_string(tree) -> str:
    """Parenthesized shape: (key L R) with . for an empty subtree.

    Works for all three trees. Iterative, so tree height is not limited by
    the interpreter's recursion limit.
    """
    out = []
    emit = out.append
    stack = [tree.root]
    pop = stack.pop
    push = stack.append
    while stack:
        v = pop()
        if type(v) is str:
            emit(v)
        elif v is NIL:
            emit(".")
        else:
            # Queue what follows the left subtree (" R)") before the left
            # subtree itself, which pops first. Pushing single items, not
            # tuples, keeps the cyclic collector out of this loop.
            r = v.right
            if r is NIL:
                push(" .)")
            else:
                push(")")
                push(r)
                push(" ")
            l = v.left
            if l is NIL:
                emit(f"({v.key} .")
            else:
                emit(f"({v.key} ")
                push(l)
    return "".join(out)
