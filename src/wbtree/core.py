"""Node layout, rotations, and the BST plumbing all three trees share.

Weight convention: weight(v) = number of nodes in the subtree rooted at v,
plus one. An empty subtree has weight 1, a leaf has weight 2, and
weight(v) = weight(left(v)) + weight(right(v)) holds at every node.

Empty children are the shared NIL sentinel, which carries weight 1 so weight
reads never branch. NIL's parent field is scratch space; rotations and link
edits may write it and nothing ever reads it. Trees are multisets: insertion
sends equal keys left, but a rotation can later carry an equal key into a
right subtree, so the maintained invariant is the weaker one — the in-order
key sequence is non-decreasing (search still works: every run of equal keys
is reachable by the usual three-way descent). Single-writer only; nothing
here is safe for concurrent mutation.

SearchTree (len, search, in-order keys) and the link edits link_left,
link_right and splice_out read the tree's own sentinel, tree.nil, so the
red-black baseline, which has a sentinel per tree, runs the same code.
Weights, rotation booking and the predecessor relink are for the
weight-balanced trees only.
"""

from __future__ import annotations

from typing import Iterator

from .params import BalanceParams


class Node:
    __slots__ = ("key", "left", "right", "parent", "weight")

    def __init__(self, key, left=None, right=None, parent=None, weight=2):
        self.key = key
        self.left = left
        self.right = right
        self.parent = parent
        self.weight = weight

    def __repr__(self):
        return f"Node(key={self.key!r}, weight={self.weight})"


# Shared empty-subtree sentinel. Its children self-loop so a traversal bug
# spins instead of raising on None, which is easier to catch in tests.
NIL = Node(None, weight=1)
NIL.left = NIL
NIL.right = NIL
NIL.parent = NIL


class SearchTree:
    """Read-only operations shared by all three trees.

    Empty children are the tree's own sentinel, self.nil: the shared NIL
    for the weight-balanced trees, a per-tree one for the red-black tree.
    """

    def __len__(self):
        return self.size

    def search(self, key):
        """First node with this key on the root-to-leaf path, else None."""
        nil = self.nil
        v = self.root
        while v is not nil:
            k = v.key
            if key == k:
                return v
            v = v.left if key < k else v.right
        return None

    def inorder_keys(self) -> list:
        nil = self.nil
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

    nil = NIL

    def __init__(self, params: BalanceParams, sink=None):
        self.root = NIL
        self.size = 0
        self.params = params
        self.sink = sink
        self._dn = params.dn
        self._dd = params.dd
        self._gn = params.gn
        self._gd = params.gd

    def inorder_nodes(self) -> Iterator[Node]:
        stack = []
        v = self.root
        while stack or v is not NIL:
            while v is not NIL:
                stack.append(v)
                v = v.left
            v = stack.pop()
            yield v
            v = v.right

    def clone(self) -> "Tree":
        """Structure-preserving copy with fresh nodes; no rebalancing runs."""
        dup = type(self)(self.params, sink=None)
        dup.size = self.size
        src = self.root
        if src is NIL:
            return dup
        top = Node(src.key, NIL, NIL, NIL, src.weight)
        dup.root = top
        stack = [(src, top)]
        pop = stack.pop
        push = stack.append
        while stack:
            old, new = pop()
            ol = old.left
            if ol is not NIL:
                c = Node(ol.key, NIL, NIL, new, ol.weight)
                new.left = c
                push((ol, c))
            orr = old.right
            if orr is not NIL:
                c = Node(orr.key, NIL, NIL, new, orr.weight)
                new.right = c
                push((orr, c))
        return dup


def subtree_maximum(v: Node) -> Node:
    """Rightmost node below v; v must not be NIL."""
    while v.right is not NIL:
        v = v.right
    return v


def chain_length(v: Node) -> int:
    """Nodes from v up to the root, both included; 0 for NIL."""
    n = 0
    while v is not NIL:
        n += 1
        v = v.parent
    return n


def splice_out(tree, v):
    """Unlink v, which has at most one real child, lifting that child (the
    sentinel if v has none) into v's slot and setting its parent even on
    the sentinel. Edits links only; returns v's old parent (the sentinel
    for the root), the lowest node that lost a descendant."""
    nil = tree.nil
    c = v.left if v.left is not nil else v.right
    p = v.parent
    c.parent = p
    if p is nil:
        tree.root = c
    elif p.left is v:
        p.left = c
    else:
        p.right = c
    return p


def relink_predecessor(tree: Tree, v: Node, u: Node) -> Node:
    """Move u, the rightmost node of v's left subtree, into v's position.

    u's left child takes u's old slot, and u adopts v's subtrees (keeping
    its own left one when u is v.left). Edits links only; returns the
    lowest node that lost a descendant: u's old parent, or u itself when
    u was v.left.
    """
    p = u.parent
    if p is v:
        p = u
    else:
        lu = u.left
        p.right = lu
        lu.parent = p
        u.left = v.left
        v.left.parent = u
    u.right = v.right
    v.right.parent = u
    g = v.parent
    u.parent = g
    if g is NIL:
        tree.root = u
    elif g.left is v:
        g.left = u
    else:
        g.right = u
    return p


def link_left(tree, v):
    """Raise v.right into v's position and return it.

    Edits links only, for any tree with a root and a nil sentinel; the
    inner grandchild's parent is set even when it is the sentinel.
    """
    r = v.right
    m = r.left
    v.right = m
    m.parent = v
    p = v.parent
    r.parent = p
    if p is tree.nil:
        tree.root = r
    elif p.left is v:
        p.left = r
    else:
        p.right = r
    r.left = v
    v.parent = r
    return r


def link_right(tree, v):
    """Mirror of link_left: raise v.left into v's position."""
    r = v.left
    m = r.right
    v.left = m
    m.parent = v
    p = v.parent
    r.parent = p
    if p is tree.nil:
        tree.root = r
    elif p.left is v:
        p.left = r
    else:
        p.right = r
    r.right = v
    v.parent = r
    return r


def rotate_left(tree: Tree, v: Node) -> Node:
    """Weight-balanced left rotation: link_left, then both weights.

    An attached metrics sink books one rotation with v's weight from before
    the rotation; a double rotation is two calls, inner pivot first.
    """
    sink = tree.sink
    if sink is not None:
        sink.record_rotation(v.weight)
    r = link_left(tree, v)
    v.weight = v.left.weight + v.right.weight
    r.weight = v.weight + r.right.weight
    return r


def rotate_right(tree: Tree, v: Node) -> Node:
    """Mirror of rotate_left: link_right, then both weights."""
    sink = tree.sink
    if sink is not None:
        sink.record_rotation(v.weight)
    r = link_right(tree, v)
    v.weight = v.left.weight + v.right.weight
    r.weight = r.left.weight + v.weight
    return r


def structure_string(tree) -> str:
    """Parenthesized shape: (key L R) with . for an empty subtree.

    Works for any tree exposing root and a nil sentinel, the red-black
    baseline included. Iterative, so tree height is not limited by the
    interpreter's recursion limit.
    """
    nil = tree.nil
    out = []
    emit = out.append
    stack = [tree.root]
    pop = stack.pop
    push = stack.append
    while stack:
        v = pop()
        if type(v) is str:
            emit(v)
        elif v is nil:
            emit(".")
        else:
            # Queue what follows the left subtree (" R)") before the left
            # subtree itself, which pops first. Pushing single items, not
            # tuples, keeps the cyclic collector out of this loop.
            r = v.right
            if r is nil:
                push(" .)")
            else:
                push(")")
                push(r)
                push(" ")
            l = v.left
            if l is nil:
                emit(f"({v.key} .")
            else:
                emit(f"({v.key} ")
                push(l)
    return "".join(out)


def dump(tree: Tree) -> str:
    """Two-line debug dump: in-order key:weight pairs, then the shape."""
    pairs = " ".join(f"{v.key}:{v.weight}" for v in tree.inorder_nodes())
    return pairs + "\n" + structure_string(tree)
