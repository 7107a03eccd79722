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

SearchTree (the root, size and sink every tree starts with; len, search,
in-order keys, and the one clone, which copies each node with its own
bare()), subtree_nodes (every node of a subtree, parents first) and the
three link edits serve all three trees: lift (a rotation, on either side,
booked with an attached metrics sink), splice_out and relink_predecessor
(a deleted node's in-order predecessor takes its slot: the one neighbour
every tree's delete relinks). Each link edit takes the parent of the node
it moves as an argument. attach and detach, the plain BST insert and
delete, are the whole edit of the two trees that repair afterwards,
bottom-up and red-black; top-down fuses its edit into its descent.
Weights and rotate are for the weight-balanced trees only, which rotate
only through raise_child, their one rebalancing step.
"""

from __future__ import annotations

import copy

from .params import BalanceParams


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


class Node:
    """A weight-balanced node: key, two children and the subtree weight.

    Neither scheme reads a parent, so nodes carry none.
    """

    __slots__ = ("key", "left", "right", "weight")

    def __init__(self, key, left=NIL, right=NIL, weight=2):
        self.key = key
        self.left = left
        self.right = right
        self.weight = weight

    def bare(self):
        return Node(self.key, NIL, NIL, self.weight)

    def __repr__(self):
        return f"Node(key={self.key!r}, weight={self.weight})"


class SearchTree:
    """State, copy and read-only operations shared by all three trees."""

    __slots__ = ("root", "size", "sink")

    def __init__(self, sink=None):
        self.root = NIL
        self.size = 0
        self.sink = sink

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

    def clone(self):
        """Structure-preserving copy with fresh nodes and no sink; no
        rebalancing runs. Each node copies itself with bare()."""
        dup = copy.copy(self)
        dup.sink = None
        src = self.root
        if src is NIL:
            return dup
        dup.root = top = src.bare()
        stack = [(src, top)]
        pop = stack.pop
        push = stack.append
        while stack:
            old, new = pop()
            ol = old.left
            if ol is not NIL:
                new.left = c = ol.bare()
                push((ol, c))
            orr = old.right
            if orr is not NIL:
                new.right = c = orr.bare()
                push((orr, c))
        return dup

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

    __slots__ = ("params", "_dn", "_dd", "_ds", "_gn", "_gd")

    def __init__(self, params: BalanceParams, sink=None):
        super().__init__(sink)
        self.params = params
        self._dn = params.dn
        self._dd = params.dd
        self._ds = params.dn + params.dd  # for the top-down overload tests
        self._gn = params.gn
        self._gd = params.gd


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


def relink_predecessor(tree, v, g, u, up):
    """Move u, v's in-order predecessor (the rightmost node of v.left),
    into v's position under g; up is u's parent.

    u's left child takes u's old slot, and u adopts v's subtrees, keeping
    its own left subtree when u is v.left. Edits links only, for any of
    the three trees.
    """
    if up is not v:
        up.right = u.left
        u.left = v.left
    u.right = v.right
    if g is NIL:
        tree.root = u
    elif g.left is v:
        g.left = u
    else:
        g.right = u


# The plain BST edits of the two trees that repair afterwards (bottom-up
# and red-black). Each records the nodes it passes in a root-first list
# headed by the sentinel, the path its caller's repair walks back; the
# descent changes nothing, so a key comparison that raises leaves the tree
# as it was.

def attach(tree, node) -> list:
    """Hang node where a plain descent on its key ends, equal keys going
    left, and count it in size. Returns the nodes passed, the attach
    parent last (just the sentinel when node became the root)."""
    nil = NIL
    key = node.key
    path = [nil]
    v = tree.root
    while v is not nil:
        path.append(v)
        v = v.left if key <= v.key else v.right
    p = path[-1]
    if p is nil:
        tree.root = node
    elif key <= p.key:
        p.left = node
    else:
        p.right = node
    tree.size += 1
    return path


def detach(tree, key):
    """Unlink v, the first node holding key on the search path, and
    uncount it; None if there is none.

    A v with two children hands its slot to its in-order predecessor u;
    otherwise u is v itself and is spliced out. Returns (path, v, u, x): x
    is the child now in u's old slot, and path ends at that slot's parent,
    with u in v's old entry.
    """
    nil = NIL
    path = [nil]
    v = tree.root
    while v is not nil:
        k = v.key
        if key == k:
            break
        path.append(v)
        v = v.left if key < k else v.right
    else:
        return None
    p = path[-1]
    if v.left is nil or v.right is nil:
        u = v
        x = splice_out(tree, v, p)
    else:
        i = len(path)
        path.append(v)
        u = v.left
        while u.right is not nil:
            path.append(u)
            u = u.right
        x = u.left
        relink_predecessor(tree, v, p, u, path[-1])
        path[i] = u
    tree.size -= 1
    return path, v, u, x


def lift(tree, v, h, p):
    """Raise h, v's child on either side, into v's position under p: v
    takes h's inner child in h's old slot and hangs below h on the other
    side. Edits links only, for any of the three trees; the only place in
    any tree where a node rises by rotation, so an attached metrics sink
    books every rotation here, with v's weight before it turns."""
    sink = tree.sink
    if sink is not None:
        sink.record_rotation(v.weight)
    if h is v.left:
        v.left = h.right
        h.right = v
    else:
        v.right = h.left
        h.left = v
    if p is NIL:
        tree.root = h
    elif p.left is v:
        p.left = h
    else:
        p.right = h


def rotate(tree: Tree, v: Node, h: Node, p: Node) -> Node:
    """Weight-balanced single rotation: lift h over v, then both weights.

    h now holds exactly v's old subtree, so it takes v's stored weight (a
    top-down caller's pending step included, which lift books too).
    """
    w = v.weight
    lift(tree, v, h, p)
    v.weight = v.left.weight + v.right.weight
    h.weight = w
    return h


def raise_child(tree: Tree, v: Node, h: Node, p: Node, double: bool) -> Node:
    """Raise v's child h into v's position under p and return the new
    occupant. With double, h's inner child first takes h's position and is
    the one that rises. Both weight-balanced schemes repair with this one
    step, a single or double rotation; the caller's gamma test picks."""
    if double:
        h = rotate(tree, h, h.right if h is v.left else h.left, v)
    return rotate(tree, v, h, p)


def subtree_nodes(v) -> list:
    """Every node of the subtree rooted at v, each before its children;
    [] for the sentinel."""
    nil = NIL
    if v is nil:
        return []
    nodes = [v]
    push = nodes.append
    for v in nodes:
        if v.left is not nil:
            push(v.left)
        if v.right is not nil:
            push(v.right)
    return nodes


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
