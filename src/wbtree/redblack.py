"""Red-black tree baseline with the textbook bottom-up fixups.

Same multiset contract as the weight-balanced trees: equal keys descend
left, search returns the first match on the path, delete removes one node.
The constructor, clone, search, the in-order walk, the plain edit
(core.attach; core.detach, which relinks the predecessor), core.lift, which
raises a child on either side and books the rotation with a sink, and the
NIL sentinel are core's: this tree keeps only its colours. The property
audit is the referee's, oracle.audit_redblack, imported here as audit.
Nodes carry key, two children and a colour bit, and no parent link: the
plain edit records the nodes it passes in a per-op list headed by the
sentinel, as for the bottom-up weight-balanced tree, and the fixups
(Cormen et al., ch. 13) walk that list back by index, handing each
rotation the pivot's parent. Each fixup is one body for both
sides, as Cormen et al. state it ("with left and right exchanged"): it
reads once on which side of its parent the red p (insert) or the short x
(delete) hangs and names the other nodes relative to that side. No node
stores a weight: RbNode.weight counts the pivot's subtree on demand, and
only core.lift reads it, when a metrics sink is attached.

Invariants: the root is black, a red node has no red child, and every
root-to-leaf path crosses the same number of black nodes.
"""

from __future__ import annotations

from .core import NIL, SearchTree, attach, detach, lift, subtree_nodes
from .oracle import audit_redblack as audit  # noqa: F401

RED = True
BLACK = False


class RbNode:
    __slots__ = ("key", "left", "right", "red")

    def __init__(self, key, left=NIL, right=NIL, red=True):
        self.key = key
        self.left = left
        self.right = right
        self.red = red

    def bare(self):
        return RbNode(self.key, NIL, NIL, self.red)

    @property
    def weight(self) -> int:
        """Nodes in this subtree plus one, counted on demand: no node
        stores it, and only core.lift's booking of a rotation reads it."""
        return len(subtree_nodes(self)) + 1

    def __repr__(self):
        color = "R" if self.red else "B"
        return f"RbNode({self.key!r}, {color})"


class RedBlackTree(SearchTree):
    __slots__ = ()

    def insert(self, key) -> RbNode:
        node = RbNode(key)
        path = attach(self, node)
        # Under a black parent (or at the root) the new node breaks
        # nothing, so the fixup runs only under a red one.
        if path[-1].red:
            self._insert_fixup(node, path)
        self.root.red = False
        return node

    def _insert_fixup(self, z: RbNode, path: list):
        """Restore the colours above the red node z; path lists z's
        ancestors root first, headed by the sentinel, which is black."""
        i = len(path) - 1
        p = path[i]
        while p.red:
            # p is red, so not the root: its parent g is a real node.
            # One body for both sides: the uncle u is g's other child, and
            # z is the inner grandchild when it is p's child on u's side.
            g = path[i - 1]
            on_left = p is g.left
            u = g.right if on_left else g.left
            if u.red:
                p.red = False
                u.red = False
                g.red = True
                z = g
                i -= 2
                p = path[i]
                continue
            if z is (p.right if on_left else p.left):
                lift(self, p, z, g)
                p = z
            p.red = False
            g.red = True
            lift(self, g, p, path[i - 2])
            break

    def delete(self, key) -> bool:
        # Predecessor relink: u, the rightmost node of v.left, takes v's
        # slot, and x, its left child, takes u's old slot. Node identity
        # moves, keys stay put.
        found = detach(self, key)
        if found is None:
            return False
        path, v, u, x = found
        # u takes v's colour, so the colour lost is u's own (v's when u is
        # v). Removing a red node breaks nothing, and a red x takes the
        # lost black itself.
        was_red = u.red
        u.red = v.red
        if not was_red:
            if x.red:
                x.red = False
            else:
                self._delete_fixup(x, path)
        return True

    def _delete_fixup(self, x: RbNode, path: list):
        """Restore the black height above the black node x, whose subtree
        lost one black; path lists x's ancestors root first, headed by the
        sentinel."""
        nil = NIL
        i = len(path) - 1
        while not x.red:
            p = path[i]
            if p is nil:
                break
            g = path[i - 1]
            # One body for both sides: w is x's sibling, near its child on
            # x's side and far the other one.
            on_left = x is p.left
            w = p.right if on_left else p.left
            if w.red:
                w.red = False
                p.red = True
                lift(self, p, w, g)
                # w is p's parent now; p is red, so the loop ends at p and
                # only the rotation below reads g.
                g = w
                w = p.right if on_left else p.left
            if on_left:
                near = w.left
                far = w.right
            else:
                near = w.right
                far = w.left
            if not near.red and not far.red:
                w.red = True
                x = p
                i -= 1
                continue
            if not far.red:
                # The red near child rises over w, which becomes its far
                # child.
                near.red = False
                w.red = True
                lift(self, w, near, p)
                far = w
                w = near
            w.red = p.red
            p.red = False
            far.red = False
            lift(self, p, w, g)
            break
        x.red = False
