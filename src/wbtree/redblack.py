"""Red-black tree baseline with the textbook bottom-up fixups.

Same multiset contract as the weight-balanced trees: equal keys descend
left, search returns the first match on the path, delete removes one node.
The constructor, clone, search, the in-order walk, every link edit
(core.lift, which raises a child on either side and books the rotation
with a sink; the one-child splice; the successor relink,
core.relink_neighbour) and the NIL sentinel are core's: this tree keeps
only its colours. The property audit is the referee's, oracle.audit_redblack,
imported here as audit. Nodes carry key, two children and a colour bit,
and no parent link: insert and delete record the nodes they pass in a
per-op list headed by the sentinel, as the bottom-up weight-balanced tree
does, and the fixups (Cormen et al., ch. 13) walk that list back by index,
handing each rotation the pivot's parent. Each fixup is one body for both
sides, as Cormen et al. state it ("with left and right exchanged"): it
reads once on which side of its parent the red p (insert) or the short x
(delete) hangs and names the other nodes relative to that side. No node
stores a weight: RbNode.weight counts the pivot's subtree on demand, and
only core.lift reads it, when a metrics sink is attached.

Invariants: the root is black, a red node has no red child, and every
root-to-leaf path crosses the same number of black nodes.
"""

from __future__ import annotations

from .core import NIL, SearchTree, lift, relink_neighbour, splice_out
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
        nil = NIL
        n = 0
        stack = [self]
        while stack:
            x = stack.pop()
            n += 1
            if x.left is not nil:
                stack.append(x.left)
            if x.right is not nil:
                stack.append(x.right)
        return n + 1

    def __repr__(self):
        color = "R" if self.red else "B"
        return f"RbNode({self.key!r}, {color})"


class RedBlackTree(SearchTree):
    __slots__ = ()

    def insert(self, key) -> RbNode:
        nil = NIL
        path = [nil]
        v = self.root
        while v is not nil:
            path.append(v)
            v = v.left if key <= v.key else v.right
        node = RbNode(key, nil, nil, True)
        p = path[-1]
        if p is nil:
            node.red = False
            self.root = node
        elif key <= p.key:
            p.left = node
        else:
            p.right = node
        self.size += 1
        # Under a black parent (or at the root) the new node breaks
        # nothing, so the fixup runs only under a red one.
        if p.red:
            self._insert_fixup(node, path)
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
        self.root.red = False

    def delete(self, key) -> bool:
        nil = NIL
        path = [nil]
        z = self.root
        while z is not nil:
            k = z.key
            if key == k:
                break
            path.append(z)
            z = z.left if key < k else z.right
        else:
            return False
        p = path[-1]
        if z.left is nil or z.right is nil:
            was_red = z.red
            x = splice_out(self, z, p)
        else:
            # Successor relink: y, the leftmost node of z's right subtree,
            # takes z's slot, links and colour, and its right child x takes
            # y's old slot. Node identity moves, keys stay put.
            i = len(path)
            path.append(z)
            y = z.right
            while y.left is not nil:
                path.append(y)
                y = y.left
            was_red = y.red
            x = y.right
            relink_neighbour(self, z, p, y, path[-1])
            y.red = z.red
            path[i] = y
        self.size -= 1
        # Removing a red node breaks nothing, and a red x takes the lost
        # black itself.
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
