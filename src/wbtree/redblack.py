"""Red-black tree baseline with the textbook bottom-up fixups.

Same multiset contract as the weight-balanced trees: equal keys descend
left, search returns the first match on the path, delete removes one node.
Search, the in-order walk, the rotation link edits and the one-child
splice are core's, run on this tree's own sentinel.
Nodes carry key, three links, and a color bit; there is no weight field, so
when a metrics sink asks for rotation weights the pivot's subtree is counted
on demand.

Invariants: the root is black, a red node has no red child, and every
root-to-leaf path crosses the same number of black nodes.
"""

from __future__ import annotations

from .core import SearchTree, link_left, link_right, splice_out

RED = True
BLACK = False


class RbNode:
    __slots__ = ("key", "left", "right", "parent", "red")

    def __init__(self, key, left=None, right=None, parent=None, red=True):
        self.key = key
        self.left = left
        self.right = right
        self.parent = parent
        self.red = red

    def __repr__(self):
        color = "R" if self.red else "B"
        return f"RbNode({self.key!r}, {color})"


class RedBlackTree(SearchTree):

    def __init__(self, sink=None):
        nil = RbNode(None, red=False)
        nil.left = nil
        nil.right = nil
        nil.parent = nil
        self.nil = nil
        self.root = nil
        self.size = 0
        self.sink = sink

    def clone(self) -> "RedBlackTree":
        """Structure- and color-preserving copy with fresh nodes."""
        dup = RedBlackTree(sink=None)
        nil = self.nil
        dnil = dup.nil
        dup.size = self.size
        src = self.root
        if src is nil:
            return dup
        top = RbNode(src.key, dnil, dnil, dnil, src.red)
        dup.root = top
        stack = [(src, top)]
        while stack:
            old, new = stack.pop()
            ol = old.left
            if ol is not nil:
                c = RbNode(ol.key, dnil, dnil, new, ol.red)
                new.left = c
                stack.append((ol, c))
            orr = old.right
            if orr is not nil:
                c = RbNode(orr.key, dnil, dnil, new, orr.red)
                new.right = c
                stack.append((orr, c))
        return dup

    def _subtree_weight(self, v: RbNode) -> int:
        nil = self.nil
        if v is nil:
            return 1
        n = 0
        stack = [v]
        while stack:
            x = stack.pop()
            n += 1
            if x.left is not nil:
                stack.append(x.left)
            if x.right is not nil:
                stack.append(x.right)
        return n + 1

    def _rotate_left(self, v: RbNode):
        sink = self.sink
        if sink is not None:
            sink.record_rotation(self._subtree_weight(v))
        link_left(self, v)

    def _rotate_right(self, v: RbNode):
        sink = self.sink
        if sink is not None:
            sink.record_rotation(self._subtree_weight(v))
        link_right(self, v)

    def insert(self, key) -> RbNode:
        nil = self.nil
        p = nil
        v = self.root
        while v is not nil:
            p = v
            v = v.left if key <= v.key else v.right
        node = RbNode(key, nil, nil, p, red=True)
        if p is nil:
            self.root = node
        elif key <= p.key:
            p.left = node
        else:
            p.right = node
        self.size += 1
        self._insert_fixup(node)
        return node

    def _insert_fixup(self, z: RbNode):
        while z.parent.red:
            p = z.parent
            g = p.parent
            if p is g.left:
                u = g.right
                if u.red:
                    p.red = False
                    u.red = False
                    g.red = True
                    z = g
                else:
                    if z is p.right:
                        z = p
                        self._rotate_left(z)
                        p = z.parent
                    p.red = False
                    g.red = True
                    self._rotate_right(g)
            else:
                u = g.left
                if u.red:
                    p.red = False
                    u.red = False
                    g.red = True
                    z = g
                else:
                    if z is p.left:
                        z = p
                        self._rotate_right(z)
                        p = z.parent
                    p.red = False
                    g.red = True
                    self._rotate_left(g)
        self.root.red = False

    def _transplant(self, u: RbNode, v: RbNode):
        if u.parent is self.nil:
            self.root = v
        elif u is u.parent.left:
            u.parent.left = v
        else:
            u.parent.right = v
        v.parent = u.parent

    def delete(self, key) -> bool:
        z = self.search(key)
        if z is None:
            return False
        nil = self.nil
        y = z
        y_was_red = y.red
        if z.left is nil or z.right is nil:
            x = z.right if z.left is nil else z.left
            splice_out(self, z)
        else:
            # Successor relink; node identity moves, keys stay put.
            y = z.right
            while y.left is not nil:
                y = y.left
            y_was_red = y.red
            x = y.right
            if y.parent is z:
                x.parent = y
            else:
                self._transplant(y, x)
                y.right = z.right
                y.right.parent = y
            self._transplant(z, y)
            y.left = z.left
            y.left.parent = y
            y.red = z.red
        self.size -= 1
        if not y_was_red:
            self._delete_fixup(x)
        # Both relinks aim nil.parent at the splice point on purpose (the
        # fixup starts there); undo it once the fixup is done.
        nil.parent = nil
        return True

    def _delete_fixup(self, x: RbNode):
        while x is not self.root and not x.red:
            p = x.parent
            if x is p.left:
                w = p.right
                if w.red:
                    w.red = False
                    p.red = True
                    self._rotate_left(p)
                    w = p.right
                if not w.left.red and not w.right.red:
                    w.red = True
                    x = p
                else:
                    if not w.right.red:
                        w.left.red = False
                        w.red = True
                        self._rotate_right(w)
                        w = p.right
                    w.red = p.red
                    p.red = False
                    w.right.red = False
                    self._rotate_left(p)
                    x = self.root
            else:
                w = p.left
                if w.red:
                    w.red = False
                    p.red = True
                    self._rotate_right(p)
                    w = p.left
                if not w.right.red and not w.left.red:
                    w.red = True
                    x = p
                else:
                    if not w.left.red:
                        w.right.red = False
                        w.red = True
                        self._rotate_left(w)
                        w = p.left
                    w.red = p.red
                    p.red = False
                    w.left.red = False
                    self._rotate_right(p)
                    x = self.root
        x.red = False


def audit(tree: RedBlackTree) -> list[str]:
    """Exhaustive check of the red-black properties plus ordering and links.

    Returns human-readable violation strings; empty means clean.
    """
    out: list[str] = []
    nil = tree.nil
    root = tree.root
    if nil.red:
        out.append("sentinel is red")
    if root is nil:
        if tree.size != 0:
            out.append(f"empty tree but size={tree.size}")
        return out
    if root.red:
        out.append("root is red")
    if root.parent is not nil:
        out.append("root parent not sentinel")

    # Iterative post-order: black-height and subtree bounds per node.
    info: dict[int, tuple[int, object, object, int]] = {}
    stack = [(root, False)]
    count = 0
    while stack:
        v, expanded = stack.pop()
        if not expanded:
            stack.append((v, True))
            if v.left is not nil:
                stack.append((v.left, False))
            if v.right is not nil:
                stack.append((v.right, False))
            continue
        count += 1
        l, r = v.left, v.right
        lbh = info[id(l)][0] if l is not nil else 1
        rbh = info[id(r)][0] if r is not nil else 1
        if lbh != rbh:
            out.append(f"black-height split at {v.key!r}: {lbh} vs {rbh}")
        if v.red and (l.red or r.red):
            out.append(f"red node {v.key!r} has a red child")
        lo = hi = v.key
        n = 1
        if l is not nil:
            _, llo, lhi, ln = info[id(l)]
            n += ln
            lo = min(lo, llo)
            hi = max(hi, lhi)
            if l.parent is not v:
                out.append(f"bad parent link at {l.key!r}")
            if lhi > v.key:
                out.append(f"left subtree of {v.key!r} holds {lhi!r}")
        if r is not nil:
            _, rlo, rhi, rn = info[id(r)]
            n += rn
            lo = min(lo, rlo)
            hi = max(hi, rhi)
            if r.parent is not v:
                out.append(f"bad parent link at {r.key!r}")
            # Weak form (equal keys allowed on the right): insertion sends
            # duplicates left, but rotations can carry one rightward. The
            # real invariant is a non-decreasing in-order sequence.
            if rlo < v.key:
                out.append(f"right subtree of {v.key!r} holds {rlo!r}")
        bh = max(lbh, rbh) + (0 if v.red else 1)
        info[id(v)] = (bh, lo, hi, n)
    if count != tree.size:
        out.append(f"size={tree.size} but counted {count}")
    return out
