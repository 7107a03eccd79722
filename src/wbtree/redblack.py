"""Red-black tree baseline with the textbook bottom-up fixups.

Same multiset contract as the weight-balanced trees: equal keys descend
left, search returns the first match on the path, delete removes one node.
Search, the in-order walk, the rotation link edits and the one-child
splice are core's. Nodes carry key, two children and a colour bit, and no
parent link: insert and delete record the nodes they pass in a per-op list
headed by the sentinel, as the bottom-up weight-balanced tree does, and
the fixups (Cormen et al., ch. 13) walk that list back by index, handing
each rotation the pivot's parent. No node has a weight field, so when a
metrics sink asks for rotation weights the pivot's subtree is counted on
demand.

Invariants: the root is black, a red node has no red child, and every
root-to-leaf path crosses the same number of black nodes.
"""

from __future__ import annotations

from .core import SearchTree, link_left, link_right, splice_out

RED = True
BLACK = False


class RbNode:
    __slots__ = ("key", "left", "right", "red")

    def __init__(self, key, left=None, right=None, red=True):
        self.key = key
        self.left = left
        self.right = right
        self.red = red

    def __repr__(self):
        color = "R" if self.red else "B"
        return f"RbNode({self.key!r}, {color})"


# Shared empty-subtree sentinel of every red-black tree: black, with
# self-looping children like core.NIL.
RB_NIL = RbNode(None, red=False)
RB_NIL.left = RB_NIL
RB_NIL.right = RB_NIL


class RedBlackTree(SearchTree):

    nil = RB_NIL

    def __init__(self, sink=None):
        self.root = RB_NIL
        self.size = 0
        self.sink = sink

    def clone(self) -> "RedBlackTree":
        """Structure- and color-preserving copy with fresh nodes."""
        dup = RedBlackTree(sink=None)
        nil = RB_NIL
        dup.size = self.size
        src = self.root
        if src is nil:
            return dup
        top = RbNode(src.key, nil, nil, src.red)
        dup.root = top
        stack = [(src, top)]
        while stack:
            old, new = stack.pop()
            ol = old.left
            if ol is not nil:
                c = RbNode(ol.key, nil, nil, ol.red)
                new.left = c
                stack.append((ol, c))
            orr = old.right
            if orr is not nil:
                c = RbNode(orr.key, nil, nil, orr.red)
                new.right = c
                stack.append((orr, c))
        return dup

    def _subtree_weight(self, v: RbNode) -> int:
        nil = RB_NIL
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

    def _rotate_left(self, v: RbNode, p: RbNode):
        """Rotate left at v, whose parent is p (the sentinel at the root)."""
        sink = self.sink
        if sink is not None:
            sink.record_rotation(self._subtree_weight(v))
        link_left(self, v, p)

    def _rotate_right(self, v: RbNode, p: RbNode):
        sink = self.sink
        if sink is not None:
            sink.record_rotation(self._subtree_weight(v))
        link_right(self, v, p)

    def insert(self, key) -> RbNode:
        nil = RB_NIL
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
            g = path[i - 1]
            if p is g.left:
                u = g.right
                if u.red:
                    p.red = False
                    u.red = False
                    g.red = True
                    z = g
                    i -= 2
                    p = path[i]
                    continue
                if z is p.right:
                    self._rotate_left(p, g)
                    p = z
                p.red = False
                g.red = True
                self._rotate_right(g, path[i - 2])
            else:
                u = g.left
                if u.red:
                    p.red = False
                    u.red = False
                    g.red = True
                    z = g
                    i -= 2
                    p = path[i]
                    continue
                if z is p.left:
                    self._rotate_right(p, g)
                    p = z
                p.red = False
                g.red = True
                self._rotate_left(g, path[i - 2])
            break
        self.root.red = False

    def delete(self, key) -> bool:
        nil = RB_NIL
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
            yp = path[-1]
            if yp is not z:
                yp.left = x
                y.right = z.right
            y.left = z.left
            if p is nil:
                self.root = y
            elif p.left is z:
                p.left = y
            else:
                p.right = y
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
        nil = RB_NIL
        i = len(path) - 1
        while not x.red:
            p = path[i]
            if p is nil:
                break
            g = path[i - 1]
            if x is p.left:
                w = p.right
                if w.red:
                    w.red = False
                    p.red = True
                    self._rotate_left(p, g)
                    # w is p's parent now; p is red, so the loop ends at
                    # p and only the rotation below reads g.
                    g = w
                    w = p.right
                if not w.left.red and not w.right.red:
                    w.red = True
                    x = p
                    i -= 1
                    continue
                if not w.right.red:
                    w.left.red = False
                    w.red = True
                    self._rotate_right(w, p)
                    w = p.right
                w.red = p.red
                p.red = False
                w.right.red = False
                self._rotate_left(p, g)
            else:
                w = p.left
                if w.red:
                    w.red = False
                    p.red = True
                    self._rotate_right(p, g)
                    g = w
                    w = p.left
                if not w.right.red and not w.left.red:
                    w.red = True
                    x = p
                    i -= 1
                    continue
                if not w.left.red:
                    w.right.red = False
                    w.red = True
                    self._rotate_left(w, p)
                    w = p.left
                w.red = p.red
                p.red = False
                w.left.red = False
                self._rotate_right(p, g)
            break
        x.red = False


def audit(tree: RedBlackTree) -> list[str]:
    """Exhaustive check of the red-black properties plus ordering and size.

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
            if lhi > v.key:
                out.append(f"left subtree of {v.key!r} holds {lhi!r}")
        if r is not nil:
            _, rlo, rhi, rn = info[id(r)]
            n += rn
            lo = min(lo, rlo)
            hi = max(hi, rhi)
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
