"""Single-pass weight-balanced tree: repair while descending.

Insertion walks the tree exactly once, carrying two things down: p, the
current node's parent, and w, the current node's weight with the pending +1
of the arriving key already applied. On arrival it writes w into the node,
compares the key once and reads only the child the key heads into, whose
pending weight is cw = weight(child) + 1. Since weight(v) = weight(left) +
weight(right), the sibling's weight is w - cw without loading the sibling,
and the pending arrival overloads the child's side iff
cw * dd > (w - cw) * dn, that is iff cw * (dn + dd) > w * dn. If it does,
core's raise_child lifts that child into the current position, by a single
or double rotation per the gamma test, which also anticipates the grandchild
subtree the key will land in; only then is the heavy side loaded. The
loop's next turn is the re-aim: it compares once against the node now
occupying the position and steps down with the chosen child's weight,
skipping the overload test for that raised node; so at most one rotation
happens per level, which bounds work even for parameter sets with no
balance guarantee.

One wrinkle: the gamma test may pick a double rotation whose rising pivot
is the key's own empty slot (the inner grandchild position the key is headed
for, currently nil). The new node, built once at the top of insert, is then
hung in that slot, its 1 is added to the heavy child's weight, and
raise_child's double rotation lifts it into the current position, with the
old occupant and its heavy child as its two children; the insertion is
complete at that moment. Downgrading to a single rotation here would leave
the heavy child lopsided and is the main source of persistent imbalance for
tight parameter pairs. The empty-slot case can only arise on the branch
where the key heads for the inner grandchild: a nil inner can never win the
gamma test on the outer branch, since that would need gamma < 1/2.

Deletion mirrors this with decrements: w is the weight with the pending -1
applied and cw = weight(child) - 1 for the child about to shrink. Each level
repairs when its sibling, weighing w - cw, outweighs delta times cw, that is
when w * dd > cw * (dn + dd); only a repair loads the heavy sibling, which
never holds the key, so the gamma test reads its grandchild weights
unadjusted. After a repair the next turn re-aims against the new occupant
and steps down untested, as in insertion. A found node with at most one
child is spliced out. One with two children checks its left side, which
loses the predecessor, then the pass continues down to the predecessor,
decrementing and repairing, and relinks it into the doomed node's place.

Nodes carry no parent link: nothing here ever climbs. If the key of a delete
is absent, a second walk from the root down the key's path, which the
descent's rotations left a search path, adds back the 1 each node on it
lost, and the delete reports False; rotations already made are kept, as
they leave the tree structurally sound. If a key comparison raises, in the
descent or in that second walk, every weight is recounted from the leaves
up (O(n), only on an exception); the links are sound throughout.

The loops keep no counter. An attached metrics sink books rotations only,
where they happen, so an op compares the same keys with a sink as without.
"""

from __future__ import annotations

from .core import (NIL, Node, Tree, raise_child, relink_predecessor,
                   splice_out, subtree_nodes)


class TopDownTree(Tree):
    __slots__ = ()

    def insert(self, key) -> Node:
        nil = NIL
        v = self.root
        node = Node(key, nil, nil, 2)
        if v is nil:
            self.root = node
            self.size = 1
            return node
        dn = self._dn
        s = self._ds
        p = nil
        w = v.weight + 1
        raised = None
        try:
            while True:
                v.weight = w
                if key <= v.key:
                    c = v.left
                    if c is nil:
                        v.left = node
                        break
                else:
                    c = v.right
                    if c is nil:
                        v.right = node
                        break
                cw = c.weight + 1
                # Pending arrival on c's side: overload iff (|c|+1) >
                # |sibling|*delta, with |sibling| = w - cw. A node just
                # raised here is not tested again: this turn re-aims.
                if cw * s > w * dn and v is not raised:
                    v = raised = self._insert_repair(v, c, p, node)
                    if v is None:
                        break
                    continue
                p = v
                v = c
                w = cw
        except BaseException:
            self._recount()
            raise
        self.size += 1
        return node

    def _insert_repair(self, v: Node, c: Node, p: Node, node: Node):
        # c, v's non-empty child on node's side, will be too heavy once
        # node lands. Returns the new occupant of v's position, or None
        # once node itself has risen there.
        if c is v.left:
            inner = c.right
            outer = c.left
            inward = node.key > c.key
        else:
            inner = c.left
            outer = c.right
            inward = node.key <= c.key
        if not inward:
            dbl = inner.weight * self._gd > (outer.weight + 1) * self._gn
        else:
            dbl = (inner.weight + 1) * self._gd > outer.weight * self._gn
            if dbl and inner is NIL:
                # The rising pivot is node's own empty slot: hang it there,
                # then the usual double raises it into v's position.
                if c is v.left:
                    c.right = node
                else:
                    c.left = node
                c.weight += 1
                raise_child(self, v, c, p, True)
                return None
        return raise_child(self, v, c, p, dbl)

    def delete(self, key) -> bool:
        nil = NIL
        v = self.root
        if v is nil:
            return False
        dd = self._dd
        s = self._ds
        p = nil
        w = v.weight - 1
        raised = None
        try:
            while True:
                v.weight = w
                k = v.key
                if key == k:
                    c = v.left
                    if c is nil or v.right is nil:
                        break
                    # Two children: the predecessor will leave the left
                    # subtree, so the left child is the one to shrink.
                    cw = c.weight - 1
                    if w * dd <= cw * s or v is raised:
                        break
                else:
                    # c is the child about to shrink; its sibling weighs
                    # w - cw and outweighs delta * cw iff w*dd > cw*(dn+dd).
                    c = v.left if key < k else v.right
                    if c is nil:
                        return self._miss(key)
                    cw = c.weight - 1
                    if w * dd <= cw * s or v is raised:
                        p = v
                        v = c
                        w = cw
                        continue
                # Raise the heavy sibling; the next turn re-aims against
                # the new occupant without a second check.
                v = raised = self._delete_repair(v, c, p)
            # v holds the key; p is its parent.
            c = v.left
            if c is nil or v.right is nil:
                splice_out(self, v, p)
            else:
                self._remove_two_child(v, p, c.weight - 1)
        except BaseException:
            self._recount()
            raise
        self.size -= 1
        return True

    def _delete_repair(self, v: Node, c: Node, p: Node) -> Node:
        # Raise the heavy sibling of c, the shrinking child, into v's
        # position under p; the deletion target is never inside it, so the
        # gamma test reads current weights.
        if c is v.left:
            h = v.right
            dbl = h.left.weight * self._gd > h.right.weight * self._gn
        else:
            h = v.left
            dbl = h.right.weight * self._gd > h.left.weight * self._gn
        return raise_child(self, v, h, p, dbl)

    def _remove_two_child(self, v: Node, p: Node, w: int):
        # Continue the downward pass along v.left's right spine to the
        # predecessor u, then relink it into v's position under p. w is
        # v.left's weight less the leaving node; each level writes its
        # carried weight and gets one repair chance. A repair raises the
        # level's left child, whose right child is then the repaired node:
        # the pass re-aims there without a second check.
        nil = NIL
        dd = self._dd
        s = self._ds
        up = v
        u = v.left
        c = u.right
        while c is not nil:
            u.weight = w
            cw = c.weight - 1
            if w * dd > cw * s:
                up = self._delete_repair(u, c, up)
                up.weight = w
                w = u.weight - 1
            else:
                up = u
                u = c
                w = cw
            c = u.right
        relink_predecessor(self, v, p, u, up)
        u.weight = u.left.weight + u.right.weight

    def _miss(self, key) -> bool:
        # The key is absent: walk its path again from the root and add back
        # the 1 the descent took from each node on it.
        nil = NIL
        v = self.root
        while v is not nil:
            v.weight += 1
            v = v.left if key < v.key else v.right
        return False

    def _recount(self):
        # A key comparison raised. The links are sound, but the weights on
        # the path still hold the pending step: recount every weight,
        # children before parents.
        for v in reversed(subtree_nodes(self.root)):
            v.weight = v.left.weight + v.right.weight
