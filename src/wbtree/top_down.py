"""Single-pass weight-balanced tree: repair while descending.

Insertion walks the tree exactly once, carrying two things down: p, the
current node's parent, and w, the current node's weight with the pending +1
of the arriving key already applied. On arrival it writes w into the node,
compares the key once and reads only the child the key heads into, whose
pending weight is cw = weight(child) + 1. Since weight(v) = weight(left) +
weight(right), the sibling's weight is w - cw without loading the sibling,
and the pending arrival overloads the child's side iff
cw * dd > (w - cw) * dn, that is iff cw * (dn + dd) > w * dn. If it does,
the descent rotates at the current position, single or double per the gamma
test, where the gamma test also anticipates which grandchild subtree the key
will land in; only then is the heavy side loaded. After a rotation the
descent re-aims with one comparison against the node now occupying the
position and carries on downward with the chosen child's weight; at most one
rotation happens per level, which bounds work even for parameter sets with
no balance guarantee.

One wrinkle: the gamma test may pick a double rotation whose rising pivot
is the key's own empty slot (the inner grandchild position the key is headed
for, currently nil). Rotating the tree-as-it-will-be then simply means
building the new node at the current position, with the old occupant and its
heavy child as the two children; the insertion is complete at that moment.
Downgrading to a single rotation here instead would leave the heavy child
lopsided and is the main source of persistent imbalance for tight parameter
pairs. The empty-slot case can only arise on the branch where the key heads
for the inner grandchild: a nil inner can never win the gamma test on the
outer branch, since that would need gamma < 1/2.

Deletion mirrors this with decrements: w is the weight with the pending -1
applied and cw = weight(child) - 1 for the child about to shrink. Each level
repairs when its sibling, weighing w - cw, outweighs delta times cw, that is
when w * dd > cw * (dn + dd); only a repair loads the heavy sibling, which
never holds the key, so the gamma test reads its grandchild weights
unadjusted. After a repair the descent re-aims against the new occupant, as
insertion does. A found node with at most one child is spliced out. One with
two children checks its left side, which loses the predecessor, then the
pass continues down to the predecessor, decrementing and repairing, and
relinks it into the doomed node's place.

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

from .core import (NIL, Node, Tree, relink_predecessor, rotate_left,
                   rotate_right, splice_out)


class TopDownTree(Tree):

    def insert(self, key) -> Node:
        nil = NIL
        v = self.root
        if v is nil:
            node = Node(key, nil, nil, 2)
            self.root = node
            self.size = 1
            return node
        dn = self._dn
        s = self._ds
        p = nil
        w = v.weight + 1
        try:
            while True:
                v.weight = w
                if key <= v.key:
                    c = v.left
                    if c is nil:
                        node = v.left = Node(key, nil, nil, 2)
                        break
                    cw = c.weight + 1
                    # Pending arrival on the left: overload iff
                    # (|L|+1) > |R|*delta, with |R| = w - cw.
                    if cw * s <= w * dn:
                        p = v
                        v = c
                        w = cw
                        continue
                    v, node = self._insert_repair_left(v, p, key)
                else:
                    c = v.right
                    if c is nil:
                        node = v.right = Node(key, nil, nil, 2)
                        break
                    cw = c.weight + 1
                    if cw * s <= w * dn:
                        p = v
                        v = c
                        w = cw
                        continue
                    v, node = self._insert_repair_right(v, p, key)
                if node is not None:
                    break
                # Re-aim against the new occupant, which holds the same
                # nodes, and descend one level without a second check.
                v.weight = w
                if key <= v.key:
                    c = v.left
                    if c is nil:
                        node = v.left = Node(key, nil, nil, 2)
                        break
                else:
                    c = v.right
                    if c is nil:
                        node = v.right = Node(key, nil, nil, 2)
                        break
                p = v
                v = c
                w = c.weight + 1
        except BaseException:
            self._recount()
            raise
        self.size += 1
        return node

    def _insert_repair_left(self, v: Node, p: Node, key):
        # Left side will be too heavy once the key lands. l is real here.
        l = v.left
        inner = l.right
        outer = l.left
        gn = self._gn
        gd = self._gd
        if key <= l.key:
            dbl = inner.weight * gd > (outer.weight + 1) * gn
        else:
            dbl = (inner.weight + 1) * gd > outer.weight * gn
            if dbl and inner is NIL:
                # The rising pivot is the key's own empty slot: build the
                # node right here and the insertion is done. Booked as the
                # double it stands in for, with tree-as-it-will-be weights.
                sink = self.sink
                if sink is not None:
                    sink.record_rotation(l.weight + 1)
                    sink.record_rotation(v.weight)
                return v, self._materialize(v, p, l, v, key)
        if dbl:
            rotate_left(self, l, v)
        return rotate_right(self, v, p), None

    def _insert_repair_right(self, v: Node, p: Node, key):
        r = v.right
        inner = r.left
        outer = r.right
        gn = self._gn
        gd = self._gd
        if key > r.key:
            dbl = inner.weight * gd > (outer.weight + 1) * gn
        else:
            dbl = (inner.weight + 1) * gd > outer.weight * gn
            if dbl and inner is NIL:
                sink = self.sink
                if sink is not None:
                    sink.record_rotation(r.weight + 1)
                    sink.record_rotation(v.weight)
                return v, self._materialize(v, p, v, r, key)
        if dbl:
            rotate_right(self, r, v)
        return rotate_left(self, v, p), None

    def _materialize(self, v: Node, p: Node, a: Node, b: Node, key) -> Node:
        # New node at v's position under p, with children (a, b); a keeps
        # only its left subtree, b only its right. All three weights are
        # rebuilt from scratch, which absorbs the optimistic +1 v took on
        # arrival.
        nil = NIL
        a.right = nil
        a.weight = a.left.weight + 1
        b.left = nil
        b.weight = 1 + b.right.weight
        node = Node(key, a, b, a.weight + b.weight)
        if p is nil:
            self.root = node
        elif p.left is v:
            p.left = node
        else:
            p.right = node
        return node

    def delete(self, key) -> bool:
        nil = NIL
        v = self.root
        if v is nil:
            return False
        dd = self._dd
        s = self._ds
        p = nil
        w = v.weight - 1
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
                    if w * dd <= cw * s:
                        break
                else:
                    # c is the child about to shrink; its sibling weighs
                    # w - cw and outweighs delta * cw iff w*dd > cw*(dn+dd).
                    c = v.left if key < k else v.right
                    if c is nil:
                        return self._miss(key)
                    cw = c.weight - 1
                    if w * dd <= cw * s:
                        p = v
                        v = c
                        w = cw
                        continue
                # Raise the heavy sibling, then re-aim against the new
                # occupant and descend one level without a second check.
                v = self._delete_repair(v, c, p)
                v.weight = w
                k = v.key
                if key == k:
                    break
                c = v.left if key < k else v.right
                if c is nil:
                    return self._miss(key)
                p = v
                v = c
                w = c.weight - 1
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
        gn = self._gn
        gd = self._gd
        if c is v.left:
            h = v.right
            if h.left.weight * gd > h.right.weight * gn:
                rotate_right(self, h, v)
            return rotate_left(self, v, p)
        h = v.left
        if h.right.weight * gd > h.left.weight * gn:
            rotate_left(self, h, v)
        return rotate_right(self, v, p)

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
        nil = NIL
        root = self.root
        if root is nil:
            return
        nodes = [root]
        push = nodes.append
        for v in nodes:
            if v.left is not nil:
                push(v.left)
            if v.right is not nil:
                push(v.right)
        for v in reversed(nodes):
            v.weight = v.left.weight + v.right.weight
