"""Single-pass weight-balanced tree: repair while descending.

Insertion walks the tree exactly once. At each node it first bumps the
node's weight (the new key will land in this subtree), then checks whether
that pending arrival would overload one side, using child weights with a +1
on the side the key descends into. If so it rotates at the current position,
single or double per the gamma test, where the gamma test also anticipates
which grandchild subtree the key will land in. After a rotation the descent
re-aims by comparing the key against the node now occupying the position and
carries on downward; at most one rotation happens per level, which bounds
work even for parameter sets with no balance guarantee.

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

Deletion mirrors this with decrements: weights drop on arrival. Each level
names the child about to shrink and its heavy sibling, and repairs when the
sibling outweighs delta times the shrinking child's weight minus one; the
heavy child never holds the key, so the gamma test reads its grandchild
weights unadjusted. A found node with at most one child is spliced out. One
with two children checks its left side, which loses the predecessor, then
the pass continues down to the predecessor, decrementing and repairing, and
relinks it into the doomed node's place. If the key is absent, a second pass
back up the parent chain restores the decremented weights and the delete
reports False; rotations already made are kept, as they leave the tree
structurally sound. The same walk undoes the pending weight changes of
insert and delete alike when a key comparison raises.
"""

from __future__ import annotations

from .core import (NIL, Node, Tree, relink_predecessor, rotate_left,
                   rotate_right, splice_out)


class TopDownTree(Tree):

    def insert(self, key) -> Node:
        nil = NIL
        v = self.root
        if v is nil:
            node = Node(key, nil, nil, nil, 2)
            self.root = node
            self.size = 1
            sink = self.sink
            if sink is not None:
                sink.touch_count += 1
            return node
        dn = self._dn
        dd = self._dd
        touches = 0
        try:
            while True:
                touches += 1
                v.weight += 1
                if key <= v.key:
                    l = v.left
                    # Pending arrival on the left: overload iff (|L|+1) > |R|*delta.
                    if l is not nil and (l.weight + 1) * dd > v.right.weight * dn:
                        v, node = self._insert_repair_left(v, key)
                        touches += 2
                        if node is not None:
                            break
                        v.weight += 1
                else:
                    r = v.right
                    if r is not nil and (r.weight + 1) * dd > v.left.weight * dn:
                        v, node = self._insert_repair_right(v, key)
                        touches += 2
                        if node is not None:
                            break
                        v.weight += 1
                # Descend one level, re-aimed against the current occupant.
                if key <= v.key:
                    c = v.left
                    if c is nil:
                        node = Node(key, nil, nil, v, 2)
                        v.left = node
                        break
                else:
                    c = v.right
                    if c is nil:
                        node = Node(key, nil, nil, v, 2)
                        v.right = node
                        break
                v = c
        except BaseException:
            # A key comparison raised: take back the pending +1s.
            self._rollback(v, -1)
            raise
        self.size += 1
        # Descent rotations may scribble on the sentinel's parent; rest it.
        nil.parent = nil
        sink = self.sink
        if sink is not None:
            sink.touch_count += touches + 1
        return node

    def _insert_repair_left(self, v: Node, key):
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
                return v, self._materialize(v, l, v, key)
        if dbl:
            rotate_left(self, l)
        return rotate_right(self, v), None

    def _insert_repair_right(self, v: Node, key):
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
                return v, self._materialize(v, v, r, key)
        if dbl:
            rotate_right(self, r)
        return rotate_left(self, v), None

    def _materialize(self, v: Node, a: Node, b: Node, key) -> Node:
        # New node at v's position with children (a, b); a keeps only its
        # left subtree, b only its right. All three weights are rebuilt from
        # scratch, which absorbs the optimistic +1 v took on arrival.
        nil = NIL
        g = v.parent
        a.right = nil
        a.weight = a.left.weight + 1
        b.left = nil
        b.weight = 1 + b.right.weight
        node = Node(key, a, b, g, a.weight + b.weight)
        a.parent = node
        b.parent = node
        if g is nil:
            self.root = node
        elif g.left is v:
            g.left = node
        else:
            g.right = node
        return node

    def delete(self, key) -> bool:
        nil = NIL
        v = self.root
        if v is nil:
            return False
        dn = self._dn
        dd = self._dd
        v.weight -= 1
        repaired = False
        found = True
        touches = 1
        try:
            while True:
                k = v.key
                if key == k:
                    l = v.left
                    r = v.right
                    if l is nil or r is nil:
                        splice_out(self, v)
                        break
                    # Two children: the predecessor will leave the left subtree.
                    if not repaired and r.weight * dd > (l.weight - 1) * dn:
                        v = self._delete_repair(v, r)
                        v.weight -= 1
                        touches += 2
                        repaired = True
                        continue
                    touches += self._remove_two_child(v)
                    break
                # c is the child about to shrink, h its heavy sibling.
                if key < k:
                    c = v.left
                    h = v.right
                else:
                    c = v.right
                    h = v.left
                if c is nil:
                    self._rollback(v, 1)
                    found = False
                    break
                if not repaired and h.weight * dd > (c.weight - 1) * dn:
                    v = self._delete_repair(v, h)
                    v.weight -= 1
                    touches += 2
                    repaired = True
                    continue
                repaired = False
                v = c
                v.weight -= 1
                touches += 1
        except BaseException:
            self._rollback(v, 1)
            raise
        if found:
            self.size -= 1
        nil.parent = nil
        sink = self.sink
        if sink is not None:
            sink.touch_count += touches
        return found

    def _delete_repair(self, v: Node, h: Node) -> Node:
        # Raise h, v's heavy child, opposite the shrinking side; the deletion
        # target is never inside it, so the gamma test reads current weights.
        gn = self._gn
        gd = self._gd
        if h is v.right:
            if h.left.weight * gd > h.right.weight * gn:
                rotate_right(self, h)
            return rotate_left(self, v)
        if h.right.weight * gd > h.left.weight * gn:
            rotate_left(self, h)
        return rotate_right(self, v)

    def _remove_two_child(self, v: Node) -> int:
        # Continue the downward pass to the predecessor, then relink it into
        # v's position. Decrement on arrival; one repair chance per level.
        nil = NIL
        dn = self._dn
        dd = self._dd
        u = v.left
        u.weight -= 1
        touches = 1
        repaired = False
        while u.right is not nil:
            if not repaired and u.left.weight * dd > (u.right.weight - 1) * dn:
                u = self._delete_repair(u, u.left)
                u.weight -= 1
                touches += 2
                repaired = True
                continue
            repaired = False
            u = u.right
            u.weight -= 1
            touches += 1
        relink_predecessor(self, v, u)
        u.weight = u.left.weight + u.right.weight
        return touches

    def _rollback(self, v: Node, step: int):
        # Absent key, or a key comparison raised: add step back along the
        # current ancestor chain to undo the optimistic weight changes.
        # Rotations performed on the way down stay; they leave the tree
        # structurally sound.
        nil = NIL
        while v is not nil:
            v.weight += step
            v = v.parent
        nil.parent = nil
