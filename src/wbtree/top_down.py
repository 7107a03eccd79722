"""Single-pass weight-balanced tree: repair while descending.

Insertion walks the tree exactly once, carrying one number down: w, the
current node's weight with the pending +1 of the arriving key already
applied. On arrival it writes w into the node, compares the key once and
reads only the child the key heads into, whose pending weight is
cw = weight(child) + 1. Since weight(v) = weight(left) + weight(right), the
sibling's weight is w - cw without loading the sibling, and the pending
arrival overloads the child's side iff cw * dd > (w - cw) * dn. If it does,
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
repairs when its sibling, weighing w - cw, outweighs delta times cw; only a
repair loads the heavy sibling, which never holds the key, so the gamma test
reads its grandchild weights unadjusted. A found node with at most one child
is spliced out. One with two children checks its left side, which loses the
predecessor, then the pass continues down to the predecessor, decrementing
and repairing, and relinks it into the doomed node's place. If the key is
absent, a second pass back up the parent chain restores the decremented
weights and the delete reports False; rotations already made are kept, as
they leave the tree structurally sound. Every node's weight is written
before the key is compared against it, so the same walk undoes the pending
weight changes of insert and delete alike when a key comparison raises.

The loops keep no per-level counter. With a metrics sink attached, an op
books its node touches once at exit from the length of the parent chain it
left behind (core.chain_length) plus two per repair: an insert touches
every ancestor of the new node, one more if the node was built in place,
and the root once more; a delete touches the root and every node on the
chain of the lowest node that lost a descendant (on a miss, the ancestors
of the last node compared).
"""

from __future__ import annotations

from .core import (NIL, Node, Tree, chain_length, relink_predecessor,
                   rotate_left, rotate_right, splice_out)


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
        w = v.weight + 1
        touches = 1
        try:
            while True:
                v.weight = w
                if key <= v.key:
                    c = v.left
                    if c is nil:
                        node = Node(key, nil, nil, v, 2)
                        v.left = node
                        break
                    cw = c.weight + 1
                    # Pending arrival on the left: overload iff
                    # (|L|+1) > |R|*delta, with |R| = w - cw.
                    if cw * dd <= (w - cw) * dn:
                        v = c
                        w = cw
                        continue
                    v, node = self._insert_repair_left(v, key)
                else:
                    c = v.right
                    if c is nil:
                        node = Node(key, nil, nil, v, 2)
                        v.right = node
                        break
                    cw = c.weight + 1
                    if cw * dd <= (w - cw) * dn:
                        v = c
                        w = cw
                        continue
                    v, node = self._insert_repair_right(v, key)
                touches += 2
                if node is not None:
                    touches += 1
                    break
                # Re-aim against the new occupant, which holds the same
                # nodes, and descend one level without a second check.
                v.weight = w
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
                w = c.weight + 1
        except BaseException:
            # A key comparison raised: take back the pending +1s.
            self._rollback(v, -1)
            raise
        self.size += 1
        # Descent rotations may scribble on the sentinel's parent; rest it.
        nil.parent = nil
        sink = self.sink
        if sink is not None:
            sink.touch_count += touches + chain_length(node.parent)
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
        w = v.weight - 1
        repaired = False
        found = True
        touches = 1
        try:
            while True:
                v.weight = w
                k = v.key
                if key == k:
                    c = v.left
                    if c is nil or v.right is nil:
                        low = splice_out(self, v)
                        break
                    # Two children: the predecessor will leave the left
                    # subtree, so the left child is the one to shrink.
                    cw = c.weight - 1
                    if not repaired and (w - cw) * dd > cw * dn:
                        v = self._delete_repair(v, c)
                        touches += 2
                        repaired = True
                        continue
                    low, more = self._remove_two_child(v, cw)
                    touches += more
                    break
                # c is the child about to shrink; its sibling weighs w - cw.
                c = v.left if key < k else v.right
                if c is nil:
                    self._rollback(v, 1)
                    found = False
                    low = v.parent
                    break
                cw = c.weight - 1
                if not repaired and (w - cw) * dd > cw * dn:
                    v = self._delete_repair(v, c)
                    touches += 2
                    repaired = True
                    continue
                repaired = False
                v = c
                w = cw
        except BaseException:
            self._rollback(v, 1)
            raise
        if found:
            self.size -= 1
        nil.parent = nil
        sink = self.sink
        if sink is not None:
            sink.touch_count += touches + chain_length(low)
        return found

    def _delete_repair(self, v: Node, c: Node) -> Node:
        # Raise the heavy sibling of c, the shrinking child, into v's
        # position; the deletion target is never inside it, so the gamma
        # test reads current weights.
        gn = self._gn
        gd = self._gd
        if c is v.left:
            h = v.right
            if h.left.weight * gd > h.right.weight * gn:
                rotate_right(self, h)
            return rotate_left(self, v)
        h = v.left
        if h.right.weight * gd > h.left.weight * gn:
            rotate_left(self, h)
        return rotate_right(self, v)

    def _remove_two_child(self, v: Node, w: int):
        # Continue the downward pass to the predecessor, then relink it into
        # v's position. w is v.left's weight less the leaving node; each
        # level writes its carried weight and gets one repair chance.
        # Returns the lowest node that lost a descendant and the touches
        # its repairs add.
        nil = NIL
        dn = self._dn
        dd = self._dd
        u = v.left
        c = u.right
        repaired = False
        touches = 0
        while c is not nil:
            u.weight = w
            cw = c.weight - 1
            if not repaired and (w - cw) * dd > cw * dn:
                u = self._delete_repair(u, c)
                touches += 2
                repaired = True
            else:
                repaired = False
                u = c
                w = cw
            c = u.right
        low = relink_predecessor(self, v, u)
        u.weight = u.left.weight + u.right.weight
        return low, touches

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
