"""Two-pass weight-balanced tree: plain BST edit, then repair on the way up.

The downward pass finds the edit point exactly as an unbalanced BST would.
A delete then unlinks its node with one of core's link edits: splice_out
for a node with at most one child, relink_predecessor for one with two.
Both return the lowest node that lost a descendant, where the upward pass
starts. That pass walks the ancestor chain to the root, refreshing each
node's weight from its children and repairing any overhang with a single
or double rotation chosen by the gamma test. Every ancestor is re-checked;
deletions can push imbalance arbitrarily far up, so there is no early exit.

Neither pass keeps a counter. With a metrics sink attached, an op books its
node touches once, before the upward pass, from the length of the parent
chain that pass will walk (core.chain_length): an insert touches that chain
twice, once going down and once coming up, plus one.
"""

from __future__ import annotations

from .core import (NIL, Node, Tree, chain_length, relink_predecessor,
                   rotate_left, rotate_right, splice_out, subtree_maximum)


class BottomUpTree(Tree):

    def insert(self, key) -> Node:
        nil = NIL
        v = self.root
        node = Node(key, nil, nil, nil, 2)
        if v is nil:
            self.root = node
            self.size = 1
            return node
        while True:
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
            v = c
        node.parent = v
        self.size += 1
        sink = self.sink
        if sink is not None:
            # The descent and the upward pass each touch v's chain once.
            sink.touch_count += 1 + 2 * chain_length(v)
        self._repair_upward(v)
        return node

    def delete(self, key) -> bool:
        nil = NIL
        v = self.search(key)
        if v is None:
            sink = self.sink
            if sink is not None:
                # Book the nodes the search visited; walking the path again
                # keeps a miss without a sink free of per-level counting.
                v = self.root
                while v is not nil:
                    sink.touch_count += 1
                    v = v.left if key < v.key else v.right
            return False

        if v.left is not nil and v.right is not nil:
            # Relink the predecessor (max of the left subtree) into v's
            # position; the upward pass refreshes the weights it left stale.
            low = relink_predecessor(self, v, subtree_maximum(v.left))
            touches = 3
        else:
            low = splice_out(self, v)
            touches = 1
        self.size -= 1
        sink = self.sink
        if sink is not None:
            sink.touch_count += touches + chain_length(low)
        self._repair_upward(low)
        return True

    def _repair_upward(self, start: Node):
        """Refresh weights and fix overhangs from start to the root."""
        nil = NIL
        dn = self._dn
        dd = self._dd
        gn = self._gn
        gd = self._gd
        v = start
        while v is not nil:
            parent = v.parent
            l = v.left
            r = v.right
            wl = l.weight
            wr = r.weight
            v.weight = wl + wr
            if wl * dn < wr * dd:
                # Right side too heavy; raise it. The gamma test compares the
                # heavy child's inner grandchild against the outer one; a tie
                # goes to the double rotation — with integral parameters a
                # tied single can leave the raised child unbalanced. An
                # empty inner grandchild cannot rise: under gamma = 1 it
                # ties a leaf's empty outer one, and turning it would
                # rotate the shared sentinel.
                m = r.left
                if m is not nil and m.weight * gd >= r.right.weight * gn:
                    rotate_right(self, r)
                rotate_left(self, v)
            elif wr * dn < wl * dd:
                m = l.right
                if m is not nil and m.weight * gd >= l.left.weight * gn:
                    rotate_left(self, l)
                rotate_right(self, v)
            v = parent
        # Splices and rotations may aim the sentinel's parent at real nodes;
        # re-loop it so the tree rests with the sentinel self-looped.
        nil.parent = nil
