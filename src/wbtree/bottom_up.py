"""Two-pass weight-balanced tree: plain BST edit, then repair on the way up.

The downward pass finds the edit point exactly as an unbalanced BST would,
recording the nodes it passes in a list headed by the sentinel; it changes
nothing, so a key comparison that raises leaves the tree as it was. A
delete then unlinks its node with one of core's link edits: splice_out for
a node with at most one child, relink_neighbour for one with two, whose
path first extends down the left child's right spine to the predecessor,
which then takes the deleted node's slot in the list. The upward pass walks
the list back to the root, refreshing each node's weight from its children
and repairing any overhang with core's raise_child, the single or double
rotation top-down repairs with too, chosen here by the gamma test on final
weights; each node's parent is the entry before it. Every ancestor is
re-checked, as deletions can push imbalance arbitrarily far up.

Neither pass keeps a counter; a sink books rotations only, in core.lift.
"""

from __future__ import annotations

from .core import (NIL, Node, Tree, raise_child, relink_neighbour,
                   splice_out)


class BottomUpTree(Tree):
    __slots__ = ()

    def insert(self, key) -> Node:
        nil = NIL
        v = self.root
        node = Node(key, nil, nil, 2)
        if v is nil:
            self.root = node
            self.size = 1
            return node
        path = [nil]
        while True:
            path.append(v)
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
        self.size += 1
        self._repair_upward(path)
        return node

    def delete(self, key) -> bool:
        nil = NIL
        path = [nil]
        v = self.root
        while v is not nil:
            k = v.key
            if key == k:
                break
            path.append(v)
            v = v.left if key < k else v.right
        else:
            return False

        p = path[-1]
        if v.left is not nil and v.right is not nil:
            # Relink the predecessor (max of the left subtree) into v's
            # position; the upward pass refreshes the weights it left stale.
            i = len(path)
            path.append(v)
            u = v.left
            while u.right is not nil:
                path.append(u)
                u = u.right
            relink_neighbour(self, v, p, u, path[-1])
            path[i] = u
        else:
            splice_out(self, v, p)
        self.size -= 1
        self._repair_upward(path)
        return True

    def _repair_upward(self, path: list):
        """Refresh weights and fix overhangs along path, a root-first list
        of nodes headed by the sentinel, from its last node to the root."""
        nil = NIL
        dn = self._dn
        dd = self._dd
        gn = self._gn
        gd = self._gd
        up = reversed(path)
        v = next(up)
        for p in up:
            l = v.left
            r = v.right
            wl = l.weight
            wr = r.weight
            v.weight = wl + wr
            # Delta >= 1, so only the lighter side can be out of balance:
            # one cross-multiplied test per level.
            if wl < wr:
                if wl * dn < wr * dd:
                    # Right side too heavy; raise it. The gamma test compares
                    # the heavy child's inner grandchild against the outer
                    # one; a tie goes to the double rotation — with integral
                    # parameters a tied single can leave the raised child
                    # unbalanced. An empty inner grandchild cannot rise:
                    # under gamma = 1 it ties a leaf's empty outer one, and
                    # turning it would rotate the shared sentinel.
                    m = r.left
                    raise_child(self, v, r, p, m is not nil and
                                m.weight * gd >= r.right.weight * gn)
            elif wr * dn < wl * dd:
                m = l.right
                raise_child(self, v, l, p, m is not nil and
                            m.weight * gd >= l.left.weight * gn)
            v = p
