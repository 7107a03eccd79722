"""Two-pass weight-balanced tree: plain BST edit, then repair on the way up.

The downward pass is core's plain edit, which red-black shares: core.attach
hangs a new node, and core.detach unlinks a deleted one, handing a
two-child node's slot to its predecessor. Each records the nodes it passes
in a list headed by the sentinel and changes nothing before its edit, so a
key comparison that raises leaves the tree as it was. The upward pass walks
the list back to the root, refreshing each node's weight from its children
and repairing any overhang with core's raise_child, the single or double
rotation top-down repairs with too, chosen here by the gamma test on final
weights; each node's parent is the entry before it. Every ancestor is
re-checked, as deletions can push imbalance arbitrarily far up.

Neither pass keeps a counter; a sink books rotations only, in core.lift.
"""

from __future__ import annotations

from .core import NIL, Node, Tree, attach, detach, raise_child


class BottomUpTree(Tree):
    __slots__ = ()

    def insert(self, key) -> Node:
        node = Node(key)
        self._repair_upward(attach(self, node))
        return node

    def delete(self, key) -> bool:
        # The upward pass refreshes the weights the edit left stale.
        found = detach(self, key)
        if found is None:
            return False
        self._repair_upward(found[0])
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
