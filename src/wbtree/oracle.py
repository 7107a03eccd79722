"""Independent referee for the tree implementations.

Everything here is deliberately written against the node interface only
(key, left, right, weight or red, and core's NIL sentinel) and shares no
traversal or predicate code with the implementations it judges:

* SortedMultisetOracle — a bisect-maintained sorted list with the same
  multiset semantics the trees promise (insert always succeeds, delete
  removes one instance and reports whether it found one).
* _walk — the one audit traversal: an iterative post-order walk that
  recounts every subtree from scratch, checks key ordering and the cached
  size (no node carries a parent link to check), and hands each node to
  the audit's own check along with what that check said of its children.
* audit_structure — the walk, checking each stored weight.
* audit_balance — the same single walk, which also applies the balance
  inequalities to the true weights in exact integer arithmetic: with
  delta = n/m exactly, wl*n >= wr*m and wr*n >= wl*m; classic, the only
  real-valued set, is <1+sqrt(2), sqrt(2)> and squares the sqrt(2) side
  instead, which is safe because equality would make sqrt(2) rational.
  It returns the structure lines followed by the balance lines, since a
  balance verdict on recounted weights means something only on a sound
  structure.
* audit_redblack — the walk for the red-black baseline, checking the
  colour rules: black heights (carried up the walk), no red node under a
  red one, and a black root and sentinel.
"""

from __future__ import annotations

import bisect

from .core import NIL
from .params import BalanceParams


class SortedMultisetOracle:
    """Sorted-list multiset used as ground truth in differential tests."""

    __slots__ = ("_keys",)

    def __init__(self, keys=()):
        self._keys = sorted(keys)

    def insert(self, key):
        bisect.insort_right(self._keys, key)

    def remove(self, key) -> bool:
        """Remove one instance; False if the key is absent."""
        i = bisect.bisect_left(self._keys, key)
        if i < len(self._keys) and self._keys[i] == key:
            self._keys.pop(i)
            return True
        return False

    def __contains__(self, key):
        i = bisect.bisect_left(self._keys, key)
        return i < len(self._keys) and self._keys[i] == key

    def __len__(self):
        return len(self._keys)

    def keys(self) -> list:
        """The backing sorted list; treat as read-only."""
        return self._keys


def _walk(tree, out: list[str], check, empty=None):
    """One left-right-root recount of every subtree, ignoring stored
    weights; order and size problems go to out. Once both subtrees of v
    are done, check(v, lw, rw, lx, rx) gets their true weights and the
    values it returned for them (empty for an empty one), and what it
    returns is carried up as v's value. Iterative and depth-proof: each
    finished subtree leaves (true count, least key, greatest key, value)
    on a value stack, right child on top.
    """
    nil = NIL
    root = tree.root
    if root is nil:
        if tree.size != 0:
            out.append(f"empty tree reports size {tree.size}")
        return
    done: list[tuple] = []
    finish, take = done.append, done.pop
    # A node is pushed to be expanded; once expanded it sits under a None
    # marker, and popping the marker finishes it.
    todo = [root]
    push, pop = todo.append, todo.pop
    while todo:
        v = pop()
        expanded = v is None
        if expanded:
            v = pop()
        l, r = v.left, v.right
        if l is nil and r is nil:  # a leaf finishes at once
            n = 1
            finish((1, v.key, v.key, check(v, 1, 1, empty, empty)))
            continue
        if not expanded:
            push(v)
            push(None)
            if r is not nil:
                push(r)
            if l is not nil:
                push(l)
            continue
        ln = rn = 0
        lx = rx = empty
        lo = hi = key = v.key
        if r is not nil:
            rn, rlo, rhi, rx = take()
        # `if b < a: a = b` is min(a, b) exactly, without the call; max alike.
        if l is not nil:
            ln, llo, lhi, lx = take()
            if llo < lo:
                lo = llo
            if lhi > key:  # hi is still key
                hi = lhi
                out.append(f"order: {lhi!r} sits left of {key!r}")
        if r is not nil:
            if rlo < lo:
                lo = rlo
            if rhi > hi:
                hi = rhi
            if rlo < key:
                # Equal keys may legitimately sit right of their twin after
                # a rotation; only a strictly smaller key is a defect.
                out.append(f"order: {rlo!r} sits right of {key!r}")
        n = ln + rn + 1
        finish((n, lo, hi, check(v, ln + 1, rn + 1, lx, rx)))
    # The root finishes last, so n is its count.
    if n != tree.size:
        out.append(f"size {tree.size} but tree holds {n}")


def _audit_weights(tree, ok) -> list[str]:
    """The walk checking stored weights, and balance by ok on the true
    weights when ok is given: structure lines, then balance lines."""
    out: list[str] = []
    unbalanced: list[str] = []

    def check(v, lw, rw, lx, rx):
        if v.weight != lw + rw:
            out.append(f"weight at {v.key!r}: stored {v.weight}, "
                       f"true {lw + rw}")
        if ok is not None and not ok(lw, rw):
            unbalanced.append(f"balance at {v.key!r}: true weights "
                              f"({lw}, {rw})")

    _walk(tree, out, check)
    return out + unbalanced


def audit_structure(tree) -> list[str]:
    """Recount-from-scratch structural audit; empty list means clean."""
    return _audit_weights(tree, None)


def exact_balance_predicate(params: BalanceParams):
    """(wl, wr) -> bool in exact arithmetic; see the module docstring."""
    if isinstance(params.delta, float):  # classic, the only real-valued set

        def ok(wl: int, wr: int) -> bool:
            # wl*(1+sqrt 2) >= wr  <=>  wr - wl <= wl*sqrt 2; square the
            # positive case. Equality is impossible in integers.
            t = wr - wl
            if t > 0 and t * t > 2 * wl * wl:
                return False
            t = wl - wr
            return not (t > 0 and t * t > 2 * wr * wr)

        return ok
    # A rational set: delta = n/m exactly.
    n, m = params.delta.as_integer_ratio()

    def ok(wl: int, wr: int) -> bool:
        return wl * n >= wr * m and wr * n >= wl * m

    return ok


def audit_balance(tree) -> list[str]:
    """Structure lines, then balance lines on true weights, from one walk;
    empty list means clean. A balance verdict on recounted weights means
    something only on a sound structure."""
    return _audit_weights(tree, exact_balance_predicate(tree.params))


def audit_redblack(tree) -> list[str]:
    """The walk checking the red-black properties: a black root and
    sentinel, no red node with a red child, and equal black heights (the
    sentinel counting one) under every node. Empty list means clean."""
    out = ["sentinel is red"] if NIL.red else []
    if tree.root is not NIL and tree.root.red:
        out.append("root is red")

    def check(v, lw, rw, lbh, rbh):
        if lbh != rbh:
            out.append(f"black-height split at {v.key!r}: {lbh} vs {rbh}")
        if v.red and (v.left.red or v.right.red):
            out.append(f"red node {v.key!r} has a red child")
        return (lbh if lbh > rbh else rbh) + (not v.red)

    _walk(tree, out, check, 1)
    return out
