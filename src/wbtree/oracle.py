"""Independent referee for the tree implementations.

Everything here is deliberately written against the node interface only
(key/left/right/weight and the tree's nil sentinel) and shares no
traversal or predicate code with the implementations it judges:

* SortedMultisetOracle — a bisect-maintained sorted list with the same
  multiset semantics the trees promise (insert always succeeds, delete
  removes one instance and reports whether it found one).
* audit_structure — one iterative post-order walk recounts every subtree
  from scratch and checks stored weights, key ordering and the cached
  size (no node carries a parent link to check).
* audit_balance — the same single walk, which also applies the balance
  inequalities to the true weights in exact integer arithmetic: with
  delta = n/m exactly, wl*n >= wr*m and wr*n >= wl*m; classic, the only
  real-valued set, is <1+sqrt(2), sqrt(2)> and squares the sqrt(2) side
  instead, which is safe because equality would make sqrt(2) rational.
  It returns the structure lines followed by the balance lines, since a
  balance verdict on recounted weights means something only on a sound
  structure.

Balance auditing is for the weight-balanced trees; the red-black tree has
its own property audit next to its implementation.
"""

from __future__ import annotations

import bisect

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


def _walk(tree, ok) -> tuple[list[str], list[str]]:
    """One left-right-root recount of every subtree, ignoring stored
    weights; returns (structure problems, balance problems), the latter
    from ok on the true weights when ok is given.

    Iterative and depth-proof: each finished subtree leaves (true count,
    least key, greatest key) on a value stack, right child on top.
    """
    out: list[str] = []
    unbalanced: list[str] = []
    nil = tree.nil
    root = tree.root
    if root is nil:
        if tree.size != 0:
            out.append(f"empty tree reports size {tree.size}")
        return out, unbalanced
    done: list[tuple] = []
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
        if not expanded and (l is not nil or r is not nil):
            push(v)
            push(None)
            if r is not nil:
                push(r)
            if l is not nil:
                push(l)
            continue
        ln = rn = 0
        lo = hi = key = v.key
        if r is not nil:
            rn, rlo, rhi = done.pop()
        # `if b < a: a = b` is min(a, b) exactly, without the call; max alike.
        if l is not nil:
            ln, llo, lhi = done.pop()
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
        if v.weight != n + 1:
            out.append(f"weight at {key!r}: stored {v.weight}, true {n + 1}")
        if ok is not None and not ok(ln + 1, rn + 1):
            unbalanced.append(
                f"balance at {key!r}: true weights ({ln + 1}, {rn + 1})")
        done.append((n, lo, hi))
    # The root finishes last, so n is its count.
    if n != tree.size:
        out.append(f"size {tree.size} but tree holds {n}")
    return out, unbalanced


def audit_structure(tree) -> list[str]:
    """Recount-from-scratch structural audit; empty list means clean."""
    return _walk(tree, None)[0]


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
    out, unbalanced = _walk(tree, exact_balance_predicate(tree.params))
    return out + unbalanced
