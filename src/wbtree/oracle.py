"""Independent referee for the tree implementations.

Everything here is deliberately written against the node interface only
(key/left/right/parent/weight and the tree's nil sentinel) and shares no
traversal or predicate code with the implementations it judges:

* SortedMultisetOracle — a bisect-maintained sorted list with the same
  multiset semantics the trees promise (insert always succeeds, delete
  removes one instance and reports whether it found one).
* audit_structure — recounts every subtree from scratch and checks stored
  weights, parent links, key ordering, and the cached size.
* audit_balance — recomputes true subtree weights, then applies the
  balance inequalities in exact integer arithmetic: with delta = n/m
  exactly (a float's exact value for real parameters), wl*n >= wr*m and
  wr*n >= wl*m; the 1+sqrt(2) set squares the sqrt(2) side instead,
  which is safe because equality would make sqrt(2) rational.

Balance auditing is for the weight-balanced trees; the red-black tree has
its own property audit next to its implementation.
"""

from __future__ import annotations

import bisect

from .params import PARAM_SETS, BalanceParams, Mode


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


def _postorder(tree) -> list:
    """All nodes, children before parents. Iterative; depth-proof."""
    nil = tree.nil
    order = []
    stack = [tree.root] if tree.root is not nil else []
    while stack:
        v = stack.pop()
        order.append(v)
        if v.left is not nil:
            stack.append(v.left)
        if v.right is not nil:
            stack.append(v.right)
    order.reverse()
    return order


def _true_counts(tree, order) -> dict[int, int]:
    """Recomputed node counts per subtree, ignoring stored weights."""
    nil = tree.nil
    counts: dict[int, int] = {}
    for v in order:
        n = 1
        if v.left is not nil:
            n += counts[id(v.left)]
        if v.right is not nil:
            n += counts[id(v.right)]
        counts[id(v)] = n
    return counts


def audit_structure(tree) -> list[str]:
    """Recount-from-scratch structural audit; empty list means clean."""
    out: list[str] = []
    nil = tree.nil
    root = tree.root
    if root is nil:
        if tree.size != 0:
            out.append(f"empty tree reports size {tree.size}")
        return out
    if root.parent is not nil:
        out.append("root parent is not the sentinel")
    order = _postorder(tree)
    counts = _true_counts(tree, order)
    # Subtree key bounds, built in the same child-first order.
    bounds: dict[int, tuple[object, object]] = {}
    for v in order:
        lo = hi = v.key
        l, r = v.left, v.right
        if l is not nil:
            llo, lhi = bounds[id(l)]
            lo, hi = min(lo, llo), max(hi, lhi)
            if l.parent is not v:
                out.append(f"left child of {v.key!r} has a wrong parent link")
            if lhi > v.key:
                out.append(f"order: {lhi!r} sits left of {v.key!r}")
        if r is not nil:
            rlo, rhi = bounds[id(r)]
            lo, hi = min(lo, rlo), max(hi, rhi)
            if r.parent is not v:
                out.append(f"right child of {v.key!r} has a wrong parent link")
            if rlo < v.key:
                # Equal keys may legitimately sit right of their twin after
                # a rotation; only a strictly smaller key is a defect.
                out.append(f"order: {rlo!r} sits right of {v.key!r}")
        bounds[id(v)] = (lo, hi)
        if v.weight != counts[id(v)] + 1:
            out.append(f"weight at {v.key!r}: stored {v.weight}, "
                       f"true {counts[id(v)] + 1}")
    if counts[id(root)] != tree.size:
        out.append(f"size {tree.size} but tree holds {counts[id(root)]}")
    return out


def exact_balance_predicate(params: BalanceParams):
    """(wl, wr) -> bool in exact arithmetic; see the module docstring."""
    if (params.mode is Mode.REAL
            and params.delta == PARAM_SETS["classic"].delta):

        def ok(wl: int, wr: int) -> bool:
            # wl*(1+sqrt 2) >= wr  <=>  wr - wl <= wl*sqrt 2; square the
            # positive case. Equality is impossible in integers.
            t = wr - wl
            if t > 0 and t * t > 2 * wl * wl:
                return False
            t = wl - wr
            return not (t > 0 and t * t > 2 * wr * wr)

        return ok
    # delta = n/m exactly, for a Fraction and for the value of a float alike.
    n, m = params.delta.as_integer_ratio()

    def ok(wl: int, wr: int) -> bool:
        return wl * n >= wr * m and wr * n >= wl * m

    return ok


def audit_balance(tree) -> list[str]:
    """Check the balance inequalities at every node against true weights."""
    out: list[str] = []
    nil = tree.nil
    if tree.root is nil:
        return out
    order = _postorder(tree)
    counts = _true_counts(tree, order)
    ok = exact_balance_predicate(tree.params)
    for v in order:
        wl = counts[id(v.left)] + 1 if v.left is not nil else 1
        wr = counts[id(v.right)] + 1 if v.right is not nil else 1
        if not ok(wl, wr):
            out.append(f"balance at {v.key!r}: true weights ({wl}, {wr})")
    return out


def audit(tree) -> list[str]:
    """Structure plus balance in one call."""
    return audit_structure(tree) + audit_balance(tree)


def equivalence_check(tree, oracle: SortedMultisetOracle) -> list[str]:
    """Compare tree contents to the oracle multiset; empty means equal."""
    out: list[str] = []
    if len(tree) != len(oracle):
        out.append(f"size: tree {len(tree)}, oracle {len(oracle)}")
    tk = tree.inorder_keys()
    ok_ = oracle.keys()
    if tk != ok_:
        # Both are sorted when healthy, so first point of difference is
        # enough to localize the bug.
        for i, (a, b) in enumerate(zip(tk, ok_)):
            if a != b:
                out.append(f"keys diverge at rank {i}: tree {a!r}, "
                           f"oracle {b!r}")
                break
        else:
            out.append(f"key count: tree {len(tk)}, oracle {len(ok_)}")
    return out


def apply_op(tree, oracle: SortedMultisetOracle, op: str, key) -> str | None:
    """Apply one operation to both sides; returns a discrepancy or None.

    Sizes are compared after every op, and delete return values must
    agree. By induction this keeps the pair in lockstep cheaply; callers
    run equivalence_check at sample points for the full comparison.
    """
    if op == "i":
        tree.insert(key)
        oracle.insert(key)
    elif op == "d":
        got = tree.delete(key)
        want = oracle.remove(key)
        if got is not want:
            return f"delete {key!r}: tree said {got}, oracle said {want}"
    else:
        raise ValueError(f"unknown op {op!r}")
    if len(tree) != len(oracle):
        return f"size skew after {op} {key!r}: {len(tree)} vs {len(oracle)}"
    return None
