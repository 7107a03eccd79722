"""End-to-end acceptance checks at full desk scale.

One test per numbered claim, collected in order; the -v listing is the
scorecard, and each test prints one summary line with its measured
numbers. Everything derives from fixed master seeds, so reruns are
bit-identical. The module takes several minutes: balance soundness is
verified after every single operation (C1), and the depth/rotation
experiments use 100k-node trees.

Runtime budgets shaped the protocols (local per-op balance checks with
periodic full recounts, small key universes where per-op full
comparisons are required) but are not asserted as wall-clock limits, so
the verdicts stay machine-independent.
"""

import statistics
import time

import pytest

from wbtree.bench import (
    ExperimentSpec,
    emit_results,
    expand_variants,
    run_depth_churn,
    run_insert_pct,
    run_rotations,
    run_violations_over_time,
)
from wbtree.bottom_up import BottomUpTree
from wbtree.core import NIL
from wbtree.keygen import (
    STREAM_BASE,
    STREAM_FRESH,
    STREAM_OPMIX,
    STREAM_VICTIM,
    SplitMix64,
    derive_seed,
    gen_uniform,
    generate,
)
from wbtree.metrics import MetricsSink, count_violations
from wbtree.oracle import SortedMultisetOracle, audit_structure
from wbtree.params import PARAM_SETS
from wbtree.redblack import RedBlackTree
from wbtree.redblack import audit as rb_audit
from wbtree.top_down import TopDownTree

from test_bench import run_with_shapes
from test_core import dump
from test_keygen import dump_workload
from test_oracle import apply_op

ALL_PARAM_NAMES = ["classic", "integral", "topdown", "tight", "overtight"]
WIDE = 2 ** 60

# Deselect with `pytest -m "not acceptance"` for the fast loop.
pytestmark = pytest.mark.acceptance


def _collect_path(tree, key, equal_left):
    """Nodes on the comparison path for key, equals descending left or
    right; runs to NIL (or through the key's node) and returns the list."""
    v = tree.root
    out = []
    while v is not NIL:
        out.append(v)
        vk = v.key
        if key < vk or (equal_left and key == vk):
            v = v.left
        else:
            v = v.right
    return out


def _predecessor_key(tree, key):
    """Largest key strictly below `key`, or None."""
    v = tree.root
    best = None
    while v is not NIL:
        if v.key < key:
            best = v.key
            v = v.right
        else:
            v = v.left
    return best


def _first_local_violation(nodes, dn, dd, with_children):
    """Balance-check the given nodes (and optionally their children).

    Every node whose child weights an operation can change lies on the
    comparison paths walked by the caller, or is a direct child of one
    when a rotation ran; so a clean sweep here, after a clean previous
    state, means the whole tree is still clean.
    """
    for v in nodes:
        l = v.left
        r = v.right
        wl = l.weight
        wr = r.weight
        if wl * dn < wr * dd or wr * dn < wl * dd:
            return v
        if with_children:
            for c in (l, r):
                if c is not NIL:
                    cwl = c.left.weight
                    cwr = c.right.weight
                    if cwl * dn < cwr * dd or cwr * dn < cwl * dd:
                        return c
    return None


def test_c1_feasible_variants_stay_violation_free():
    """Sound scheme/parameter pairings keep exactly zero violations.

    Grow to 10^4 nodes per seed, then run 10^5 mixed ops. After every op
    the modified region (comparison path of the touched key, plus the
    predecessor path for deletes, plus path children when a rotation
    fired) must be violation-free; full recounts every 2000 ops and
    structure audits every 10^4 ops anchor the induction.
    """
    t0 = time.time()
    pairs = [
        (BottomUpTree, PARAM_SETS["classic"]),
        (BottomUpTree, PARAM_SETS["integral"]),
        (TopDownTree, PARAM_SETS["topdown"]),
    ]
    grow_n = 10 ** 4
    ops = 10 ** 5
    for cls, params in pairs:
        dn, dd = params.dn, params.dd
        for seed in range(1, 11):
            keys = gen_uniform(grow_n, WIDE,
                               derive_seed(seed, grow_n, 0,
                                           STREAM_BASE)).keys
            sink = MetricsSink()
            tree = cls(params, sink=sink)
            insert = tree.insert
            delete = tree.delete
            for k in keys:
                insert(k)
            assert count_violations(tree) == 0
            contents = list(keys)
            coin = SplitMix64(derive_seed(seed, grow_n, 0, STREAM_OPMIX))
            freshr = SplitMix64(derive_seed(seed, grow_n, 0, STREAM_FRESH))
            vic = SplitMix64(derive_seed(seed, grow_n, 0, STREAM_VICTIM))
            last_rot = sink.rotation_count
            label = f"{cls.__name__}/{params}"
            for i in range(ops):
                if coin.below(2) == 0 or not contents:
                    k = freshr.below(WIDE)
                    insert(k)
                    contents.append(k)
                    walk = _collect_path(tree, k, equal_left=True)
                else:
                    j = vic.below(len(contents))
                    k = contents[j]
                    contents[j] = contents[-1]
                    contents.pop()
                    pk = _predecessor_key(tree, k)
                    delete(k)
                    walk = _collect_path(tree, k, equal_left=False)
                    if pk is not None:
                        walk += _collect_path(tree, pk, equal_left=True)
                rot = sink.rotation_count
                bad = _first_local_violation(walk, dn, dd,
                                             with_children=rot != last_rot)
                last_rot = rot
                assert bad is None, \
                    f"{label} seed {seed} op {i}: violation at {bad!r}"
                if i % 2000 == 1999:
                    assert count_violations(tree) == 0, \
                        f"{label} seed {seed} op {i}: full recount dirty"
                if i % 10 ** 4 == 9999:
                    assert audit_structure(tree) == [], \
                        f"{label} seed {seed} op {i}: structure audit"
            assert count_violations(tree) == 0
            assert audit_structure(tree) == []
    print(f"[C1] feasible pairings violation-free after every op: PASS "
          f"(3 pairings x 10 seeds x {ops} ops, {time.time() - t0:.0f}s)")


def _mixed_program(seed, n_ops, universe):
    """Deterministic op list: ~45% insert, ~45% delete a present key,
    ~10% delete a drawn key that may be absent."""
    coin = SplitMix64(derive_seed(seed, 0, 0, STREAM_OPMIX))
    fresh = SplitMix64(derive_seed(seed, 0, 0, STREAM_FRESH))
    vic = SplitMix64(derive_seed(seed, 0, 0, STREAM_VICTIM))
    contents = []
    prog = []
    for _ in range(n_ops):
        r = coin.below(20)
        if r < 9 or not contents:
            k = fresh.below(universe)
            contents.append(k)
            prog.append(("i", k))
        elif r < 18:
            j = vic.below(len(contents))
            k = contents[j]
            contents[j] = contents[-1]
            contents.pop()
            prog.append(("d", k))
        else:
            prog.append(("d", fresh.below(universe)))
    return prog


def test_c2_every_variant_matches_the_oracle():
    """All eleven tree configurations stay in-order-identical to the
    sorted-multiset oracle after each of 10^4 mixed ops, five seeds."""
    t0 = time.time()
    variants = expand_variants(["bottom_up", "top_down", "redblack"],
                               ALL_PARAM_NAMES)
    assert len(variants) == 11
    for seed in range(1, 6):
        prog = _mixed_program(seed, 10 ** 4, universe=500)
        for vs in variants:
            tree = vs.make_tree()
            oracle = SortedMultisetOracle()
            for idx, (op, key) in enumerate(prog):
                note = apply_op(tree, oracle, op, key)
                assert note is None, \
                    f"{vs.label} seed {seed} op {idx}: {note}"
                # apply_op compared the sizes.
                assert tree.inorder_keys() == oracle.keys(), \
                    f"{vs.label} seed {seed} op {idx}"
    print(f"[C2] 11 variants x 5 seeds x 10000 ops oracle-identical: "
          f"PASS ({time.time() - t0:.0f}s)")


def test_c3_loose_topdown_violations_stabilize():
    """Top-down <2,3/2> on 10^5 nodes: violations stay rare and flat.

    2*10^5 delete/insert pairs per seed, sampled every 10^3 pairs. The
    final violating fraction must be under 1%, and the mean over the
    last quartile of samples must be within a factor of two of the mean
    over the second quartile (no upward drift), for each of 10 seeds.
    """
    t0 = time.time()
    finals, ratios = [], []
    for seed in range(1, 11):
        spec = ExperimentSpec(
            experiment="violations",
            variants=expand_variants(["top_down"], ["tight"]),
            dist="uniform", sizes=[10 ** 5], base_trees=1, seed=seed,
            op_pairs=2 * 10 ** 5, sample_interval=10 ** 3)
        res = run_violations_over_time(spec)
        fracs = [r.violation_count / 10 ** 5 for r in res.rows]
        assert len(fracs) == 200
        q2 = statistics.fmean(fracs[50:100])
        q4 = statistics.fmean(fracs[150:200])
        finals.append(fracs[-1])
        ratios.append(q4 / q2)
        assert fracs[-1] < 0.01, \
            f"seed {seed}: final fraction {fracs[-1]:.4f} >= 1%"
        assert q4 <= 2 * q2 and q2 <= 2 * q4, \
            f"seed {seed}: quartile means drift (q2 {q2:.5f}, q4 {q4:.5f})"
    print(f"[C3] top_down/tight violation fraction stabilizes: PASS "
          f"(finals {min(finals):.4f}..{max(finals):.4f}, "
          f"q4/q2 {min(ratios):.2f}..{max(ratios):.2f}, "
          f"{time.time() - t0:.0f}s)")


def _churn_depth_means(dist):
    spec = ExperimentSpec(
        experiment="depth-churn",
        variants=expand_variants(["top_down", "redblack"],
                                 ["tight", "classic", "overtight"]),
        dist=dist, sizes=[10 ** 5], base_trees=10, seed=1)
    res = run_depth_churn(spec)
    means = {}
    for name in ("tight", "classic", "overtight", ""):
        vals = [r.avg_depth for r in res.rows if r.params == name]
        assert len(vals) == 10
        means[name or "redblack"] = statistics.fmean(vals)
    return means


def test_c4_uniform_churn_depth_ordering():
    """Tighter balance bounds should mean shallower trees under uniform
    churn: overtight <= tight <= classic on mean average depth.

    A smaller delta is a tighter bound, and by delta the sets rank
    overtight (3/2), tight (2), classic (1+sqrt 2). Neither of the two
    tighter sets is feasible, and under delta = 3/2 every two-node
    subtree (weight 3, child weights 1 and 2) violates with no rotation
    able to fix it, so overtight keeps a trickle of fringe violations;
    everywhere else it balances hardest, and the net tree is the
    shallowest. The chain is asserted for top_down at the full scale
    and again for bottom_up at n=10^4, so the order is pinned to the
    parameter sets rather than to one repair scheme.
    """
    t0 = time.time()
    means = _churn_depth_means("uniform")
    line = (f"tight {means['tight']:.3f} / classic {means['classic']:.3f} "
            f"/ overtight {means['overtight']:.3f}")
    spec = ExperimentSpec(
        experiment="depth-churn",
        variants=expand_variants(["bottom_up"],
                                 ["overtight", "tight", "classic"]),
        dist="uniform", sizes=[10 ** 4], base_trees=10, seed=1)
    res = run_depth_churn(spec)
    bu = {}
    for name in ("overtight", "tight", "classic"):
        vals = [r.avg_depth for r in res.rows if r.params == name]
        assert len(vals) == 10
        bu[name] = statistics.fmean(vals)
    bu_line = (f"bottom_up n=10^4: tight {bu['tight']:.3f} / classic "
               f"{bu['classic']:.3f} / overtight {bu['overtight']:.3f}")
    ok = all(m["overtight"] <= m["tight"] <= m["classic"]
             for m in (means, bu))
    print(f"[C4] uniform-churn depth ordering overtight <= tight <= classic: "
          f"{'PASS' if ok else 'FAIL'} (top_down {line}; {bu_line}, "
          f"{time.time() - t0:.0f}s)")
    assert means["tight"] <= means["classic"], f"first leg: {line}"
    assert means["overtight"] <= means["tight"], f"second leg: {line}"
    assert bu["tight"] <= bu["classic"], f"bottom_up first leg: {bu_line}"
    assert bu["overtight"] <= bu["tight"], f"bottom_up second leg: {bu_line}"


def test_c5_zipf_churn_depth_gap_vs_redblack():
    """Under zipf(1) churn the best weight-balanced variant ends at
    least 5% shallower than the red-black baseline."""
    t0 = time.time()
    means = _churn_depth_means("zipf")
    best_name = min(("tight", "classic", "overtight"),
                    key=lambda n: means[n])
    best = means[best_name]
    rb = means["redblack"]
    gap = (rb - best) / rb
    print(f"[C5] zipf-churn depth gap: {'PASS' if gap >= 0.05 else 'FAIL'} "
          f"(top_down/{best_name} {best:.3f} vs redblack {rb:.3f}, "
          f"gap {gap * 100:.1f}%, {time.time() - t0:.0f}s)")
    assert gap >= 0.05, \
        f"best {best_name} {best:.3f}, redblack {rb:.3f}, gap {gap:.3f}"


def test_c6_rotation_count_ratios():
    """Rotation totals over 10^5 churn pairs on 10^5-node trees:
    both delta=3 parameterizations rotate 0.3x-0.7x as often as
    classic, and the over-tight set rotates >= 10x the integral set."""
    t0 = time.time()
    spec = ExperimentSpec(
        experiment="rotations",
        variants=expand_variants(
            ["top_down"], ["classic", "integral", "topdown", "overtight"]),
        dist="uniform", sizes=[10 ** 5], base_trees=10, seed=1,
        op_pairs=10 ** 5, sample_interval=10 ** 5)
    res = run_rotations(spec)
    totals = {}
    for r in res.rows:
        if r.op_index == r.ops:
            totals[r.params] = totals.get(r.params, 0) + r.rotation_count
    ints = totals["integral"] / totals["classic"]
    td = totals["topdown"] / totals["classic"]
    over = totals["overtight"] / totals["integral"]
    print(f"[C6] rotation ratios: PASS (integral/classic {ints:.3f}, "
          f"topdown/classic {td:.3f}, overtight/integral {over:.1f}, "
          f"{time.time() - t0:.0f}s)")
    assert 0.3 <= ints <= 0.7, f"integral/classic {ints:.3f}"
    assert 0.3 <= td <= 0.7, f"topdown/classic {td:.3f}"
    assert over >= 10.0, f"overtight/integral {over:.2f}"


def test_c7_topdown_insert_pass_is_faster():
    """Single-pass top-down inserts beat the two-pass bottom-up walk on
    per-op wall time for the classic parameters: serial timing, 10 base
    trees of 10^5 uniform keys, 5% fresh inserts each; direction only,
    majority of at least 8 trees out of 10."""
    t0 = time.time()
    spec = ExperimentSpec(
        experiment="insert-pct",
        variants=[*expand_variants(["top_down"], ["classic"]),
                  *expand_variants(["bottom_up"], ["classic"])],
        # the harness default 1s floor applies: enough repetitions that
        # per-tree means resolve the direction instead of scheduler noise
        dist="uniform", sizes=[10 ** 5], base_trees=10, seed=1)
    res = run_insert_pct(spec)
    # rows come out tree-major, so filtering by variant keeps tree order
    # and zip below pairs measurements taken on the same base tree
    td = [r.elapsed_ns for r in res.rows if r.variant == "top_down"]
    bu = [r.elapsed_ns for r in res.rows if r.variant == "bottom_up"]
    assert len(td) == len(bu) == 10
    wins = sum(1 for a, b in zip(td, bu) if a < b)
    print(f"[C7] top_down faster per insert: "
          f"{'PASS' if wins >= 8 else 'FAIL'} ({wins}/10 trees, "
          f"medians {statistics.median(td):.0f}ns vs "
          f"{statistics.median(bu):.0f}ns, {time.time() - t0:.0f}s)")
    assert wins >= 8, f"top_down won only {wins}/10 trees"


def test_c8_redblack_audit_clean_after_every_op():
    """The baseline passes its own color/height/order audit after each
    of 10^4 mixed ops, five seeds."""
    t0 = time.time()
    for seed in range(1, 6):
        tree = RedBlackTree()
        for idx, (op, key) in enumerate(_mixed_program(seed, 10 ** 4,
                                                       universe=500)):
            if op == "i":
                tree.insert(key)
            else:
                tree.delete(key)
            probs = rb_audit(tree)
            assert probs == [], f"seed {seed} op {idx}: {probs}"
    print(f"[C8] red-black audit clean after every op: PASS "
          f"(5 seeds x 10000 ops, {time.time() - t0:.0f}s)")


def test_c9_identical_seeds_identical_bytes(tmp_path):
    """Same seed, same bytes: key workload files, result rows, and tree
    shape dumps all round-trip identically; timings are excluded by
    construction (the compared experiment records none)."""
    t0 = time.time()
    cases = [
        ("uniform", 2000, WIDE, 11, 0.0),
        ("zipf", 2000, 10 ** 6, 12, 1.0),
        ("zipf", 500, 2 * 10 ** 7, 13, 1.25),   # rejection-sampled range
        ("skewed", 2000, 10 ** 6, 14, 0.0),
        ("presorted", 2000, 2000, 15, 0.0),
    ]
    for dist, n, universe, seed, s in cases:
        a = dump_workload(generate(dist, n, universe, seed, s))
        b = dump_workload(generate(dist, n, universe, seed, s))
        assert a.encode() == b.encode(), f"{dist} workload bytes differ"
        c = dump_workload(generate(dist, n, universe, seed + 99, s))
        assert c != a

    def shape_run():
        spec = ExperimentSpec(
            experiment="violations",
            variants=expand_variants(["top_down", "redblack"],
                                     ["integral", "tight"]),
            dist="uniform", sizes=[2000], base_trees=2, seed=21,
            op_pairs=4000, sample_interval=1000)
        return run_with_shapes(run_violations_over_time, spec)

    (r1, s1), (r2, s2) = shape_run(), shape_run()
    assert s1 == s2 and len(s1) == 6
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_results(r1.rows, "csv", str(p1))
    emit_results(r2.rows, "csv", str(p2))
    assert p1.read_bytes() == p2.read_bytes()

    keys = gen_uniform(3000, WIDE, 31).keys
    dumps = []
    for _ in range(2):
        t = BottomUpTree(PARAM_SETS["classic"])
        for k in keys:
            t.insert(k)
        dumps.append(dump(t))
    assert dumps[0].encode() == dumps[1].encode()
    print(f"[C9] seed determinism down to bytes: PASS "
          f"({time.time() - t0:.0f}s)")
