"""Harness-level tests: variant expansion, spec validation, the
experiment drivers at toy sizes, replay, and result emission."""

import csv
import gc
import inspect
import json
import re
import sys
from pathlib import Path

import pytest

from wbtree import bench
from wbtree.bench import (
    EXPERIMENTS,
    ExperimentSpec,
    RUNNERS,
    VariantSpec,
    emit_results,
    expand_variants,
    parse_ops,
    run_depth_churn,
    run_erase_pct,
    run_insert_pct,
    run_replay,
    run_rotations,
    run_violations_over_time,
    tree_shape,
)
from wbtree.bottom_up import BottomUpTree
from wbtree.core import Node
from wbtree.keygen import STREAM_BASE, derive_seed, generate
from wbtree.metrics import CSV_COLUMNS, MetricsSink
from wbtree.params import PARAM_SETS, params_from_name
from wbtree.redblack import RbNode, RedBlackTree


def keys_of(shape: str) -> list[int]:
    # structure_string interleaves keys with parens and '.' only, so the
    # integers in the text are exactly the key multiset.
    return sorted(int(m) for m in re.findall(r"\d+", shape))


def tiny_spec(experiment, variants, **kw):
    base = dict(dist="uniform", sizes=[40], base_trees=2, seed=7,
                time_floor_ms=0)
    base.update(kw)
    return ExperimentSpec(experiment=experiment, variants=variants, **base)


REPLAY_OPS = ([("i", k) for k in range(60)]
              + [("d", k) for k in range(0, 90, 4)])


def run_with_shapes(runner, spec, *args):
    """Run a harness runner; returns its result and each cell's final tree
    shape keyed (size, base tree, variant label), in run order.

    The harness computes no shapes. This wraps the one audit call each
    cell makes on its final tree, and rebuilds the cell keys from the
    order the runners visit cells in: sizes, base trees, variants.
    """
    seen = []
    audit = bench._audit_cell

    def audit_and_shape(vs, tree, spec, where):
        audit(vs, tree, spec, where)
        seen.append((vs.label, tree_shape(tree)))

    bench._audit_cell = audit_and_shape
    try:
        res = runner(spec, *args)
    finally:
        bench._audit_cell = audit
    if spec.experiment == "replay":
        cells = [(0, 0)] * len(seen)
    else:
        cells = [(size, ti) for size in spec.sizes
                 for ti in range(spec.base_trees) for _ in spec.variants]
    assert len(cells) == len(seen)
    return res, {(*cell, label): shape
                 for cell, (label, shape) in zip(cells, seen)}


def run_experiment(spec):
    """Run spec through its runner; replay gets REPLAY_OPS."""
    if spec.experiment == "replay":
        return run_replay(spec, REPLAY_OPS)
    return RUNNERS[spec.experiment](spec)


# --- variant specs ---------------------------------------------------------

def test_variant_spec_rejects_bad_scheme():
    with pytest.raises(ValueError, match="unknown scheme"):
        VariantSpec("avl", PARAM_SETS["integral"])


def test_variant_spec_params_pairing():
    with pytest.raises(ValueError, match="weight-balanced schemes only"):
        VariantSpec("redblack", PARAM_SETS["integral"])
    with pytest.raises(ValueError, match="weight-balanced schemes only"):
        VariantSpec("bottom_up", None)


def test_variant_labels():
    vs = VariantSpec("top_down", PARAM_SETS["topdown"])
    assert vs.label == "top_down/topdown"
    assert vs.params_name == "topdown"
    rb = VariantSpec("redblack", None)
    assert rb.label == "redblack"
    assert rb.params_name == ""


def test_variant_make_tree_types():
    assert isinstance(VariantSpec("bottom_up", PARAM_SETS["classic"])
                      .make_tree(), BottomUpTree)
    assert isinstance(VariantSpec("redblack", None).make_tree(),
                      RedBlackTree)


@pytest.mark.parametrize("scheme,pname,want", [
    ("redblack", None, True),
    ("bottom_up", "classic", True),
    ("bottom_up", "integral", True),
    ("bottom_up", "topdown", False),
    ("top_down", "topdown", True),
    ("top_down", "tight", False),
    ("top_down", "overtight", False),
])
def test_balance_guaranteed(scheme, pname, want):
    params = None if pname is None else PARAM_SETS[pname]
    assert VariantSpec(scheme, params).balance_guaranteed() is want


def test_expand_variants_crosses():
    out = expand_variants(["redblack", "bottom_up"], ["classic", "integral"])
    assert [v.label for v in out] == [
        "redblack", "bottom_up/classic", "bottom_up/integral"]


def test_expand_variants_errors():
    with pytest.raises(ValueError, match="unknown variant"):
        expand_variants(["splay"], ["classic"])
    with pytest.raises(ValueError, match="at least one parameter set"):
        expand_variants(["top_down"], [])


# --- spec validation -------------------------------------------------------

def test_spec_check_rejects():
    vs = [VariantSpec("redblack", None)]
    bad = [
        dict(experiment="sort"),
        dict(dist="gaussian"),
        dict(variants=[]),
        dict(base_trees=0),
        dict(sizes=[]),
        dict(sizes=[10, 0]),
        dict(sample_interval=0),
        dict(time_floor_ms=-1),
    ]
    for over in bad:
        kw = dict(experiment="insert-pct", variants=vs)
        kw.update(over)
        with pytest.raises(ValueError):
            ExperimentSpec(**kw).check()


def test_universe_defaults():
    vs = [VariantSpec("redblack", None)]
    mk = lambda **kw: ExperimentSpec(experiment="insert-pct", variants=vs,
                                     **kw)
    assert mk(dist="presorted").universe_for(500) == 500
    assert mk(dist="zipf").universe_for(500) == 10 ** 6
    assert mk(dist="uniform").universe_for(500) == 2 ** 60
    assert mk(dist="skewed").universe_for(500) == 2 ** 60
    assert mk(dist="uniform", universe=999).universe_for(500) == 999
    # presorted keys index the tree contents, so the override loses there
    assert mk(dist="presorted", universe=999).universe_for(500) == 500


def test_runner_table_covers_non_replay_experiments():
    assert set(RUNNERS) == set(EXPERIMENTS) - {"replay"}


# --- insert / erase percent ------------------------------------------------

def test_insert_pct_rows():
    variants = expand_variants(["bottom_up", "redblack"], ["integral"])
    res, shapes = run_with_shapes(run_insert_pct,
                                  tiny_spec("insert-pct", variants))
    assert len(res) == 2 * 2          # trees x variants
    assert len(shapes) == 4
    for r in res:
        assert r.op == "insert"
        assert r.ops == 2                  # ceil(40 / 20)
        assert r.op_index == -1
        assert r.rep >= 1
        assert r.elapsed_ns > 0.0
        assert r.avg_depth > 0.0
        assert r.universe == 2 ** 60
        if r.variant == "redblack":
            assert r.violation_count == -1
        else:
            assert r.violation_count == 0
    for (size, ti, label), shape in shapes.items():
        assert size == 40 and ti in (0, 1)
        assert len(keys_of(shape)) == 42


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_each_audited_cell_makes_one_audit_call(monkeypatch, experiment):
    calls = []
    for name in ("audit_structure", "audit_balance", "rb_audit"):
        audit = getattr(bench, name)
        monkeypatch.setattr(
            bench, name,
            lambda tree, name=name, audit=audit: calls.append(name) or audit(tree))
    variants = expand_variants(["bottom_up", "top_down", "redblack"],
                               ["classic", "integral", "topdown"])
    run_experiment(tiny_spec(experiment, variants, audit=True, op_pairs=30,
                             sample_interval=8))
    # 7 variants x 2 trees (replay: one empty tree); the three sound WBT
    # pairings get audit_balance, which includes the structure checks.
    cells = 1 if experiment == "replay" else 2
    assert len(calls) == 7 * cells
    assert (calls.count("audit_balance"), calls.count("audit_structure"),
            calls.count("rb_audit")) == (3 * cells, 3 * cells, cells)


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_timed_cells_leave_no_trees_behind(experiment):
    # Timed cells run several reps, each on a fresh clone; every cell must
    # free each clone and base tree it made, not leave them for a later
    # collection. The automatic collector stays off, so none runs.
    def live_nodes():
        return sum(1 for o in gc.get_objects()
                   if type(o) in (Node, RbNode))

    gc.collect()
    before = live_nodes()
    spec = tiny_spec(experiment, expand_variants(
        ["bottom_up", "top_down", "redblack"], ["integral"]),
        sizes=[2000], base_trees=2, time_floor_ms=50, op_pairs=500)
    gc.disable()
    try:
        res = run_experiment(spec)
        assert live_nodes() == before
    finally:
        gc.enable()
    if experiment in ("insert-pct", "erase-pct", "replay"):
        assert all(r.rep > 1 for r in res)


def test_timed_reps_run_without_a_sink_then_count_once_more():
    # The timed reps see no sink; one more rep, on the base tree itself,
    # counts the phase, so the counters are exactly one phase's.
    base = BottomUpTree(PARAM_SETS["integral"])
    for k in range(200):
        base.insert(k)
    sinks = []

    def phase(t):
        sinks.append(t.sink)
        for k in range(200, 300):
            t.insert(k)

    spec = tiny_spec("insert-pct", [], time_floor_ms=20)
    durations, sink, final = bench._timed_reps(spec, base, phase)
    assert len(durations) > 1 and len(sinks) == len(durations) + 1
    assert sinks[:-1] == [None] * len(durations) and sinks[-1] is sink
    once = BottomUpTree(PARAM_SETS["integral"])
    for k in range(200):
        once.insert(k)
    once.sink = MetricsSink()
    phase(once)
    assert (sink.rotation_count, sink.rotated_weight_total) == (
        once.sink.rotation_count, once.sink.rotated_weight_total) != (0, 0)
    assert final is base and final.inorder_keys() == list(range(300))


def test_erase_pct_shares_victims():
    variants = expand_variants(["bottom_up", "top_down"], ["integral"])
    spec = tiny_spec("erase-pct", variants, sizes=[60], base_trees=1)
    res, shapes = run_with_shapes(run_erase_pct, spec)
    assert len(res) == 2
    for r in res:
        assert r.op == "erase" and r.ops == 3
    a = shapes[(60, 0, "bottom_up/integral")]
    b = shapes[(60, 0, "top_down/integral")]
    # same victims against the same base keys: identical final multisets
    assert keys_of(a) == keys_of(b)
    assert len(keys_of(a)) == 57
    base = generate("uniform", 60, spec.universe_for(60),
                    derive_seed(spec.seed, 60, 0, STREAM_BASE), 0.0).keys
    removed = [k for k in sorted(base) if k not in keys_of(a)]
    leftover = list(keys_of(a))
    for k in base:
        if k in leftover:
            leftover.remove(k)
    assert len(removed) == 3 and not leftover


def test_depth_churn_preserves_size():
    variants = expand_variants(["top_down"], ["integral", "tight"])
    res, shapes = run_with_shapes(
        run_depth_churn,
        tiny_spec("depth-churn", variants, sizes=[50], base_trees=2))
    assert len(res) == 4
    for r in res:
        assert r.op == "churn" and r.rep == 1 and r.ops == 50
        assert r.avg_depth > 0.0
    assert len(shapes) == 4
    for shape in shapes.values():
        assert len(keys_of(shape)) == 50


# --- over-time experiments -------------------------------------------------

def test_violations_over_time_samples():
    variants = expand_variants(["top_down"], ["overtight"])
    spec = tiny_spec("violations", variants, sizes=[64], base_trees=1,
                     op_pairs=10, sample_interval=4)
    res = run_violations_over_time(spec)
    assert [r.op_index for r in res] == [4, 8, 10]
    assert all(r.ops == 10 and r.op == "pair" for r in res)
    assert all(r.violation_count >= 0 for r in res)
    counts = [r.rotation_count for r in res]
    assert counts == sorted(counts)        # cumulative


def test_rotations_skips_violation_scan():
    variants = expand_variants(["top_down"], ["classic"])
    spec = tiny_spec("rotations", variants, sizes=[64], base_trees=1,
                     op_pairs=12, sample_interval=5)
    res = run_rotations(spec)
    assert [r.op_index for r in res] == [5, 10, 12]
    assert all(r.violation_count == -1 for r in res)
    weights = [r.rotated_weight_total for r in res]
    assert weights == sorted(weights)


def test_over_time_determinism():
    variants = expand_variants(["top_down"], ["tight"])
    mk = lambda: tiny_spec("violations", variants, sizes=[48], base_trees=2,
                           op_pairs=20, sample_interval=7)
    r1, s1 = run_with_shapes(run_violations_over_time, mk())
    r2, s2 = run_with_shapes(run_violations_over_time, mk())
    assert s1 == s2 and len(s1) == 2
    assert [(r.op_index, r.rotation_count, r.violation_count)
            for r in r1] == \
           [(r.op_index, r.rotation_count, r.violation_count)
            for r in r2]


# --- replay ----------------------------------------------------------------

SEQ_TEXT = """\
# short mixed burst
i 5
i 3

i 9
d 3
i 7
"""


def test_op_sequence_parse_round_trip():
    ops = parse_ops(SEQ_TEXT)
    assert ops == [("i", 5), ("i", 3), ("i", 9), ("d", 3), ("i", 7)]


def test_op_sequence_parse_errors():
    with pytest.raises(ValueError, match="line 1: expected"):
        parse_ops("insert 5\n")
    with pytest.raises(ValueError, match="line 1: expected"):
        parse_ops("i\n")
    with pytest.raises(ValueError, match=r"line 4: bad key 'q'"):
        parse_ops("# c\n\ni 5\nd q\n")


def test_replay_adds_baseline_and_normalizes():
    ops = [("i", k) for k in range(30)] + [("d", k) for k in range(0, 30, 3)]
    spec = tiny_spec("replay", expand_variants(["top_down"], ["integral"]))
    res, shapes = run_with_shapes(run_replay, spec, ops)
    labels = {(r.variant, r.params) for r in res}
    assert labels == {("bottom_up", "classic"), ("top_down", "integral")}
    for r in res:
        assert r.op == "replay" and r.ops == len(ops)
        assert r.rep == 1  # time_floor_ms=0: one rep
        if (r.variant, r.params) == ("bottom_up", "classic"):
            assert r.normalized_elapsed == 1.0
        else:
            assert r.normalized_elapsed > 0.0
    shapes = list(shapes.values())
    assert keys_of(shapes[0]) == keys_of(shapes[1])


def test_replay_keeps_explicit_baseline():
    spec = tiny_spec("replay", expand_variants(["bottom_up"], ["classic"]))
    res = run_replay(spec, [("i", 1), ("i", 2), ("d", 1)])
    assert len(res) == 1
    assert res[0].normalized_elapsed == 1.0


# --- emission --------------------------------------------------------------

def test_emit_csv_round_trip(tmp_path):
    variants = expand_variants(["bottom_up"], ["integral"])
    res = run_insert_pct(tiny_spec("insert-pct", variants, sizes=[30],
                                   base_trees=1))
    path = tmp_path / "out.csv"
    emit_results(res, "csv", str(path))
    with open(path, newline="", encoding="utf-8") as f:
        back = list(csv.DictReader(f))
    assert len(back) == 1
    row = back[0]
    assert list(row) == CSV_COLUMNS
    assert row["experiment"] == "insert-pct"
    assert row["params"] == "integral"
    assert row["ops"] == "2"
    assert row["violation_count"] == "0"


def test_emit_csv_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit_results([], "csv", str(path))
    assert path.read_text() == ",".join(CSV_COLUMNS) + "\n"


def test_emit_jsonl(tmp_path):
    variants = expand_variants(["redblack"], [])
    res = run_insert_pct(tiny_spec("insert-pct", variants, sizes=[30],
                                   base_trees=1))
    path = tmp_path / "out.jsonl"
    emit_results(res, "jsonl", str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == 1
    obj = json.loads(lines[0])
    assert set(obj) == set(CSV_COLUMNS)
    assert obj["variant"] == "redblack"
    assert obj["violation_count"] == -1


def test_emit_stdout(capsys):
    emit_results([], "csv", None)
    assert capsys.readouterr().out.startswith("experiment,variant,")


def test_emit_rejects_format():
    with pytest.raises(ValueError, match="unknown format"):
        emit_results([], "xml", None)


def test_tree_shape_is_paren_form():
    wbt = BottomUpTree(PARAM_SETS["integral"])
    rb = RedBlackTree()
    for k in (2, 1, 3):
        wbt.insert(k)
        rb.insert(k)
    assert tree_shape(wbt) == "(2 (1 . .) (3 . .))"
    assert tree_shape(rb) == "(2 (1 . .) (3 . .))"


def test_traced_benchmark_references_resolve():
    # The traced benchmark run wraps these names from outside and silently
    # drops the metric of any it cannot find, so a rename must fail here.
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import tracing
    finally:
        sys.path.pop(0)
    refs = [ref for refs in tracing.HARNESS_TARGETS.values() for ref in refs]
    refs.append((bench, "_timed_reps"))
    missing = [(owner, attr) for owner, attr in refs
               if not callable(getattr(owner, attr, None))]
    assert missing == []
    # ... and calls _timed_reps(spec, base_tree, phase) positionally.
    params = inspect.signature(bench._timed_reps).parameters.values()
    assert [(p.name, p.kind) for p in params] == [
        (name, inspect.Parameter.POSITIONAL_OR_KEYWORD)
        for name in ("spec", "base_tree", "phase")]


@pytest.mark.parametrize("vs", expand_variants(
    ["bottom_up", "top_down", "redblack"], list(PARAM_SETS)),
    ids=lambda vs: vs.label)
def test_nan_keys_leave_every_variant_sound(vs):
    # Keys must be totally ordered. NaN is not: the tree stays sound and
    # counts it, but never finds it, and in-order order is undefined.
    nan = float("nan")
    t = vs.make_tree()
    for k in [5, nan, 3, 8, nan, 1, 9, 4, nan, 7, 2, 6] + list(range(10, 60)):
        t.insert(k)
    spec = tiny_spec("insert-pct", [vs], audit=True)
    bench._audit_cell(vs, t, spec, "after NaN inserts")
    assert len(t) == 62
    assert t.search(nan) is None
    assert t.delete(nan) is False
    for k in range(60):
        t.delete(k)
    bench._audit_cell(vs, t, spec, "after deletes")
    assert sum(k != k for k in t.inorder_keys()) == 3
