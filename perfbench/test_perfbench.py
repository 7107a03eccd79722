"""The benchmark's own checks, at a small size:

    python3 -m pytest perfbench -q
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402  (puts ./src on the path)
import timed  # noqa: E402
import tracing  # noqa: E402
from reference import Reference  # noqa: E402
from workloads import WORKLOADS, base_keys, round_trip, streams_for  # noqa: E402

SMALL = 2_000


def _counts(workload, seed):
    keys = base_keys(workload, seed, SMALL)
    bases = {}
    for v, make in run.VARIANTS.items():
        bases[v] = t = make()
        for k in keys:
            t.insert(k)
    phases = [round_trip(name, keys, kinds, ks) for name, kinds, ks
              in streams_for(workload, keys, seed, scale=50)]
    return tracing.counting_pass(bases, phases), bases, phases


def test_counts_repeat_for_a_seed_and_move_with_it():
    for workload in WORKLOADS:
        first, _, _ = _counts(workload, 1)
        again, _, _ = _counts(workload, 1)
        other, _, _ = _counts(workload, 2)
        assert first == again, workload
        assert first != other, workload
        for v, row in first.items():
            assert row["compares_per_op"] > 0, (workload, v)
            assert row["max_depth"] >= row["avg_depth"] > 0, (workload, v)


def test_every_op_matches_the_oracle():
    for workload in WORKLOADS:
        _, bases, phases = _counts(workload, 3)
        tally = timed.Tally()
        ep = timed.Epochs(bases, phases, timed.GcClock(), tally)
        ep.run()
        assert tally.failed == 0 and tally.attempted > 0, workload
        run.final_checks(ep)
        assert tally.failed == 0, workload


def test_wrong_contents_are_counted():
    _, bases, phases = _counts("churn-uniform", 5)
    tally = timed.Tally()
    ep = timed.Epochs(bases, phases, timed.GcClock(), tally)
    ep.run()
    bases["redblack"].insert(-1)
    run.final_checks(ep)
    assert tally.failed == 1


def test_a_wrong_result_is_counted():
    _, bases, phases = _counts("zipf-read", 4)
    phase = phases[0]
    phase.expected[0] = not phase.expected[0]
    tally = timed.Tally()
    timed.Epochs(bases, phases, timed.GcClock(), tally).run()
    assert tally.failed == 3    # one per variant


def test_harness_wrappers_are_removed_and_missing_ones_dropped():
    spans = tracing.Spans()
    before = {(id(o), a): getattr(o, a)
              for refs in tracing.HARNESS_TARGETS.values() for o, a in refs}
    targets = dict(tracing.HARNESS_TARGETS)
    tracing.HARNESS_TARGETS["bench.gone"] = [(run.cli, "no_such_function")]
    try:
        with tracing.harness_traced(spans) as installed:
            assert "bench.gone" not in installed
            assert "bench.clone" in installed
            rc = run.cli.main(["insert-pct", "--sizes", "200",
                               "--base-trees", "1", "--time-floor-ms", "0",
                               "--out", os.devnull])
        assert rc == 0
    finally:
        tracing.HARNESS_TARGETS.clear()
        tracing.HARNESS_TARGETS.update(targets)
    after = {(id(o), a): getattr(o, a)
             for refs in tracing.HARNESS_TARGETS.values() for o, a in refs}
    assert after == before
    names = spans.durations_by_name()
    assert names["bench.clone"] and names["bench.timed"]


def test_timings_are_kept_in_reference_units():
    _, bases, phases = _counts("churn-uniform", 6)
    ep = timed.Epochs(bases, phases, timed.GcClock(), timed.Tally(),
                      Reference(n=2_000, searches=200))
    ep.run()
    ep.run()
    blocks = sum(-(-len(p.keys) // timed.BLOCK) for p in phases)
    assert len(ep.refs) == 2 * blocks and min(ep.refs) > 0
    for v, (busy, p50, p99) in ep.in_ref_units().items():
        assert busy > 0 and 0 < p50 <= p99, v
