"""Command-line behaviour: argument handling, seeds, exit codes, output
targets. Everything drives main() in-process with tiny workloads."""

import gc
import json
import os
import subprocess
import sys
import time

import pytest

from wbtree import bench
from wbtree.bench import AuditFailure
from wbtree.cli import main

from test_top_down import Fuse

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")
TINY = ["--sizes", "24", "--base-trees", "1", "--time-floor-ms", "0",
        "--variants", "bottom_up", "--params", "integral"]


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_tiny_run_succeeds(capsys):
    code, out, err = run(["insert-pct"] + TINY, capsys)
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[0].startswith("experiment,variant,")
    assert len(lines) == 2
    assert lines[1].startswith("insert-pct,bottom_up,integral,")


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "wbtree-bench" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    [],                                      # experiment is required
    ["frobnicate"],                          # unknown experiment
    ["insert-pct", "--dist", "gaussian"],    # bad choice
    ["insert-pct", "--serial"],              # removed option
])
def test_usage_errors_exit_one(argv, capsys):
    code, _, _ = run(argv, capsys)
    assert code == 1


@pytest.mark.parametrize("params", [
    "custom:0/1:1/1",      # delta below one
    "custom:junk",
    "fibonacci",
])
def test_bad_params_exit_one(params, capsys):
    code, _, err = run(
        ["insert-pct"] + TINY[:-1] + [params], capsys)
    assert code == 1
    assert "wbtree-bench: error:" in err


def test_empty_params_for_wbt_exit_one(capsys):
    code, _, err = run(
        ["insert-pct", "--variants", "top_down", "--params", ""], capsys)
    assert code == 1
    assert "at least one parameter set" in err


def test_bad_spec_value_exit_one(capsys):
    code, _, err = run(["insert-pct"] + TINY + ["--base-trees", "0"], capsys)
    assert code == 1
    assert "base-trees" in err


@pytest.mark.parametrize("argv", [
    ["insert-pct", "--universe", "0"],
    ["insert-pct", "--dist", "zipf", "--zipf-s", "0"],
    ["insert-pct", "--dist", "zipf", "--zipf-s", "nan"],
    ["insert-pct", "--dist", "skewed", "--universe", "5"],
    ["violations", "--op-pairs", "-3"],
    ["insert-pct", "--universe", str(2 ** 64 + 1)],
])
def test_out_of_range_values_exit_one(argv, capsys):
    code, _, err = run(argv + TINY, capsys)
    assert code == 1
    assert "Traceback" not in err
    assert err.startswith("wbtree-bench: error:")


def test_universe_of_two_to_the_64_is_accepted(capsys):
    code, out, _ = run(["insert-pct", "--universe", str(2 ** 64)] + TINY,
                       capsys)
    assert code == 0
    assert f",{2 ** 64}," in out


def test_custom_params_accepted(capsys):
    code, out, _ = run(
        ["insert-pct"] + TINY[:-1] + ["custom:5/2:7/5"], capsys)
    assert code == 0
    assert ",custom:5/2:7/5," in out


def test_seed_env_honored(capsys, monkeypatch):
    monkeypatch.setenv("WBTREE_SEED", "5")
    _, via_env, _ = run(["depth-churn"] + TINY, capsys)
    monkeypatch.delenv("WBTREE_SEED")
    _, via_flag, _ = run(["depth-churn"] + TINY + ["--seed", "5"], capsys)
    _, default, _ = run(["depth-churn"] + TINY, capsys)
    assert strip_timings(via_env) == strip_timings(via_flag)
    assert strip_timings(via_env) != strip_timings(default)  # default seed 1


def test_seed_flag_beats_env(capsys, monkeypatch):
    monkeypatch.setenv("WBTREE_SEED", "7")
    _, out, _ = run(["depth-churn"] + TINY + ["--seed", "5"], capsys)
    monkeypatch.delenv("WBTREE_SEED")
    _, want, _ = run(["depth-churn"] + TINY + ["--seed", "5"], capsys)
    assert strip_timings(out) == strip_timings(want)


def test_bad_seed_env_exit_one(capsys, monkeypatch):
    monkeypatch.setenv("WBTREE_SEED", "three")
    code, _, err = run(["insert-pct"] + TINY, capsys)
    assert code == 1
    assert err == ("wbtree-bench: error: WBTREE_SEED is not an integer: "
                   "'three'\n")


def test_bad_seed_env_exits_one_without_traceback_from_a_shell():
    # The same contract as seen from outside the process: exit status 1,
    # the one error line on stderr and no traceback.
    env = {**os.environ, "WBTREE_SEED": "1.5", "PYTHONPATH": SRC}
    done = subprocess.run(
        [sys.executable, "-m", "wbtree.cli", "insert-pct"] + TINY,
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 1
    assert "WBTREE_SEED is not an integer: '1.5'" in done.stderr
    assert "Traceback" not in done.stderr
    assert done.stdout == ""


def strip_timings(csv_text):
    rows = []
    for line in csv_text.splitlines()[1:]:
        cells = line.split(",")
        del cells[12:14]                    # elapsed columns vary run to run
        rows.append(cells)
    return rows


def test_audit_failure_exit_two(capsys, monkeypatch):
    def boom(spec):
        raise AuditFailure("bottom_up/integral insert-pct n=24 tree=0: bad")
    monkeypatch.setitem(bench.RUNNERS, "insert-pct", boom)
    code, _, err = run(["insert-pct"] + TINY + ["--audit"], capsys)
    assert code == 2
    assert "audit failure" in err


def test_internal_error_exit_four(capsys, monkeypatch):
    def boom(spec):
        raise RuntimeError("lost a node")
    monkeypatch.setitem(bench.RUNNERS, "insert-pct", boom)
    code, _, err = run(["insert-pct"] + TINY, capsys)
    assert code == 4
    assert err == "wbtree-bench: internal error: RuntimeError: lost a node\n"
    assert "Traceback" not in err


def _raising_phase(capsys, monkeypatch):
    spec = bench.ExperimentSpec(
        experiment="replay", variants=bench.expand_variants(["top_down"],
                                                            ["integral"]),
        time_floor_ms=0)
    with pytest.raises(RuntimeError, match="comparison failed"):
        bench.run_replay(spec, [("i", 1), ("i", Fuse(2, 0))])


def _audit_failure(capsys, monkeypatch):
    # TINY's variant is balance-guaranteed, so its cells call audit_balance.
    for name in ("audit_structure", "audit_balance"):
        monkeypatch.setattr(bench, name, lambda tree: ["bad"])
    code, _, err = run(["insert-pct"] + TINY + ["--audit"], capsys)
    assert code == 2
    assert "audit failure" in err


def _clean_run(capsys, monkeypatch):
    code, _, _ = run(["depth-churn"] + TINY, capsys)
    assert code == 0


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("body", [_raising_phase, _audit_failure, _clean_run])
def test_collector_state_is_restored(body, enabled, capsys, monkeypatch):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        body(capsys, monkeypatch)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_near_empty_phases_stop_at_the_rep_cap(tmp_path, capsys):
    # At the default 1000 ms floor a phase of a few ops would run for
    # millions of reps; the cap bounds the cell instead.
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    for argv in (["replay", str(empty)],
                 ["insert-pct", "--sizes", "1", "--base-trees", "1",
                  "--variants", "top_down", "--params", "topdown"]):
        t0 = time.perf_counter()
        code, out, err = run(argv + ["--format", "jsonl"], capsys)
        assert time.perf_counter() - t0 < 2.0, argv
        assert code == 0, err
        for line in out.splitlines():
            assert 1 <= json.loads(line)["rep"] <= bench.MAX_REPS


def test_audit_flag_clean_run(capsys):
    code, _, err = run(["erase-pct"] + TINY + ["--audit"], capsys)
    assert code == 0
    assert err == ""


def test_replay_round_trip(tmp_path, capsys):
    seq = tmp_path / "ops.txt"
    seq.write_text("i 4\ni 2\ni 6\nd 2\n")
    code, out, _ = run(
        ["replay", str(seq), "--variants", "bottom_up",
         "--params", "classic", "--time-floor-ms", "0"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert ",replay," in lines[1]


def test_replay_missing_file_exit_three(tmp_path, capsys):
    code, _, err = run(["replay", str(tmp_path / "nope.txt")], capsys)
    assert code == 3
    assert "cannot read" in err


def test_replay_undecodable_file_exit_three(tmp_path, capsys):
    seq = tmp_path / "latin1.txt"
    seq.write_bytes(b"i 1\ni \xff\n")
    code, out, err = run(["replay", str(seq)], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith(f"wbtree-bench: cannot read {seq}:")
    assert err.count("\n") == 1


def test_replay_parse_error_exit_three(tmp_path, capsys):
    seq = tmp_path / "bad.txt"
    seq.write_text("i 4\npop 9\n")
    code, _, err = run(["replay", str(seq)], capsys)
    assert code == 3
    assert "line 2" in err


def test_replay_of_a_deep_chain_succeeds(tmp_path, capsys):
    # delta = 100000 never rotates, so sorted keys build a 3000-deep chain;
    # rendering its shape must not hit the interpreter's recursion limit.
    seq = tmp_path / "sorted.txt"
    seq.write_text("".join(f"i {k}\n" for k in range(3000)))
    code, out, err = run(
        ["replay", str(seq), "--variants", "top_down",
         "--params", "custom:100000/1:2/1"], capsys)
    assert code == 0, err
    assert ",custom:100000/1:2/1," in out


def test_unwritable_out_exit_three(tmp_path, capsys):
    target = tmp_path / "missing" / "deep" / "out.csv"
    code, _, err = run(["insert-pct"] + TINY + ["--out", str(target)],
                       capsys)
    assert code == 3
    assert "cannot write" in err


def test_out_file_matches_stdout(tmp_path, capsys):
    _, direct, _ = run(["depth-churn"] + TINY, capsys)
    target = tmp_path / "rows.csv"
    code, piped, _ = run(["depth-churn"] + TINY + ["--out", str(target)],
                         capsys)
    assert code == 0
    assert piped == ""
    assert strip_timings(target.read_text()) == strip_timings(direct)


def test_jsonl_format(capsys):
    code, out, _ = run(["insert-pct"] + TINY + ["--format", "jsonl"],
                       capsys)
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 1
    assert rows[0]["experiment"] == "insert-pct"
    assert rows[0]["rotation_count"] >= 0
