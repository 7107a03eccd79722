"""wbtree-bench: command-line front end for the experiment harness.

Exit codes: 0 success, 1 usage error, 2 audit failure, 3 I/O or replay
parse error, 4 internal error.
"""

from __future__ import annotations

import argparse
import os
import sys

from .bench import (
    DISTS,
    EXPERIMENTS,
    AuditFailure,
    ExperimentSpec,
    RUNNERS,
    emit_results,
    expand_variants,
    parse_ops,
    run_replay,
)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage problems; the contract here says 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _str_list(text: str) -> list[str]:
    return [tok.strip() for tok in text.split(",") if tok.strip()]


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--variants", type=_str_list,
                   default=["bottom_up", "top_down", "redblack"],
                   help="comma list of bottom_up, top_down, redblack")
    p.add_argument("--params", type=_str_list,
                   default=["classic", "integral", "topdown"],
                   help="comma list of parameter-set names "
                        "(classic, integral, topdown, tight, overtight, "
                        "or custom:<dn>/<dd>:<gn>/<gd>)")
    p.add_argument("--dist", choices=DISTS, default="uniform")
    p.add_argument("--sizes", type=_int_list, default=[1000],
                   help="comma list of base tree sizes")
    p.add_argument("--seed", type=int, default=None,
                   help="master seed (default: WBTREE_SEED env var, else 1)")
    p.add_argument("--base-trees", type=int, default=10)
    p.add_argument("--time-floor-ms", type=int, default=1000)
    p.add_argument("--sample-interval", type=int, default=10000)
    p.add_argument("--zipf-s", type=float, default=1.0)
    p.add_argument("--universe", type=int, default=None,
                   help="key universe override (default depends on --dist)")
    p.add_argument("--op-pairs", type=int, default=None,
                   help="op pairs for violations/rotations (default 2*size)")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=["csv", "jsonl"], default="csv")
    p.add_argument("--audit", action="store_true",
                   help="verify structure (and balance where guaranteed) "
                        "after each phase; exit 2 on any defect")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="wbtree-bench",
                description="Weight-balanced tree benchmark harness")
    sub = p.add_subparsers(dest="experiment", required=True)
    # add_parser reuses the parent's class, so subcommands also exit 1 on
    # usage problems.
    for name in EXPERIMENTS:
        sp = sub.add_parser(name, help=f"run the {name} experiment")
        if name == "replay":
            sp.add_argument("sequence", help="op-sequence file (i/d <key>)")
        _add_common(sp)
    return p


def _resolve_seed(arg_seed) -> int:
    if arg_seed is not None:
        return arg_seed
    env = os.environ.get("WBTREE_SEED")
    if env is None:
        return 1
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"WBTREE_SEED is not an integer: {env!r}") from None


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else int(e.code)
    try:
        return _run(args)
    except Exception as e:
        # A defect, not an input problem: one line and its own exit code.
        print(f"wbtree-bench: internal error: {type(e).__name__}: {e}",
              file=sys.stderr)
        return 4


def _run(args) -> int:
    """Build the spec, run the experiment and emit its rows; returns the
    exit code."""
    try:
        seed = _resolve_seed(args.seed)
        variants = expand_variants(args.variants, args.params)
        spec = ExperimentSpec(
            experiment=args.experiment,
            variants=variants,
            dist=args.dist,
            sizes=args.sizes,
            base_trees=args.base_trees,
            seed=seed,
            time_floor_ms=args.time_floor_ms,
            sample_interval=args.sample_interval,
            zipf_s=args.zipf_s,
            universe=args.universe,
            op_pairs=args.op_pairs,
            audit=args.audit,
        )
        spec.check()
    except ValueError as e:
        print(f"wbtree-bench: error: {e}", file=sys.stderr)
        return 1

    try:
        if args.experiment == "replay":
            try:
                with open(args.sequence, encoding="utf-8") as f:
                    text = f.read()
            except (OSError, UnicodeDecodeError) as e:
                print(f"wbtree-bench: cannot read {args.sequence}: {e}",
                      file=sys.stderr)
                return 3
            try:
                ops = parse_ops(text)
            except ValueError as e:
                print(f"wbtree-bench: {args.sequence}: {e}", file=sys.stderr)
                return 3
            result = run_replay(spec, ops)
        else:
            result = RUNNERS[args.experiment](spec)
    except AuditFailure as e:
        print(f"wbtree-bench: audit failure: {e}", file=sys.stderr)
        return 2

    try:
        emit_results(result.rows, args.format, args.out)
    except OSError as e:
        print(f"wbtree-bench: cannot write {args.out}: {e}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
