"""Argument wiring for the ``repro`` console entry point.

Each sweep subcommand builds the same :class:`~repro.analysis.runner.\
SweepSpec` as its :class:`~repro.analysis.runner.ShardedRunner` method and
emits that runner's :meth:`~repro.analysis.runner.ShardedRunner.stream` of
typed cell outcomes row by row — serially in-process for ``--jobs 1``,
through the runner's process pool otherwise — so CLI rows are
field-for-field the Python API's results, just streamed as cells finish
instead of returned at the end.  Every invocation builds its own
``ShardedRunner(store, processes=--jobs)``, whose cache is rooted at the
resolved store directory: invocations share the content-addressed program
store on disk, never a cache in memory.

Exit codes: ``0`` success, ``1`` a ``--check`` found failing cells,
``2`` invalid usage (unknown scheme/family/flag).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.cli._output import emit, emit_error
from repro.store import ProgramStore, default_store_root

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

#: Demand models flow/resilience accept (see repro.analysis.flow.demand_matrix).
DEMAND_MODELS = ("uniform", "zipf", "gravity")


def _add_store_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="artifact store root (default: $REPRO_STORE or ~/.cache/repro)",
    )


def _add_sweep_flags(parser: argparse.ArgumentParser) -> None:
    _add_store_flag(parser)
    parser.add_argument(
        "--registry",
        choices=("small", "medium"),
        default="small",
        help="graph-family size class (default: small)",
    )
    parser.add_argument(
        "--scheme",
        action="append",
        default=None,
        metavar="NAME",
        help="restrict to this scheme (repeatable; default: whole registry)",
    )
    parser.add_argument(
        "--family",
        action="append",
        default=None,
        metavar="NAME",
        help="restrict to this graph family (repeatable; default: all)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N", help="worker processes (default: 1)"
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="registry instance seed (default: 0)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Compact-routing experiment driver: every subcommand streams one "
            "JSON object per cell to stdout (JSONL). See docs/cli.md."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile registry cells into the store")
    _add_sweep_flags(p)

    p = sub.add_parser("sweep", help="compile and execute every registry cell")
    _add_sweep_flags(p)

    p = sub.add_parser("simulate", help="full conformance suite (engine-executed)")
    _add_sweep_flags(p)

    p = sub.add_parser("verify", help="statically verify every registry cell")
    _add_sweep_flags(p)
    p.add_argument(
        "--check",
        action="store_true",
        help="exit 1 if any verified cell fails to deliver everywhere",
    )

    p = sub.add_parser("resilience", help="fault-injection sweep (masked programs)")
    _add_sweep_flags(p)
    p.add_argument(
        "--edge-k", type=int, action="append", default=None, metavar="K",
        help="edge-failure count (repeatable; default: 1 2 4)",
    )
    p.add_argument(
        "--node-k", type=int, action="append", default=None, metavar="K",
        help="node-failure count (repeatable; default: 1 2)",
    )
    p.add_argument(
        "--per-k", type=int, default=2, metavar="N",
        help="independent seeded draws per k (default: 2)",
    )
    p.add_argument(
        "--flow", choices=DEMAND_MODELS, default=None,
        help="add demand-weighted traffic metrics under this model",
    )
    p.add_argument("--demand-seed", type=int, default=0, help="demand-draw seed")

    p = sub.add_parser("churn", help="incremental-delta sweep over churn traces")
    _add_sweep_flags(p)
    p.add_argument(
        "--steps", type=int, default=4, metavar="N",
        help="random-churn trace length (default: 4)",
    )
    p.add_argument(
        "--flips-per-step", type=int, default=1, metavar="N",
        help="edge flips per random-churn step (default: 1)",
    )
    p.add_argument(
        "--no-verify", action="store_true",
        help="skip static verification of each patched program",
    )
    p.add_argument(
        "--flow", choices=DEMAND_MODELS, default=None,
        help="add load-movement metrics under this demand model",
    )
    p.add_argument("--demand-seed", type=int, default=0, help="demand-draw seed")

    p = sub.add_parser("flow", help="traffic/flow sweep over demand models")
    _add_sweep_flags(p)
    p.add_argument(
        "--model", choices=DEMAND_MODELS, action="append", default=None,
        help="demand model (repeatable; default: all three)",
    )
    p.add_argument("--demand-seed", type=int, default=0, help="demand-draw seed")
    p.add_argument(
        "--total", type=float, default=1_000_000.0,
        help="total offered traffic per demand matrix (default: 1e6)",
    )

    p = sub.add_parser("store", help="inspect or garbage-collect the artifact store")
    store_sub = p.add_subparsers(dest="store_command", required=True)
    p = store_sub.add_parser("ls", help="one JSONL row per live manifest record")
    _add_store_flag(p)
    p = store_sub.add_parser("info", help="one JSONL row of store totals")
    _add_store_flag(p)
    p = store_sub.add_parser("gc", help="evict orphans, then LRU down to --max-bytes")
    _add_store_flag(p)
    p.add_argument(
        "--max-bytes", type=int, default=None, metavar="N",
        help="object-byte budget to evict down to (default: orphans only)",
    )
    return parser


# ---------------------------------------------------------------------------
def _store_root(args: argparse.Namespace) -> Path:
    """``--store`` > ``$REPRO_STORE`` > ``~/.cache/repro``."""
    if args.store is not None:
        return Path(args.store)
    return default_store_root()


def _spec(args: argparse.Namespace):
    """The :class:`~repro.analysis.runner.SweepSpec` a sweep subcommand runs.

    Unset flags fall through to the spec builders' defaults (whole
    registry, fault scenarios, churn traces, the ``tables-*`` churn
    subset), which are also the Python API's.
    """
    from repro.analysis import runner
    from repro.sim.registry import resolve_families, resolve_schemes

    grid = dict(
        schemes=resolve_schemes(args.scheme, seed=args.seed) if args.scheme else None,
        families=resolve_families(args.family, size=args.registry, seed=args.seed),
        seed=args.seed,
    )
    if args.command == "resilience":
        ks = {"edge_ks": args.edge_k, "node_ks": args.node_k}
        return runner.resilience_spec(
            **grid,
            **{name: value for name, value in ks.items() if value is not None},
            per_k=args.per_k,
            flow=args.flow,
            demand_seed=args.demand_seed,
        )
    if args.command == "churn":
        return runner.churn_spec(
            **grid,
            steps=args.steps,
            flips_per_step=args.flips_per_step,
            verify=not args.no_verify,
            flow=args.flow,
            demand_seed=args.demand_seed,
        )
    if args.command == "flow":
        return runner.flow_spec(
            **grid,
            models=args.model or DEMAND_MODELS,
            demand_seed=args.demand_seed,
            total=args.total,
        )
    body = {
        "compile": runner._compile_cell,
        "sweep": runner._program_cell,
        "simulate": runner._conformance_cell,
        "verify": runner._verify_cell,
    }[args.command]
    return runner.cell_spec(body, **grid)


def _cmd_sweep(args: argparse.Namespace) -> int:
    """Stream one sweep: data and skip rows as cells finish, then the summary.

    No rows are kept; ``verify --check`` folds its failing flag on the way.
    """
    from repro.analysis.runner import ShardedRunner, ShardStats

    store_root = _store_root(args)
    spec = _spec(args)
    check = getattr(args, "check", False)
    stats = ShardStats()
    rows = skipped = 0
    failing = False
    for outcome in ShardedRunner(store_root, processes=args.jobs).stream(spec):
        stats.add(outcome)
        if outcome.status == "skip":
            skipped += 1
            emit(
                {
                    "event": "skip",
                    "scheme": outcome.scheme,
                    "family": outcome.family,
                    "reason": outcome.reason,
                }
            )
            continue
        for result in outcome.rows:
            row = dataclasses.asdict(result)
            rows += 1
            if check and row["verified"] and (not row["all_delivered"] or row["issues"]):
                failing = True
            emit(row)
    emit(
        {
            "event": "summary",
            "command": args.command,
            "store": str(store_root),
            "cells": rows,
            "skipped": skipped,
            "hits": stats.hits,
            "misses": stats.misses,
            "compile_hits": stats.compile_hits,
            "compile_misses": stats.compile_misses,
            "compile_hit_rate": stats.compile_hit_rate,
            "degraded": stats.degraded,
        }
    )
    return EXIT_CHECK_FAILED if failing else EXIT_OK


def _cmd_store(args: argparse.Namespace) -> int:
    store = ProgramStore(_store_root(args))
    if args.store_command == "ls":
        for record in store.records():
            emit(dataclasses.asdict(record))
    elif args.store_command == "info":
        emit(store.info())
    else:
        stats = store.gc(max_bytes=args.max_bytes)
        row = dataclasses.asdict(stats)
        row["store"] = str(store.root)
        emit(row)
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "store":
            return _cmd_store(args)
        return _cmd_sweep(args)
    except KeyError as exc:
        emit_error(str(exc.args[0]) if exc.args else str(exc))
        return EXIT_USAGE
    except BrokenPipeError:
        # Downstream closed the stream early (`repro ... | head`): that is
        # the consumer's prerogative in a JSONL pipeline, not our failure.
        # Detach stdout so interpreter teardown doesn't re-raise on flush.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_OK
