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
import inspect
import os
import sys
from functools import partial
from pathlib import Path
from typing import Optional, Sequence

from repro.analysis.flow import DEFAULT_TOTAL, DEMAND_MODELS
from repro.cli._output import emit, emit_error
from repro.sim.churn import churn_scenarios
from repro.sim.registry import fault_scenarios
from repro.store import ProgramStore, default_store_root

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def _default(owner, name: str) -> str:
    """``owner``'s default for parameter ``name``, rendered for help text."""
    value = inspect.signature(owner).parameters[name].default
    return " ".join(map(str, value)) if isinstance(value, tuple) else str(value)


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
        help=f"edge-failure count (repeatable; default: {_default(fault_scenarios, 'edge_ks')})",
    )
    p.add_argument(
        "--node-k", type=int, action="append", default=None, metavar="K",
        help=f"node-failure count (repeatable; default: {_default(fault_scenarios, 'node_ks')})",
    )
    p.add_argument(
        "--per-k", type=int, default=None, metavar="N",
        help=f"independent seeded draws per k (default: {_default(fault_scenarios, 'per_k')})",
    )
    p.add_argument(
        "--flow", choices=DEMAND_MODELS, default=None,
        help="add demand-weighted traffic metrics under this model",
    )
    p.add_argument("--demand-seed", type=int, default=None, help="demand-draw seed")

    p = sub.add_parser("churn", help="incremental-delta sweep over churn traces")
    _add_sweep_flags(p)
    p.add_argument(
        "--steps", type=int, default=None, metavar="N",
        help=f"random-churn trace length (default: {_default(churn_scenarios, 'steps')})",
    )
    p.add_argument(
        "--flips-per-step", type=int, default=None, metavar="N",
        help="edge flips per random-churn step "
        f"(default: {_default(churn_scenarios, 'flips_per_step')})",
    )
    p.add_argument(
        "--no-verify", action="store_true",
        help="skip the per-step recompile and fingerprint comparison "
        "(recompile_seconds, speedup and outcome_equal become null)",
    )
    p.add_argument(
        "--flow", choices=DEMAND_MODELS, default=None,
        help="add load-movement metrics under this demand model",
    )
    p.add_argument("--demand-seed", type=int, default=None, help="demand-draw seed")

    p = sub.add_parser("flow", help="traffic/flow sweep over demand models")
    _add_sweep_flags(p)
    p.add_argument(
        "--model", choices=DEMAND_MODELS, action="append", default=None,
        help=f"demand model (repeatable; default: {' '.join(DEMAND_MODELS)})",
    )
    p.add_argument("--demand-seed", type=int, default=None, help="demand-draw seed")
    p.add_argument(
        "--total", type=float, default=None,
        help=f"total offered traffic per demand matrix (default: {DEFAULT_TOTAL:g})",
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


#: Per-subcommand flag -> spec-builder argument.  A flag reaches the
#: builder only when the user set it, so every default is the builder's.
_SPEC_FLAGS = {
    "resilience": {
        "edge_k": "edge_ks", "node_k": "node_ks", "per_k": "per_k",
        "flow": "flow", "demand_seed": "demand_seed",
    },
    "churn": {
        "steps": "steps", "flips_per_step": "flips_per_step",
        "flow": "flow", "demand_seed": "demand_seed",
    },
    "flow": {"model": "models", "demand_seed": "demand_seed", "total": "total"},
}


def _spec(args: argparse.Namespace):
    """The :class:`~repro.analysis.runner.SweepSpec` a sweep subcommand runs.

    Unset flags fall through to the spec builders' defaults (whole
    registry, fault scenarios, churn traces, demand models, the
    ``tables-*`` churn subset), which are also the Python API's.
    """
    from repro.analysis import runner
    from repro.sim.registry import resolve_families, resolve_schemes

    grid = dict(
        schemes=resolve_schemes(args.scheme, seed=args.seed) if args.scheme else None,
        families=resolve_families(args.family, size=args.registry, seed=args.seed),
        seed=args.seed,
    )
    for flag, name in _SPEC_FLAGS.get(args.command, {}).items():
        if getattr(args, flag) is not None:
            grid[name] = getattr(args, flag)
    if getattr(args, "no_verify", False):
        grid["verify"] = False
    builder = {
        "compile": partial(runner.cell_spec, runner._compile_cell),
        "sweep": partial(runner.cell_spec, runner._program_cell),
        "simulate": partial(runner.cell_spec, runner._conformance_cell),
        "verify": partial(runner.cell_spec, runner._verify_cell),
        "resilience": runner.resilience_spec,
        "churn": runner.churn_spec,
        "flow": runner.flow_spec,
    }[args.command]
    return builder(**grid)


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
