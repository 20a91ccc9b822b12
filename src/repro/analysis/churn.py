"""The churn workload: incremental program deltas over dynamic topologies.

The maintenance axis opened by :func:`repro.routing.program.apply_delta`:
for every ``(graph family, scheme)`` cell and every seeded churn trace
(:func:`repro.sim.churn.churn_scenarios`), chain deltas through the trace's
snapshots and measure what an update costs against the recompile it
replaces — update latency, dirty-set size, and steps-to-reconvergence of
the incremental distance maintenance.

The sweep keeps the compile-once economy under churn: each cell fetches
the **base** snapshot's compiled program from the shared cache once
(:func:`~repro.analysis.runner.cached_program` semantics), then every
trace step is an :func:`apply_delta` patch of the previous step's program
— many deltas per compile.  Patched programs are stored back through the
same ``.rpg`` artifact path under their *own* snapshot's cache key, so a
later direct compile of any intermediate topology hits the artifact the
delta already produced; the keys never collide with the pre-churn
fingerprint because the graph fingerprint (edges *and* ports) is part of
the key.

With ``verify=True`` (the default) every step also recompiles from
scratch and checks fingerprint equality — the cell doubles as a live
differential harness, and the recompile wall-time is what ``speedup``
is measured against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.graphs.digraph import PortLabeledGraph
from repro.graphs.shortest_paths import distance_matrix
from repro.routing.model import SchemeInapplicableError
from repro.routing.program import (
    DELTA_PATCHED,
    DELTA_RECOMPILED,
    DELTA_UNCHANGED,
    GenericProgram,
    apply_delta,
    compile_scheme_program,
)
from repro.sim.churn import ChurnTrace

__all__ = [
    "ChurnCellResult",
    "ChurnSummary",
    "churn_cell",
    "churn_summary",
    "format_churn",
]


@dataclass(frozen=True)
class ChurnCellResult:
    """Measured outcome of one (scheme, family, trace, step) delta.

    ``delta_seconds`` times :func:`~repro.routing.program.apply_delta`
    end-to-end (diffing, incremental distances, patching — or the fallback
    recompile when that is what the delta decided to do);
    ``recompile_seconds``/``speedup``/``outcome_equal`` are populated only
    when the cell ran with verification, and ``outcome_equal`` compares
    the *fingerprints* — byte-level ``to_bytes`` equality, which
    subsumes array, dtype, and layout equality.

    With a demand matrix attached (``flow=`` on :func:`churn_cell`),
    ``max_congestion`` is the patched program's peak arc load under that
    demand and ``load_delta_fraction`` is how much traffic the patch moved
    — ``sum |L_after - L_before| / sum L_after`` over per-arc loads, so a
    delta that reroutes nothing scores 0.0 even when it rewrote table
    bytes.  ``None`` when the cell ran without flow metrics.
    """

    scheme: str
    family: str
    trace: str
    step: str
    index: int
    n: int
    mode: str
    dirty_entries: int
    dirty_fraction: float
    dirty_destinations: int
    reconverge_rounds: int
    recomputed_columns: int
    delta_seconds: float
    recompile_seconds: Optional[float]
    speedup: Optional[float]
    outcome_equal: Optional[bool]
    max_congestion: Optional[float] = None
    load_delta_fraction: Optional[float] = None


@dataclass(frozen=True)
class ChurnSummary:
    """Aggregate of one (scheme, family, trace) chain of deltas."""

    scheme: str
    family: str
    trace: str
    steps: int
    patched: int
    recompiled: int
    unchanged: int
    mean_dirty_fraction: float
    mean_rounds: float
    mean_delta_seconds: float
    mean_speedup: Optional[float]
    all_equal: Optional[bool]
    mean_load_delta: Optional[float] = None


def churn_cell(
    scheme,
    graph: PortLabeledGraph,
    family: str,
    label: str,
    traces: Sequence[Tuple[str, ChurnTrace]],
    cache,
    verify=True,
    flow=None,
    demand_seed: int = 0,
) -> List[ChurnCellResult]:
    """All churn traces of one (scheme, graph) cell off one cached compile.

    ``graph`` must be each trace's base snapshot (the registry instance the
    trace was generated over); the base program comes from the shared cache
    and every step chains :func:`~repro.routing.program.apply_delta` on the
    previous step's program, threading the maintained distance matrix
    through so a k-step chain pays for one all-pairs computation at most.
    Patched programs are persisted under their snapshot's program key via
    :meth:`~repro.analysis.runner.ExperimentCache.store_program_entry`.

    ``verify`` selects the per-step correctness check: ``True`` recompiles
    from scratch and compares fingerprints (the dynamic differential whose
    recompile wall-time also feeds ``speedup``); ``"static"`` instead asks
    :func:`~repro.routing.program.apply_delta` for its static soundness
    proof (``static_check=True`` — the verifier shows every feasible pair
    delivers at exact distance, no recompile ever built), recording
    ``outcome_equal=True`` on proof success with no timing comparison;
    ``False`` skips checking entirely.

    ``flow`` attaches per-step traffic metrics: a demand model name or
    matrix (resolved once per cell — churn traces flip edges, never nodes,
    so the pair population is fixed) is routed through the base program and
    through every step's patched program, recording the patched program's
    peak arc load and the fraction of traffic the patch moved between arcs.
    Generic programs skip the flow metrics (``None`` fields).
    """
    from repro.analysis.runner import cached_program, scheme_fingerprint

    static_verify = verify == "static"
    rows: List[ChurnCellResult] = []
    scheme_fp = scheme_fingerprint(scheme)
    demand = None
    for trace_label, trace in traces:
        if trace.base != graph:
            raise ValueError(
                f"trace {trace_label!r} was not generated over the cell graph"
            )
        program = cached_program(scheme, graph, cache)
        prev_flow = None
        if flow is not None and not isinstance(program, GenericProgram):
            from repro.analysis.flow import demand_matrix, route_demand

            if demand is None:
                demand = demand_matrix(
                    flow,
                    graph.n,
                    seed=demand_seed,
                    dist=distance_matrix(graph),
                )
            prev_flow = route_demand(program, demand)
        dist = None
        for index, (before, step) in enumerate(trace.transitions()):
            start = time.perf_counter()
            try:
                result = apply_delta(
                    program,
                    before,
                    step.graph,
                    scheme,
                    dist_before=dist,
                    static_check=static_verify,
                )
            except ValueError as exc:
                # A scheme that refuses a mutated snapshot (partial schemes
                # pinned to their family's structure) skips the whole cell.
                # ProgramVerificationError is a ValueError too, but only
                # static_check raises it and a failed proof is a real bug —
                # re-raising it as a skip would mask it, so let it through.
                from repro.routing.verify import ProgramVerificationError

                if isinstance(exc, ProgramVerificationError):
                    raise
                raise SchemeInapplicableError(str(exc)) from exc
            delta_seconds = time.perf_counter() - start
            recompile_seconds = None
            speedup = None
            outcome_equal = None
            if static_verify:
                # apply_delta would have raised on an unsound patch; a
                # surviving patched program is proven, not byte-compared.
                # Recompiled/unchanged steps carry no claim (None), since
                # the proof only covers the incremental path.
                outcome_equal = True if result.mode == DELTA_PATCHED else None
            elif verify:
                start = time.perf_counter()
                fresh = compile_scheme_program(scheme, step.graph)
                recompile_seconds = time.perf_counter() - start
                speedup = recompile_seconds / delta_seconds if delta_seconds else None
                outcome_equal = result.program.fingerprint() == fresh.fingerprint()
            max_congestion = None
            load_delta_fraction = None
            if prev_flow is not None and demand is not None:
                from repro.analysis.flow import route_demand

                step_flow = route_demand(result.program, demand)
                max_congestion = step_flow.max_congestion
                moved = float(np.abs(step_flow.edge_load - prev_flow.edge_load).sum())
                carried = float(step_flow.edge_load.sum())
                load_delta_fraction = moved / carried if carried else 0.0
                prev_flow = step_flow
            step_graph_fp = step.graph.fingerprint()
            cache.store_program_entry(
                cache.program_key(step_graph_fp, scheme_fp),
                result.program,
                graph=step_graph_fp,
                scheme=scheme_fp,
            )
            rows.append(
                ChurnCellResult(
                    scheme=label,
                    family=family,
                    trace=trace_label,
                    step=step.label,
                    index=index,
                    n=step.graph.n,
                    mode=result.mode,
                    dirty_entries=result.dirty_entries,
                    dirty_fraction=result.dirty_fraction,
                    dirty_destinations=result.dirty_destinations,
                    reconverge_rounds=result.reconverge_rounds,
                    recomputed_columns=result.recomputed_columns,
                    delta_seconds=delta_seconds,
                    recompile_seconds=recompile_seconds,
                    speedup=speedup,
                    outcome_equal=outcome_equal,
                    max_congestion=max_congestion,
                    load_delta_fraction=load_delta_fraction,
                )
            )
            program = result.program
            dist = result.dist_after
    return rows


def churn_summary(cells: Sequence[ChurnCellResult]) -> List[ChurnSummary]:
    """Aggregate step rows into per-(scheme, family, trace) chain summaries."""
    grouped: Dict[Tuple[str, str, str], List[ChurnCellResult]] = {}
    for cell in cells:
        grouped.setdefault((cell.scheme, cell.family, cell.trace), []).append(cell)
    summaries: List[ChurnSummary] = []
    for (scheme, family, trace), rows in sorted(grouped.items()):
        patched = [r for r in rows if r.mode == DELTA_PATCHED]
        speedups = [r.speedup for r in rows if r.speedup is not None]
        equals = [r.outcome_equal for r in rows if r.outcome_equal is not None]
        load_deltas = [
            r.load_delta_fraction for r in rows if r.load_delta_fraction is not None
        ]
        summaries.append(
            ChurnSummary(
                scheme=scheme,
                family=family,
                trace=trace,
                steps=len(rows),
                patched=len(patched),
                recompiled=sum(1 for r in rows if r.mode == DELTA_RECOMPILED),
                unchanged=sum(1 for r in rows if r.mode == DELTA_UNCHANGED),
                mean_dirty_fraction=(
                    sum(r.dirty_fraction for r in patched) / len(patched)
                    if patched
                    else 0.0
                ),
                mean_rounds=(
                    sum(r.reconverge_rounds for r in patched) / len(patched)
                    if patched
                    else 0.0
                ),
                mean_delta_seconds=sum(r.delta_seconds for r in rows) / len(rows),
                mean_speedup=sum(speedups) / len(speedups) if speedups else None,
                all_equal=all(equals) if equals else None,
                mean_load_delta=(
                    sum(load_deltas) / len(load_deltas) if load_deltas else None
                ),
            )
        )
    return summaries


def format_churn(summaries: Sequence[ChurnSummary]) -> str:
    """Fixed-width text table of the delta chains (benchmark output).

    A ``moved`` column (mean moved-traffic fraction per patch) appears when
    any chain carries flow measurements; chains without one print ``-``.
    """
    with_flow = any(s.mean_load_delta is not None for s in summaries)
    header = (
        f"{'scheme':<22} {'family':<14} {'trace':<16} {'steps':>5} "
        f"{'patch':>5} {'dirty':>6} {'rounds':>6} {'speedup':>8} {'equal':>5}"
    )
    if with_flow:
        header += f" {'moved':>6}"
    lines = [header]
    for s in summaries:
        speedup = f"{s.mean_speedup:>8.1f}" if s.mean_speedup is not None else f"{'-':>8}"
        equal = {True: "yes", False: "NO", None: "-"}[s.all_equal]
        line = (
            f"{s.scheme:<22} {s.family:<14} {s.trace:<16} {s.steps:>5} "
            f"{s.patched:>5} {s.mean_dirty_fraction:>6.3f} {s.mean_rounds:>6.1f} "
            f"{speedup} {equal:>5}"
        )
        if with_flow:
            line += (
                f" {s.mean_load_delta:>6.3f}"
                if s.mean_load_delta is not None
                else f" {'-':>6}"
            )
        lines.append(line)
    return "\n".join(lines)
