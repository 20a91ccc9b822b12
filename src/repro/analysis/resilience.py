"""The resilience workload: fault-injection sweeps over the scheme registry.

The experiment axis opened by :mod:`repro.sim.faults`: for every
``(graph family, scheme)`` cell and every seeded k-failure scenario
(:func:`repro.sim.registry.fault_scenarios`), classify all feasible pairs
under the masked compiled program and measure how the scheme's delivery and
stretch degrade as the topology loses edges or nodes underneath its fixed
routing data.

The sweep is built for the compile-once economy: cells are fanned out
through :meth:`repro.analysis.runner.ShardedRunner.resilience_sweep`, each
cell fetches its compiled :class:`~repro.routing.program.RoutingProgram`
from the shared cache **once** and applies every fault mask to that one
artifact — a warm sweep re-runs thousands of failure scenarios without
re-building a single scheme (compile hit-rate 1.0, the benchmark pins the
>= 0.95 floor).  Surviving-graph distance matrices are not cached: they
are derived once per ``(graph, fault set)`` and memoised on the graph, so
every scheme of a family shares them.

Outputs are per-scenario :class:`ResilienceCellResult` rows;
:func:`survival_curves` aggregates them into :class:`ResilienceCurve`
survival/stretch trajectories per ``(scheme, fault kind)`` — the
per-scheme degradation curves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.graphs.digraph import PortLabeledGraph
from repro.graphs.shortest_paths import UNREACHABLE, distance_matrix
from repro.routing.program import GenericProgram
from repro.sim.faults import (
    FaultSet,
    simulate_with_faults,
    surviving_distance_matrix,
)

__all__ = [
    "ResilienceCellResult",
    "ResilienceCurve",
    "format_resilience",
    "resilience_cell",
    "survival_curves",
]


@dataclass(frozen=True)
class ResilienceCellResult:
    """Classified outcome of one (scheme, family, fault scenario) cell.

    ``max_stretch`` / ``mean_stretch`` are measured against shortest paths
    recomputed on the surviving graph; ``survival_rate`` is the delivered
    fraction of the *routable* pairs (feasible and still connected), so a
    partitioning fault set does not charge the scheme for physics.

    With a demand matrix attached (``flow=`` on :func:`resilience_cell`),
    ``delivered_traffic`` is the demand-weighted twin of
    ``survival_rate`` — the fraction of the routable pairs' *traffic*
    the masked program still delivers (losing a hub pair costs more than
    losing a leaf pair) — and ``peak_load`` is the masked program's
    maximum arc congestion under that demand.  ``None`` when the cell ran
    without flow metrics (no demand spec, or a generic program).
    """

    scheme: str
    family: str
    scenario: str
    fault_kind: str
    k: int
    n: int
    mode: str
    feasible: int
    routable: int
    delivered: int
    dropped: int
    livelocked: int
    misdelivered: int
    survival_rate: float
    max_stretch: float
    mean_stretch: float
    delivered_traffic: Optional[float] = None
    peak_load: Optional[float] = None


@dataclass(frozen=True)
class ResilienceCurve:
    """Survival/stretch trajectory of one scheme under one fault kind.

    ``points`` is ordered by increasing failure count ``k``; each entry is
    ``(k, mean survival rate, mean stretch, worst stretch, cells)``
    aggregated over every family and scenario draw at that ``k``.
    ``traffic`` carries the demand-weighted companion curve — ``(k, mean
    delivered-traffic fraction)`` over the cells that measured flow —
    and is empty when the sweep ran without a demand matrix.
    """

    scheme: str
    fault_kind: str
    points: Tuple[Tuple[int, float, float, float, int], ...]
    traffic: Tuple[Tuple[int, float], ...] = ()


def resilience_cell(
    scheme,
    graph: PortLabeledGraph,
    family: str,
    label: str,
    scenarios: Sequence[Tuple[str, FaultSet]],
    cache,
    flow=None,
    demand_seed: int = 0,
) -> List[ResilienceCellResult]:
    """All fault scenarios of one (scheme, graph) cell off one cached compile.

    The cell's program comes from the shared
    :class:`~repro.analysis.runner.ExperimentCache`
    (:func:`~repro.analysis.runner.cached_program` semantics — compiled and
    stored as bytes on first encounter, executed from bytes afterwards);
    every scenario then costs one mask + one fate resolution, which the
    flow metrics reuse.
    Surviving-graph distances are derived once per ``(graph, fault set)``
    and memoised on the graph, so every scheme of a family shares them.
    Generic (opt-out) programs run the per-message interpreter under each
    fault scenario, on the live routing function the program cache hands
    back with them.

    ``flow`` attaches traffic metrics: a demand model name or matrix
    (resolved once per cell through
    :func:`repro.analysis.flow.demand_matrix`) is routed through every
    scenario's masked program, recording the demand-weighted
    delivered-traffic fraction of the routable pairs and the masked
    program's peak arc load.  Generic programs skip the flow metrics
    (``None`` fields) since they carry no transition arrays to mask.
    """
    from repro.analysis.runner import _cached_program_with_rf

    program, rf = _cached_program_with_rf(scheme, graph, cache)
    demand = None
    if flow is not None and not isinstance(program, GenericProgram):
        from repro.analysis.flow import demand_matrix

        demand = demand_matrix(
            flow,
            graph.n,
            seed=demand_seed,
            dist=distance_matrix(graph),
        )
    rows: List[ResilienceCellResult] = []
    off_diag = ~np.eye(graph.n, dtype=bool)
    for scenario_label, faults in scenarios:
        dist = surviving_distance_matrix(graph, faults)
        result = simulate_with_faults(
            rf, faults, program=program, graph=graph, dist=dist
        )
        # One pass over the outcome matrices per scenario: the convenience
        # properties (survival_rate, delivered_count) would re-scan them.
        counts = result.counts()
        routable = result.routable_count
        delivered_traffic = None
        peak_load = None
        if demand is not None:
            from repro.analysis.flow import route_demand

            # The compiled path already masked and resolved this scenario:
            # route over that view and its fate report.
            flow_result = route_demand(result.program, demand, report=result.report)
            # Same denominator policy as survival_rate: only the traffic of
            # pairs the surviving topology can still connect counts.
            routable_demand = float(
                demand.demand[(dist != UNREACHABLE) & off_diag].sum()
            )
            delivered_traffic = (
                flow_result.delivered_demand / routable_demand
                if routable_demand
                else 1.0
            )
            peak_load = flow_result.max_congestion
        rows.append(
            ResilienceCellResult(
                scheme=label,
                family=family,
                scenario=scenario_label,
                fault_kind=faults.kind,
                k=faults.size,
                n=graph.n,
                mode=result.mode,
                feasible=result.feasible_count,
                routable=routable,
                delivered=counts["delivered"],
                dropped=counts["dropped"],
                livelocked=counts["livelocked"],
                misdelivered=counts["misdelivered"],
                survival_rate=counts["delivered"] / routable if routable else 1.0,
                max_stretch=float(result.max_stretch()),
                mean_stretch=result.mean_stretch(),
                delivered_traffic=delivered_traffic,
                peak_load=peak_load,
            )
        )
    return rows


def survival_curves(cells: Sequence[ResilienceCellResult]) -> List[ResilienceCurve]:
    """Aggregate cell rows into per-(scheme, fault kind) degradation curves."""
    grouped: Dict[Tuple[str, str, int], List[ResilienceCellResult]] = {}
    for cell in cells:
        grouped.setdefault((cell.scheme, cell.fault_kind, cell.k), []).append(cell)
    curves: Dict[Tuple[str, str], List[Tuple[int, float, float, float, int]]] = {}
    traffic: Dict[Tuple[str, str], List[Tuple[int, float]]] = {}
    for (scheme, kind, k), rows in sorted(grouped.items()):
        curves.setdefault((scheme, kind), []).append(
            (
                k,
                sum(r.survival_rate for r in rows) / len(rows),
                sum(r.mean_stretch for r in rows) / len(rows),
                max(r.max_stretch for r in rows),
                len(rows),
            )
        )
        measured = [
            r.delivered_traffic for r in rows if r.delivered_traffic is not None
        ]
        if measured:
            traffic.setdefault((scheme, kind), []).append(
                (k, sum(measured) / len(measured))
            )
    return [
        ResilienceCurve(
            scheme=scheme,
            fault_kind=kind,
            points=tuple(points),
            traffic=tuple(traffic.get((scheme, kind), ())),
        )
        for (scheme, kind), points in sorted(curves.items())
    ]


def format_resilience(curves: Sequence[ResilienceCurve]) -> str:
    """Fixed-width text table of the degradation curves (benchmark output).

    A ``traffic`` column (mean delivered-traffic fraction) appears when any
    curve carries flow measurements; cells without one print ``-``.
    """
    with_traffic = any(curve.traffic for curve in curves)
    header = (
        f"{'scheme':<22} {'faults':<6} {'k':>3} {'cells':>5} "
        f"{'survival':>9} {'stretch':>8} {'worst':>7}"
    )
    if with_traffic:
        header += f" {'traffic':>8}"
    lines = [header]
    for curve in curves:
        traffic_by_k = dict(curve.traffic)
        for k, survival, mean_stretch, worst, cells in curve.points:
            line = (
                f"{curve.scheme:<22} {curve.fault_kind:<6} {k:>3} {cells:>5} "
                f"{survival:>9.3f} {mean_stretch:>8.3f} {worst:>7.3f}"
            )
            if with_traffic:
                frac = traffic_by_k.get(k)
                line += f" {frac:>8.3f}" if frac is not None else f" {'-':>8}"
            lines.append(line)
    return "\n".join(lines)
