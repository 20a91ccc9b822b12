"""Experiment E1 — regenerating the shape of Table 1.

Table 1 of the paper tabulates, per stretch-factor regime, the best known
local and global memory requirements of universal routing schemes.  The
absolute entries are asymptotic worst-case bounds; what a reproduction can
and should check is the *shape*:

* at stretch 1 and at any stretch below 2, no scheme beats plain routing
  tables locally (``Θ(n log n)`` bits) — this is the paper's Theorem 1;
* trees, outerplanar and unit circular-arc graphs are easy
  (``O(deg log n)`` via one interval per arc) — the lower bound is about
  worst-case graphs, not all graphs;
* once the stretch budget reaches 3 and beyond, landmark/spanner schemes
  store far less than tables, and the gap widens with the stretch.

:meth:`repro.analysis.runner.ShardedRunner.table1_report` measures every
implemented scheme on every requested graph and groups the measurements
(:func:`group_measurements`) by the stretch regime they land in, side by
side with the closed-form bounds of :mod:`repro.memory.bounds`;
:func:`format_table1` renders the rows the way the paper's table is laid
out (one row per stretch range).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.graphs.digraph import PortLabeledGraph
from repro.memory import bounds as bound_formulas
from repro.memory.requirement import MemoryProfile, memory_profile
from repro.routing.model import RoutingFunction, SchemeInapplicableError
from repro.routing.program import RoutingProgram, compile_or_interpret
from repro.sim.engine import simulated_stretch_factor

__all__ = [
    "SchemeInapplicableError",
    "SchemeMeasurement",
    "Table1Row",
    "default_schemes",
    "measure_scheme",
    "group_measurements",
    "format_table1",
]


@dataclass(frozen=True)
class SchemeMeasurement:
    """One (scheme, graph) measurement.

    ``stretch`` is the exact measured stretch factor, ``local_bits`` /
    ``global_bits`` the measured memory profile, ``address_bits`` the size of
    the destination addresses the scheme requires.
    """

    scheme: str
    graph_name: str
    n: int
    stretch: float
    local_bits: int
    global_bits: int
    mean_bits: float
    address_bits: int


@dataclass(frozen=True)
class Table1Row:
    """One stretch-regime row of the regenerated table."""

    stretch_range: Tuple[float, float]
    description: str
    local_lower_bound: float
    local_upper_bound: float
    global_lower_bound: float
    global_upper_bound: float
    measurements: Tuple[SchemeMeasurement, ...]


def measure_scheme(
    scheme,
    graph: PortLabeledGraph,
    graph_name: str = "graph",
    dist=None,
    program: Optional[RoutingProgram] = None,
    rf: Optional[RoutingFunction] = None,
) -> SchemeMeasurement:
    """Build ``scheme`` on ``graph`` and measure stretch and memory.

    The stretch is measured over all ``n (n - 1)`` pairs through the batched
    simulator (:mod:`repro.sim.engine`); the per-pair ``stretch_factor``
    of ``tests/oracles.py`` is its differential-testing oracle.  ``dist``
    optionally supplies a precomputed distance matrix (the sharded runner
    passes its cached one — port relabellings performed by a scheme do not
    change distances).
    ``program`` optionally supplies the cell's pre-compiled
    :class:`~repro.routing.program.RoutingProgram` (the runner's program
    cache); the scheme is then lowered zero times here, and simulation and
    memory share that one artifact.  ``rf`` short-circuits the build when
    the caller already owns a routing function of this scheme.
    """
    from repro.memory.requirement import address_bits as _address_bits

    if rf is None:
        try:
            rf = scheme.build(graph)
        except ValueError as exc:
            raise SchemeInapplicableError(str(exc)) from exc
    if program is None:
        program = compile_or_interpret(rf)
    profile: MemoryProfile = memory_profile(rf, program=program)
    s = float(simulated_stretch_factor(rf, dist=dist, program=program))
    return SchemeMeasurement(
        scheme=getattr(scheme, "name", type(scheme).__name__),
        graph_name=graph_name,
        n=graph.n,
        stretch=s,
        local_bits=profile.local,
        global_bits=profile.global_,
        mean_bits=profile.mean,
        address_bits=_address_bits(rf),
    )


def default_schemes(seed: int = 7) -> List:
    """The Table 1 report's default schemes: tables, interval routing, Cowen
    landmarks and the spanner+landmark composition."""
    from repro.routing.hierarchical import HierarchicalSpannerScheme
    from repro.routing.interval import IntervalRoutingScheme
    from repro.routing.landmark import CowenLandmarkScheme
    from repro.routing.tables import ShortestPathTableScheme

    return [
        ShortestPathTableScheme(),
        IntervalRoutingScheme(),
        CowenLandmarkScheme(seed=seed),
        HierarchicalSpannerScheme(spanner_stretch=3.0, seed=seed),
    ]


def group_measurements(
    measurements: Sequence[SchemeMeasurement], reference_n: int, eps: float = 0.5
) -> List[Table1Row]:
    """Group measurements into the Table 1 stretch-regime rows.

    The grouping step of
    :meth:`repro.analysis.runner.ShardedRunner.table1_report`, whose cells
    may be measured out of process and are grouped here afterwards.
    """
    rows: List[Table1Row] = []
    for entry in bound_formulas.table1_rows(eps=eps):
        low, high = entry.stretch_range
        if low == high:
            in_range = [m for m in measurements if abs(m.stretch - low) < 1e-9]
        else:
            in_range = [m for m in measurements if low <= m.stretch < high]
        rows.append(
            Table1Row(
                stretch_range=entry.stretch_range,
                description=entry.description,
                local_lower_bound=entry.local_lower(reference_n),
                local_upper_bound=entry.local_upper(reference_n),
                global_lower_bound=entry.global_lower(reference_n),
                global_upper_bound=entry.global_upper(reference_n),
                measurements=tuple(in_range),
            )
        )
    return rows


def format_table1(rows: Sequence[Table1Row]) -> str:
    """Render the regenerated table as fixed-width text (one block per stretch row)."""
    lines: List[str] = []
    header = (
        f"{'stretch range':<18} {'local lower':>14} {'local upper':>14} "
        f"{'global lower':>14} {'global upper':>14}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        low, high = row.stretch_range
        range_text = f"s = {low:g}" if low == high else f"{low:g} <= s < {high:g}"
        lines.append(
            f"{range_text:<18} {row.local_lower_bound:>14.0f} {row.local_upper_bound:>14.0f} "
            f"{row.global_lower_bound:>14.0f} {row.global_upper_bound:>14.0f}"
        )
        for m in row.measurements:
            lines.append(
                f"    {m.scheme:<22} on {m.graph_name:<16} n={m.n:<5d} "
                f"stretch={m.stretch:5.2f}  local={m.local_bits:>8d}b  "
                f"global={m.global_bits:>10d}b  addr={m.address_bits}b"
            )
        if not row.measurements:
            lines.append("    (no measured scheme lands in this regime on the chosen graphs)")
    return "\n".join(lines)
