"""Conformance reports: scheme x graph-family cross-checks against Table 1.

A :class:`ConformanceReport` runs one scheme on one graph through the
batched simulator and verifies every property the paper's framework lets us
verify exactly:

* **delivery** — all ``n * (n - 1)`` ordered pairs arrive at their
  destination (Definition of a routing function, Section 1);
* **stretch** — the exact worst-case stretch against
  :func:`repro.graphs.shortest_paths.distance_matrix` is at least 1 (it is a
  ratio of a walk length to a distance) and at most the scheme's declared
  ``stretch_guarantee``; schemes guaranteeing stretch 1 must measure
  *exactly* 1;
* **memory** — the measured encoded memory (:func:`repro.memory.requirement.memory_profile`)
  never exceeds the universal routing-table upper bound of Table 1
  (:func:`repro.memory.bounds.routing_table_local_upper`, the ``O(n log n)``
  entry every row of the table is bounded by), modulo encoding overhead;
* **regime** — the measured stretch is classified into the Table 1 row it
  lands in and the row's closed-form local/global bound curves
  (:func:`repro.memory.bounds.table1_rows`) are evaluated at this ``n`` and
  recorded next to the measurements, making every report one executable
  cell of the table.

:meth:`repro.analysis.runner.ShardedRunner.conformance_suite` evaluates
the full scheme x family cross-product of :mod:`repro.sim.registry`;
partial schemes are recorded as skipped on graphs outside their domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.graphs.digraph import PortLabeledGraph
from repro.graphs.shortest_paths import distance_matrix
from repro.memory import bounds as bound_formulas
from repro.memory.requirement import address_bits, memory_profile
from repro.routing.model import RoutingFunction, RoutingScheme, SchemeInapplicableError
from repro.routing.program import RoutingProgram, compile_or_interpret
from repro.sim.engine import SimulationResult, simulate_all_pairs

__all__ = [
    "ConformanceReport",
    "conformance_report",
    "format_conformance",
]

#: Multiplicative slack on the universal routing-table bound: measured
#: encodings carry per-entry headers and Elias-gamma counters the
#: asymptotic formula ignores.
_TABLE_BOUND_SLACK = 2.0

#: Additive slack in bits (coder tags, counters) on top of the same bound.
_TABLE_BOUND_OVERHEAD = 128.0


@dataclass(frozen=True)
class ConformanceReport:
    """One verified (scheme, graph family) cell of the executable Table 1.

    ``failures`` is empty exactly when the cell conforms; :attr:`ok` is the
    aggregate verdict.  The ``regime_*`` fields record the Table 1 row the
    measured stretch lands in together with its closed-form bound curves
    evaluated at this ``n``.
    """

    scheme: str
    family: str
    n: int
    mode: str
    all_delivered: bool
    undelivered: int
    max_stretch: float
    stretch_exact: Tuple[int, int]
    stretch_guarantee: Optional[float]
    local_bits: int
    global_bits: int
    address_bits: int
    table_upper_bits: float
    regime: str
    regime_local_upper_bits: float
    regime_global_upper_bits: float
    failures: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        """Whether every conformance check passed."""
        return not self.failures

    @property
    def stretch_fraction(self) -> Fraction:
        """The exact measured stretch as a fraction."""
        return Fraction(*self.stretch_exact)


def _classify_regime(stretch: float, eps: float = 0.5) -> bound_formulas.BoundEntry:
    """The Table 1 row whose stretch range contains the measured stretch."""
    rows = bound_formulas.table1_rows(eps=eps)
    if abs(stretch - 1.0) < 1e-12:
        return rows[0]
    for row in rows[1:]:
        low, high = row.stretch_range
        if low <= stretch < high:
            return row
    return rows[-1]


def conformance_report(
    scheme: RoutingScheme,
    graph: PortLabeledGraph,
    family: str = "graph",
    dist: Optional[np.ndarray] = None,
    label: Optional[str] = None,
    program: Optional[RoutingProgram] = None,
    rf: Optional[RoutingFunction] = None,
) -> ConformanceReport:
    """Build ``scheme`` on a copy of ``graph`` and verify it end to end.

    The scheme is built on a :meth:`~repro.graphs.digraph.PortLabeledGraph.copy`
    because some schemes (the complete-graph labellings) relabel ports in
    place.  A ``scheme.build`` refusal on an inapplicable graph is re-raised
    as :class:`~repro.routing.model.SchemeInapplicableError` so the suite
    can skip the cell without masking simulation diagnostics.

    The cell is measured through the compile-once pipeline: the scheme is
    lowered to its :class:`~repro.routing.program.RoutingProgram` exactly
    once (or executed against the pre-compiled ``program`` the sharded
    runner fetched from its cache), and both the simulation *and* the
    memory profile are scored against that same artifact.  ``rf``
    short-circuits the build when the caller already owns a routing
    function of this scheme (built on its own copy of ``graph``).
    """
    if rf is None:
        graph = graph.copy()
        try:
            rf = scheme.build(graph)
        except ValueError as exc:
            raise SchemeInapplicableError(str(exc)) from exc
    if dist is None:
        dist = distance_matrix(rf.graph)
    if program is None:
        program = compile_or_interpret(rf)
    result: SimulationResult = simulate_all_pairs(rf, program=program)

    counts = result.report.counts()
    undelivered = counts["misdelivered"] + counts["livelocked"]
    failures: List[str] = []
    if undelivered:
        failures.append(
            f"{undelivered} pair(s) undelivered "
            f"({counts['misdelivered']} misdelivered, {counts['livelocked']} livelocked)"
        )
        stretch = Fraction(0)
    else:
        stretch = result.max_stretch(dist=dist)
        if stretch < 1:
            failures.append(f"stretch {stretch} below 1")

    guarantee = getattr(scheme, "stretch_guarantee", None)
    if guarantee is not None and not np.isnan(guarantee) and undelivered == 0:
        if float(stretch) > guarantee + 1e-9:
            failures.append(f"stretch {float(stretch):.3f} exceeds guarantee {guarantee}")
        if guarantee == 1.0 and stretch != 1:
            failures.append(f"shortest-path scheme measured stretch {stretch} != 1")

    profile = memory_profile(rf, program=program)
    n = rf.graph.n
    # The universal ceiling uses the degree-free n log n entry of Table 1:
    # labeled schemes store (target, port) entry lists whose log n per-entry
    # cost legitimately exceeds the degree-refined table bound on
    # bounded-degree graphs (the degree refinement is experiment E7's
    # subject, not a universal law).
    table_upper = bound_formulas.routing_table_local_upper(n)
    ceiling = _TABLE_BOUND_SLACK * table_upper + _TABLE_BOUND_OVERHEAD
    if profile.local > ceiling:
        failures.append(
            f"local memory {profile.local}b exceeds the universal table bound "
            f"({table_upper:.0f}b, ceiling {ceiling:.0f}b)"
        )

    if undelivered:
        # No delivered stretch to classify: an undelivered cell belongs to
        # no Table 1 row, and pretending otherwise would mis-bin failures
        # into the largest-stretch regime.
        regime_name = "(undelivered — no Table 1 regime)"
        regime_local = float("nan")
        regime_global = float("nan")
    else:
        regime = _classify_regime(float(stretch))
        regime_name = regime.description
        regime_local = regime.local_upper(n)
        regime_global = regime.global_upper(n)
    return ConformanceReport(
        scheme=label or getattr(scheme, "name", type(scheme).__name__),
        family=family,
        n=n,
        mode=result.mode,
        all_delivered=undelivered == 0,
        undelivered=undelivered,
        max_stretch=float(stretch),
        stretch_exact=(stretch.numerator, stretch.denominator),
        stretch_guarantee=None if guarantee is None or np.isnan(guarantee) else float(guarantee),
        local_bits=profile.local,
        global_bits=profile.global_,
        address_bits=address_bits(rf),
        table_upper_bits=table_upper,
        regime=regime_name,
        regime_local_upper_bits=regime_local,
        regime_global_upper_bits=regime_global,
        failures=tuple(failures),
    )


def format_conformance(reports: Sequence[ConformanceReport]) -> str:
    """Render the reports as a fixed-width text table, failures flagged."""
    lines = [
        f"{'scheme':<22} {'family':<18} {'n':>4} {'mode':>15} {'stretch':>8} "
        f"{'guar':>5} {'local_b':>8} {'global_b':>10} verdict"
    ]
    lines.append("-" * len(lines[0]))
    for r in reports:
        guar = f"{r.stretch_guarantee:g}" if r.stretch_guarantee is not None else "-"
        verdict = "ok" if r.ok else "FAIL: " + "; ".join(r.failures)
        lines.append(
            f"{r.scheme:<22} {r.family:<18} {r.n:>4d} {r.mode:>15} {r.max_stretch:>8.3f} "
            f"{guar:>5} {r.local_bits:>8d} {r.global_bits:>10d} {verdict}"
        )
    return "\n".join(lines)
