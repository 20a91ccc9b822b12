"""Batched routing simulation: thin adapters over compiled routing programs.

Forwarding one message at a time through Python-level ``P``/``H`` calls
(the per-pair router that survives as the test oracle in
``tests/oracles.py``) makes all-pairs measurements quadratic in
*interpreted* work.  This module answers for
**all ordered pairs at once** from the compiled-program IR of
:mod:`repro.routing.program`: every routing function lowers itself
(``rf.compile_program()``, dispatched on the class-owned
``rf.program_kind()``) to one of three artifact kinds.

* :class:`~repro.routing.program.NextHopProgram` (mode ``"compiled"``) and
  :class:`~repro.routing.program.HeaderStateProgram` (mode
  ``"header-compiled"``) are functional graphs — per destination column on
  nodes, or on interned ``(node, header)`` states — so every pair's fate
  (delivered, misdelivered, dropped at a fault, or livelocked) and hop
  count is a closed-form property of the program.  Both kinds execute
  through the one resolver :func:`repro.routing.verify.resolve_fates` (the
  same analysis :func:`~repro.routing.verify.verify_program` reports); no
  message is stepped, and livelocks are proven rather than inferred from
  an exhausted hop budget.  ``SimulationResult.steps`` is read off the
  fates as the number of synchronous steps a per-step executor would run.
* :class:`~repro.routing.program.GenericProgram` (mode ``"generic"``) — the
  explicit opt-out: the one per-message interpreter of the package,
  :func:`interpret`, advances every in-flight message one hop per step but
  evaluates ``P``/``H`` per message, decision for decision like the
  per-pair oracle, and returns the same verdict codes and exact hops as a
  :class:`~repro.routing.verify.VerificationReport` of kind
  ``"generic"``.  It is the only execution path of generic schemes, the
  reference every compiled path is tested against, and the only one with
  a hop budget (:data:`HOP_BUDGET_FACTOR` ``* n`` steps, then a livelock).
  Given an alive mask and failed edges it applies the fault model too
  (:func:`repro.sim.faults.simulate_with_faults`).

Every executor answers with one record, a :class:`SimulationResult`: the
fate report plus the step count and mode; its matrices and pair lists are
read off the report.  :func:`simulate_all_pairs` routes a live routing
function (lowered on the fly, or executed against a pre-compiled
``program=`` artifact); :func:`execute_program` executes a
:class:`~repro.routing.program.RoutingProgram` alone — the form the
sharded runner ships across worker processes as cached bytes.

Misdelivery (``P`` returning :data:`~repro.routing.model.DELIVER` at the
wrong node) is recorded per pair — distinctly from livelocks — in
:attr:`SimulationResult.misdelivered` on every path rather than raised, so
conformance layers can report *which* pairs a broken scheme loses and *how*;
``result.report.require_all_delivered()`` is the fail-fast view.  A
structurally corrupt program (an out-of-range transition) raises
:class:`~repro.routing.verify.ProgramVerificationError` instead of
producing outcomes.

Program-kind eligibility is declared by the routing classes themselves
(``rf.program_kind()`` / the ``can_vectorize`` class attribute) — the
engine never sniffs capabilities.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import AbstractSet, Hashable, List, Optional, Tuple

import numpy as np

from repro.graphs.digraph import PortLabeledGraph
from repro.graphs.shortest_paths import UNREACHABLE, distance_matrix
from repro.routing.model import DELIVER, RoutingFunction
from repro.routing.program import (
    KIND_GENERIC,
    KIND_HEADER_STATE,
    KIND_NEXT_HOP,
    MISDELIVER,
    NO_ROUTE,
    GenericProgram,
    RoutingProgram,
    compile_or_interpret,
)
from repro.routing.verify import (
    LOST_VERDICTS,
    VERDICT_DELIVERED,
    VERDICT_DROPPED,
    VERDICT_INFEASIBLE,
    VERDICT_LIVELOCKED,
    VERDICT_MISDELIVERED,
    VerificationReport,
    resolve_fates,
)

__all__ = [
    "HOP_BUDGET_FACTOR",
    "MISDELIVER",
    "SimulationResult",
    "execute_masked_program",
    "execute_program",
    "interpret",
    "simulate_all_pairs",
    "simulated_stretch_factor",
]

#: Program kind -> the mode string recorded on :class:`SimulationResult`
#: (kept from the pre-IR engine so downstream reports stay stable).
_KIND_MODES = {
    KIND_NEXT_HOP: "compiled",
    KIND_HEADER_STATE: "header-compiled",
    KIND_GENERIC: "generic",
}

#: The per-message interpreter declares a message livelocked once it is
#: still in flight after ``HOP_BUDGET_FACTOR * n`` steps.  Compiled
#: programs need no budget: their fates are exact.
HOP_BUDGET_FACTOR = 4


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of routing all ordered pairs of a graph at once.

    A thin record around the one per-pair record, the executor's
    :class:`~repro.routing.verify.VerificationReport`: every matrix and
    pair list below is read off its ``outcome`` verdicts and exact
    ``hops``.

    Attributes
    ----------
    report:
        The fate of every pair (kind ``"generic"`` on the interpreter's
        path).
    steps:
        Number of synchronous steps a per-step execution runs for (the
        longest delivered route, or the hop budget if something
        livelocked); compiled programs read it off their resolved fates.
    mode:
        ``"compiled"`` (next-hop program), ``"header-compiled"``
        (header-state program) or ``"generic"`` (per-message interpreter),
        suffixed ``"-masked"`` by :func:`execute_masked_program`.
    """

    report: VerificationReport
    steps: int
    mode: str

    @property
    def n(self) -> int:
        """Number of vertices of the simulated graph."""
        return self.report.n

    @cached_property
    def delivered(self) -> np.ndarray:
        """``delivered[x, y]``: the message from ``x`` arrived at ``y``.

        The diagonal is ``True`` at every alive vertex (every vertex of an
        unmasked execution).
        """
        delivered = self.report.outcome == VERDICT_DELIVERED
        np.fill_diagonal(delivered, self.report.hops.diagonal() == 0)
        return delivered

    @cached_property
    def misdelivered(self) -> np.ndarray:
        """``misdelivered[x, y]``: ``DELIVER`` at a node other than ``y``.

        Recorded identically on every path, so a lost pair is always
        classifiable as a misdelivery or a livelock (or, masked, a drop).
        """
        return self.report.outcome == VERDICT_MISDELIVERED

    @cached_property
    def lengths(self) -> np.ndarray:
        """Hops of the route from ``x`` to ``y``: ``0`` on the alive diagonal,
        ``-1`` for every pair whose message did not arrive."""
        hops = self.report.hops
        # Lost pairs carry -1 here, not their walked prefix.
        return hops if self.all_delivered else np.where(self.delivered, hops, NO_ROUTE)

    @property
    def all_delivered(self) -> bool:
        """Whether every simulated pair was delivered at its destination."""
        return self.report.all_delivered

    def undelivered_pairs(self) -> List[Tuple[int, int]]:
        """Simulated pairs whose message never arrived, sorted."""
        return self.report.pairs(*LOST_VERDICTS)

    def misdelivered_pairs(self) -> List[Tuple[int, int]]:
        """Ordered pairs whose message was delivered at the wrong node, sorted."""
        return self.report.pairs(VERDICT_MISDELIVERED)

    def livelocked_pairs(self) -> List[Tuple[int, int]]:
        """Ordered pairs whose message never stopped, sorted."""
        return self.report.pairs(VERDICT_LIVELOCKED)

    def _loss_summary(self) -> str:
        lost = self.undelivered_pairs()
        x, y = lost[0]
        counts = self.report.counts()
        return (
            f"{len(lost)} pair(s) lost ({counts['misdelivered']} misdelivered, "
            f"{counts['livelocked']} livelocked); first lost pair {x} -> {y}"
        )

    # ------------------------------------------------------------------
    def max_stretch(self, dist: Optional[np.ndarray] = None, graph: Optional[PortLabeledGraph] = None) -> Fraction:
        """Exact worst-case stretch of the delivered routes as a fraction.

        ``dist`` is the distance matrix (read from ``graph`` when omitted:
        :func:`~repro.graphs.shortest_paths.distance_matrix` memoises it on
        the graph, so sweeps never recompute it per cell).  Raises :class:`ValueError`
        when a pair is undelivered: lost pairs carry the ``-1`` length
        sentinel, which must never leak into a ratio or be silently skipped
        — callers wanting a fail-fast matrix should go through
        ``report.require_all_delivered()``, callers expecting losses should
        filter :meth:`undelivered_pairs` first.
        """
        if not self.all_delivered:
            raise ValueError(
                f"max_stretch is undefined: {self._loss_summary()}; the -1 length "
                "sentinels of lost pairs cannot enter a stretch ratio — call "
                "report.require_all_delivered() or handle undelivered_pairs() first"
            )
        if self.n < 2:
            return Fraction(1)
        if dist is None:
            if graph is None:
                raise ValueError("max_stretch needs either dist or graph")
            dist = distance_matrix(graph)
        unreachable = dist == UNREACHABLE
        np.fill_diagonal(unreachable, False)
        if unreachable.any():
            raise ValueError("stretch is undefined on disconnected graphs")
        return self.report.stretch(dist)[0]


# ----------------------------------------------------------------------
# executors: the fate resolver and the per-message interpreter
# ----------------------------------------------------------------------
def _steps(report: VerificationReport) -> int:
    """Synchronous steps a per-step executor runs before every pair retires.

    Read off the fates, so results keep the historical ``steps`` figure.
    On a next-hop program a message retires at the step that delivers it
    (after ``h`` hops) or one step after its walked prefix of ``h`` hops
    ends at a stop; a livelock keeps the walk going for the full ``n``-hop
    budget.  On a header-state program every stop kind is detected one
    step after the hops it walked, and livelocks never extend the walk.
    No simulated pair means 0 steps.
    """
    outcome, hops = report.outcome, report.hops
    # Only stopped pairs carry a positive hop count: livelocked and
    # infeasible pairs hold NO_ROUTE, the diagonal 0.
    last = int(hops.max(initial=0))
    if report.kind == KIND_NEXT_HOP:
        if (outcome == VERDICT_LIVELOCKED).any():
            return report.n
        early = (outcome == VERDICT_MISDELIVERED) | (outcome == VERDICT_DROPPED)
        return max(last, int(hops[early].max(initial=-1)) + 1)
    stopped = (outcome != VERDICT_INFEASIBLE) & (outcome != VERDICT_LIVELOCKED)
    return last + 1 if stopped.any() else 0


def _simulation(report: VerificationReport, steps: int, masked: bool) -> SimulationResult:
    """The one converter: a report and its step count as a :class:`SimulationResult`."""
    mode = _KIND_MODES[report.kind]
    return SimulationResult(report, steps, mode + "-masked" if masked else mode)


def interpret(
    rf: RoutingFunction,
    alive: Optional[np.ndarray] = None,
    failed_edges: AbstractSet[Tuple[int, int]] = frozenset(),
) -> Tuple[VerificationReport, int]:
    """Route every ordered pair of alive vertices through the live ``P``/``H``.

    The package's one per-message interpreter: every in-flight message
    advances one hop per synchronous step, decision for decision like the
    per-pair oracle.  ``alive`` (default: every vertex) and
    ``failed_edges`` (normalised ``(u, v)`` with ``u < v``) apply the
    fault model of :mod:`repro.sim.faults` — ``DELIVER`` is checked before
    the fault, and a hop into a failed node or across a failed edge drops
    the message where it stands, the blocked hop uncounted.

    Returns ``(report, steps)``: a
    :class:`~repro.routing.verify.VerificationReport` of kind
    ``"generic"`` (empty ``state_hops``) — its ``outcome`` holds
    :data:`~repro.routing.verify.VERDICT_INFEASIBLE` on the diagonal and
    for failed endpoints, and a message still in flight after
    ``HOP_BUDGET_FACTOR * n`` steps is livelocked; its ``hops`` are the
    hops walked before the message stopped (``-1`` for livelocked and
    infeasible pairs, ``0`` on the alive diagonal) — and the number of
    steps run.  An invalid port raises :class:`ValueError`.
    """
    graph = rf.graph
    n = graph.n
    if alive is None:
        alive = np.ones(n, dtype=bool)
    universe = alive[:, None] & alive[None, :]
    np.fill_diagonal(universe, False)
    outcome = np.where(universe, VERDICT_LIVELOCKED, VERDICT_INFEASIBLE).astype(
        np.int8  # repro-lint: allow-dtype (verdict codes)
    )
    hops = np.full((n, n), NO_ROUTE, dtype=np.int64)
    np.fill_diagonal(hops, np.where(alive, 0, NO_ROUTE))
    faulty = bool(failed_edges) or not alive.all()
    is_alive = alive.tolist()

    # One in-flight record per simulated pair: (source, dest, node, header).
    src, dst = np.nonzero(universe)
    flights: List[Tuple[int, int, int, Hashable]] = [
        (x, y, x, rf.initial_header(x, y)) for x, y in zip(src.tolist(), dst.tolist())
    ]
    port_fn = rf.port
    next_header = rf.next_header
    neighbor_at_port = graph.neighbor_at_port
    steps = 0
    while flights and steps < HOP_BUDGET_FACTOR * n:
        # Messages move in lockstep: every one in flight has walked `steps` hops.
        walked = steps
        steps += 1
        survivors: List[Tuple[int, int, int, Hashable]] = []
        for source, dest, node, header in flights:
            port = port_fn(node, header)
            if port == DELIVER:
                # Delivery requires P to say DELIVER at the head node, so a
                # message reaching its destination stays in flight until the
                # scheme's own decision next step — exactly the per-pair oracle.
                outcome[source, dest] = (
                    VERDICT_DELIVERED if node == dest else VERDICT_MISDELIVERED
                )
                hops[source, dest] = walked
                continue
            try:
                nxt = neighbor_at_port(node, port)
            except KeyError as exc:
                raise ValueError(
                    f"routing function used invalid port {port} at vertex {node} "
                    f"(degree {graph.degree(node)})"
                ) from exc
            if faulty and (
                not is_alive[nxt]
                or ((node, nxt) if node < nxt else (nxt, node)) in failed_edges
            ):
                outcome[source, dest] = VERDICT_DROPPED
                hops[source, dest] = walked
                continue
            survivors.append((source, dest, nxt, next_header(node, header)))
        flights = survivors
    report = VerificationReport(
        kind=KIND_GENERIC,
        n=n,
        num_states=0,
        masked=faulty,
        outcome=outcome,
        hops=hops,
        state_hops=np.zeros(0, dtype=np.int64),
    )
    return report, steps


def execute_masked_program(
    program: RoutingProgram,
    alive: Optional[np.ndarray] = None,
) -> SimulationResult:
    """Execute a masked program over all ordered pairs of alive vertices.

    ``alive`` is the boolean survival mask of the fault scenario
    (``None`` = every vertex alive); pairs with a failed endpoint are never
    simulated.  The program is expected to carry
    :data:`~repro.routing.program.DROPPED` sentinels where
    :func:`repro.sim.faults.apply_faults` masked a transition — an unmasked
    program works too and simply never drops anything.  The result's
    report classifies every simulated pair as delivered, misdelivered,
    **dropped at a fault** (the walk attempted a masked transition) or
    livelocked, with the walked prefix of every stopped pair in its
    ``hops``; its mode carries the ``"-masked"`` suffix.  Generic programs
    have no transition arrays to mask; fault-inject them through the
    per-message interpreter (:func:`repro.sim.faults.simulate_with_faults`
    with the live routing function).
    """
    if isinstance(program, GenericProgram):
        raise ValueError(
            "a generic program has no transition arrays to mask; interpret the "
            "live routing function via repro.sim.faults.simulate_with_faults"
        )
    if not isinstance(program, RoutingProgram):
        raise TypeError(f"not a RoutingProgram: {type(program).__name__}")
    report = resolve_fates(program, alive)
    return _simulation(report, _steps(report), masked=True)


def execute_program(
    program: RoutingProgram,
    rf: Optional[RoutingFunction] = None,
) -> SimulationResult:
    """Execute a compiled routing program over all ordered pairs.

    The artifact is self-contained for the two compiled kinds (a program
    deserialized from bytes in another process executes identically);
    a :class:`~repro.routing.program.GenericProgram` is the explicit
    opt-out and requires the live routing function ``rf`` to interpret.
    When ``rf`` accompanies a compiled program, their vertex counts must
    agree — a program cached for a different graph must fail loudly, not
    produce lengths that downstream stretch ratios would silently trust.
    """
    if rf is not None and rf.graph.n != program.n:
        raise ValueError(
            f"program was compiled for n={program.n} but the routing "
            f"function lives on an n={rf.graph.n} graph"
        )
    if isinstance(program, GenericProgram):
        if rf is None:
            raise ValueError(
                "a generic program is an opt-out marker: executing it needs the "
                "live routing function (pass rf=...)"
            )
        return _simulation(*interpret(rf), masked=False)
    if not isinstance(program, RoutingProgram):
        raise TypeError(f"not a RoutingProgram: {type(program).__name__}")
    report = resolve_fates(program)
    if report.masked:
        raise ValueError(
            f"this {program.kind} program carries fault masks (DROPPED "
            "entries); execute it with repro.sim.engine.execute_masked_program"
        )
    return _simulation(report, _steps(report), masked=False)


def simulate_all_pairs(
    rf: RoutingFunction,
    program: Optional[RoutingProgram] = None,
) -> SimulationResult:
    """Route all ``n * (n - 1)`` ordered pairs at once.

    Parameters
    ----------
    rf:
        The :class:`~repro.routing.model.RoutingFunction` to route.
    program:
        A pre-compiled program for ``rf`` (e.g. from the sharded runner's
        program cache): the engine executes it instead of lowering the
        scheme again.  Without one, the routing function is lowered by
        :func:`~repro.routing.program.compile_or_interpret`: to the program
        kind it declares (``rf.program_kind()``), or to the generic
        interpreter when a header-state enumeration explodes.  A program
        alone goes to :func:`execute_program`.
    """
    if program is None:
        program = compile_or_interpret(rf)
    return execute_program(program, rf=rf)


def simulated_stretch_factor(
    rf: RoutingFunction,
    dist: Optional[np.ndarray] = None,
    program: Optional[RoutingProgram] = None,
) -> Fraction:
    """Exact stretch factor ``s(R, G)`` computed through the batched simulator.

    Equal to the per-pair oracle ``stretch_factor`` of ``tests/oracles.py``
    (the test-suite pins the equality) at a fraction of the interpreted
    work.  ``dist``
    defaults to the graph's memoised distance matrix; ``program`` may
    supply a pre-compiled program.
    """
    result = simulate_all_pairs(rf, program=program)
    return result.max_stretch(dist=dist, graph=rf.graph)
