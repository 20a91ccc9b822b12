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
  explicit opt-out: the one per-message interpreter of the package
  advances every in-flight message one hop per step but evaluates
  ``P``/``H`` per message, decision for decision like the per-pair oracle.
  It is the only execution path of generic schemes, the reference every
  compiled path is tested against, and the only one with a hop budget
  (:data:`HOP_BUDGET_FACTOR` ``* n`` steps, then a livelock).  Given an
  alive mask and failed edges it applies the fault model too
  (:func:`repro.sim.faults.simulate_with_faults`).

:func:`simulate_all_pairs` accepts either a live routing function (lowered
on the fly, or executed against a pre-compiled ``program=`` artifact) or a
:class:`~repro.routing.program.RoutingProgram` directly — the form the
sharded runner ships across worker processes as cached bytes.

Misdelivery (``P`` returning :data:`~repro.routing.model.DELIVER` at the
wrong node) is recorded per pair — distinctly from livelocks — in
:attr:`SimulationResult.misdelivered` on every path rather than raised, so
conformance layers can report *which* pairs a broken scheme loses and *how*;
:meth:`SimulationResult.require_all_delivered` is the fail-fast view.  A
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
    VERDICT_DELIVERED,
    VERDICT_DROPPED,
    VERDICT_INFEASIBLE,
    VERDICT_LIVELOCKED,
    VERDICT_MISDELIVERED,
    VerificationReport,
    _exact_max_ratio,
    resolve_fates,
)

__all__ = [
    "HOP_BUDGET_FACTOR",
    "MISDELIVER",
    "MaskedExecution",
    "SimulationResult",
    "execute_masked_program",
    "execute_program",
    "simulate_all_pairs",
    "simulated_routing_lengths",
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

    Attributes
    ----------
    lengths:
        ``lengths[x, y]`` is the number of hops of the simulated route from
        ``x`` to ``y``; ``0`` on the diagonal and ``-1`` for pairs whose
        message was misdelivered or livelocked.
    delivered:
        ``delivered[x, y]`` is whether the message from ``x`` arrived at
        ``y``; the diagonal is ``True``.
    misdelivered:
        ``misdelivered[x, y]`` is whether the scheme returned ``DELIVER``
        at a node other than ``y`` — recorded identically on every
        simulation path, so a lost pair is always classifiable as either a
        misdelivery (``misdelivered``) or a livelock (undelivered and not
        misdelivered).
    steps:
        Number of synchronous steps a per-step execution runs for (the
        longest delivered route, or the hop budget if something
        livelocked); compiled programs read it off their resolved fates.
    mode:
        ``"compiled"`` (next-hop program), ``"header-compiled"``
        (header-state program) or ``"generic"`` (per-message interpreter).
    """

    lengths: np.ndarray
    delivered: np.ndarray
    misdelivered: np.ndarray
    steps: int
    mode: str

    @classmethod
    def from_lengths(
        cls,
        lengths: np.ndarray,
        *,
        delivered: Optional[np.ndarray] = None,
        misdelivered: Optional[np.ndarray] = None,
        mode: str = "compiled",
        steps: Optional[int] = None,
    ) -> "SimulationResult":
        """Wrap a caller-held hop-count matrix as a result without executing.

        The lengths-sharing constructor path: the static verifier
        (:attr:`repro.routing.verify.VerificationReport.hops`) and the flow
        engine (:attr:`repro.analysis.flow.FlowResult.lengths`) both hold
        exact per-pair hop counts, so a cell that already verified its
        program can materialise the executor-shaped view from that one
        array instead of re-running the walk.  ``lengths`` is **shared,
        never copied** — mutating it afterwards mutates this result.
        ``delivered`` defaults to ``lengths >= 0`` (the executor
        convention, exact whenever the array came from an executor or
        from a fully-delivering verification); pass explicit masks when
        the source used the verifier's walked-prefix convention on lost
        pairs.  ``steps`` defaults to the longest recorded route.
        """
        lengths = np.asarray(lengths)
        if lengths.ndim != 2 or lengths.shape[0] != lengths.shape[1]:
            raise ValueError(
                f"lengths must be a square (n, n) matrix, got shape {lengths.shape}"
            )
        if delivered is None:
            delivered = lengths >= 0
        if misdelivered is None:
            misdelivered = np.zeros(lengths.shape, dtype=bool)
        if steps is None:
            steps = max(int(lengths.max()), 0) if lengths.size else 0
        return cls(
            lengths=lengths,
            delivered=np.asarray(delivered, dtype=bool),
            misdelivered=np.asarray(misdelivered, dtype=bool),
            steps=int(steps),
            mode=mode,
        )

    @property
    def n(self) -> int:
        """Number of vertices of the simulated graph."""
        return self.lengths.shape[0]

    @property
    def all_delivered(self) -> bool:
        """Whether every ordered pair was delivered at its destination."""
        return bool(self.delivered.all())

    def undelivered_pairs(self) -> List[Tuple[int, int]]:
        """Ordered pairs whose message never arrived, sorted."""
        xs, ys = np.nonzero(~self.delivered)
        return [(int(x), int(y)) for x, y in zip(xs, ys)]

    def misdelivered_pairs(self) -> List[Tuple[int, int]]:
        """Ordered pairs whose message was delivered at the wrong node, sorted."""
        xs, ys = np.nonzero(self.misdelivered)
        return [(int(x), int(y)) for x, y in zip(xs, ys)]

    def livelocked_pairs(self) -> List[Tuple[int, int]]:
        """Ordered pairs whose message never stopped (lost but not misdelivered)."""
        xs, ys = np.nonzero(~self.delivered & ~self.misdelivered)
        return [(int(x), int(y)) for x, y in zip(xs, ys)]

    def _loss_summary(self) -> str:
        lost = self.undelivered_pairs()
        x, y = lost[0]
        return (
            f"{len(lost)} pair(s) lost ({int(self.misdelivered.sum())} misdelivered, "
            f"{len(self.livelocked_pairs())} livelocked); first lost pair {x} -> {y}"
        )

    def require_all_delivered(self) -> np.ndarray:
        """Return the length matrix, raising if any pair was lost.

        The fail-fast view for callers that expect every pair delivered.
        """
        if not self.all_delivered:
            raise ValueError(
                f"not every message was delivered: {self._loss_summary()}; "
                "inspect misdelivered_pairs() / livelocked_pairs()"
            )
        return self.lengths

    # ------------------------------------------------------------------
    def max_stretch(self, dist: Optional[np.ndarray] = None, graph: Optional[PortLabeledGraph] = None) -> Fraction:
        """Exact worst-case stretch of the delivered routes as a fraction.

        ``dist`` is the distance matrix (read from ``graph`` when omitted:
        :func:`~repro.graphs.shortest_paths.distance_matrix` memoises it on
        the graph, so sweeps never recompute it per cell).  Raises :class:`ValueError`
        when a pair is undelivered: lost pairs carry the ``-1`` length
        sentinel, which must never leak into a ratio or be silently skipped
        — callers wanting a fail-fast matrix should go through
        :meth:`require_all_delivered`, callers expecting losses should
        filter :meth:`undelivered_pairs` first.
        """
        if not self.all_delivered:
            raise ValueError(
                f"max_stretch is undefined: {self._loss_summary()}; the -1 length "
                "sentinels of lost pairs cannot enter a stretch ratio — call "
                "require_all_delivered() or handle undelivered_pairs() first"
            )
        n = self.n
        if n < 2:
            return Fraction(1)
        if dist is None:
            if graph is None:
                raise ValueError("max_stretch needs either dist or graph")
            dist = distance_matrix(graph)
        off = _offdiag_mask(n)
        if (dist[off] == UNREACHABLE).any():
            raise ValueError("stretch is undefined on disconnected graphs")
        return _exact_max_ratio(self.lengths[off], dist[off])


# ----------------------------------------------------------------------
# executors: adapters over the one fate resolver
# ----------------------------------------------------------------------
def _offdiag_mask(n: int) -> np.ndarray:
    """The off-diagonal boolean mask, allocated once per call."""
    mask = np.ones((n, n), dtype=bool)
    np.fill_diagonal(mask, False)
    return mask


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


def _interpret(
    rf: RoutingFunction,
    alive: Optional[np.ndarray] = None,
    failed_edges: AbstractSet[Tuple[int, int]] = frozenset(),
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Route every ordered pair of alive vertices through the live ``P``/``H``.

    The package's one per-message interpreter: every in-flight message
    advances one hop per synchronous step, decision for decision like the
    per-pair oracle.  ``alive`` (default: every vertex) and
    ``failed_edges`` (normalised ``(u, v)`` with ``u < v``) apply the
    fault model of :mod:`repro.sim.faults` — ``DELIVER`` is checked before
    the fault, and a hop into a failed node or across a failed edge drops
    the message where it stands, the blocked hop uncounted.

    Returns ``(outcome, hops, steps)``: the ``(n, n)`` int8 ``VERDICT_*``
    code of every pair (:data:`~repro.routing.verify.VERDICT_INFEASIBLE`
    on the diagonal and for failed endpoints; a message still in flight
    after ``HOP_BUDGET_FACTOR * n`` steps is livelocked), the int64 hops
    walked before the message stopped (``-1`` for livelocked and
    infeasible pairs, ``0`` on the alive diagonal), and the number of
    steps run.  An invalid port raises :class:`ValueError`.
    """
    graph = rf.graph
    n = graph.n
    if alive is None:
        alive = np.ones(n, dtype=bool)
    universe = alive[:, None] & alive[None, :]
    np.fill_diagonal(universe, False)
    outcome = np.where(universe, VERDICT_LIVELOCKED, VERDICT_INFEASIBLE).astype(np.int8)
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
    return outcome, hops, steps


# ----------------------------------------------------------------------
# masked execution (fault injection)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MaskedExecution:
    """Raw outcome matrices of executing a *masked* program over alive pairs.

    The engine-level half of the fault-injection subsystem
    (:mod:`repro.sim.faults` owns the fault model and the outcome
    taxonomy): a masked program carries :data:`~repro.routing.program.DROPPED`
    sentinels in its transition arrays, and :func:`execute_masked_program`
    classifies every simulated pair as delivered, misdelivered (``DELIVER``
    at the wrong node), or **dropped at a fault** (the walk attempted a
    masked transition).  Pairs in none of the three matrices are the
    provable livelocks.  ``lengths`` counts the hops actually taken —
    including for dropped and misdelivered pairs, where it measures the
    path walked *before* the message stopped — and is ``-1`` only for
    livelocked pairs (their walk is infinite).  Pairs outside the alive
    universe (a failed source or destination) appear in no matrix and
    carry length ``-1``; the diagonal of ``delivered`` is ``True`` exactly
    at alive vertices.  ``report`` is the fate report the matrices were
    read off, kept so traffic can be routed over the same resolution.
    """

    delivered: np.ndarray
    misdelivered: np.ndarray
    dropped: np.ndarray
    lengths: np.ndarray
    steps: int
    mode: str
    report: Optional[VerificationReport] = None


def execute_masked_program(
    program: RoutingProgram,
    alive: Optional[np.ndarray] = None,
) -> MaskedExecution:
    """Execute a masked program over all ordered pairs of alive vertices.

    ``alive`` is the boolean survival mask of the fault scenario
    (``None`` = every vertex alive); pairs with a failed endpoint are never
    simulated.  The program is expected to carry
    :data:`~repro.routing.program.DROPPED` sentinels where
    :func:`repro.sim.faults.apply_faults` masked a transition — an unmasked
    program works too and simply never drops anything.  Generic programs
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
    outcome = report.outcome
    delivered = outcome == VERDICT_DELIVERED
    np.fill_diagonal(delivered, True if alive is None else np.asarray(alive, dtype=bool))
    return MaskedExecution(
        delivered=delivered,
        misdelivered=outcome == VERDICT_MISDELIVERED,
        dropped=outcome == VERDICT_DROPPED,
        lengths=report.hops,
        steps=_steps(report),
        mode=_KIND_MODES[program.kind] + "-masked",
        report=report,
    )


def _execute_compiled(program: RoutingProgram) -> SimulationResult:
    """The fates of an unmasked compiled program as a :class:`SimulationResult`."""
    report = resolve_fates(program)
    if report.masked:
        raise ValueError(
            f"this {program.kind} program carries fault masks (DROPPED "
            "entries); execute it with repro.sim.engine.execute_masked_program"
        )
    delivered = report.outcome == VERDICT_DELIVERED
    np.fill_diagonal(delivered, True)
    # Lost pairs carry -1 here, not their walked prefix.
    lengths = report.hops if delivered.all() else np.where(delivered, report.hops, NO_ROUTE)
    return SimulationResult(
        lengths=lengths,
        delivered=delivered,
        misdelivered=report.outcome == VERDICT_MISDELIVERED,
        steps=_steps(report),
        mode=_KIND_MODES[program.kind],
    )


def _execute_generic(rf: RoutingFunction) -> SimulationResult:
    """The interpreter's verdicts on every pair as a :class:`SimulationResult`."""
    outcome, hops, steps = _interpret(rf)
    delivered = outcome == VERDICT_DELIVERED
    np.fill_diagonal(delivered, True)
    return SimulationResult(
        lengths=np.where(delivered, hops, NO_ROUTE),
        delivered=delivered,
        misdelivered=outcome == VERDICT_MISDELIVERED,
        steps=steps,
        mode=_KIND_MODES[KIND_GENERIC],
    )


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
        return _execute_generic(rf)
    if not isinstance(program, RoutingProgram):
        raise TypeError(f"not a RoutingProgram: {type(program).__name__}")
    return _execute_compiled(program)


def simulate_all_pairs(
    rf: RoutingFunction,
    program: Optional[RoutingProgram] = None,
) -> SimulationResult:
    """Route all ``n * (n - 1)`` ordered pairs at once.

    Parameters
    ----------
    rf:
        A :class:`~repro.routing.model.RoutingFunction` — or a pre-compiled
        :class:`~repro.routing.program.RoutingProgram` directly (a generic
        program cannot be executed this way; pass the routing function and
        the program separately).
    program:
        A pre-compiled program for ``rf`` (e.g. from the sharded runner's
        program cache): the engine executes it instead of lowering the
        scheme again.  Without one, the routing function is lowered by
        :func:`~repro.routing.program.compile_or_interpret`: to the program
        kind it declares (``rf.program_kind()``), or to the generic
        interpreter when a header-state enumeration explodes.
    """
    if isinstance(rf, RoutingProgram):
        if program is not None:
            raise ValueError("pass the program either positionally or as program=, not both")
        program, rf = rf, None
    if program is None:
        if rf is None:
            raise ValueError("simulate_all_pairs needs a routing function or a program")
        program = compile_or_interpret(rf)
    return execute_program(program, rf=rf)


def simulated_routing_lengths(rf: RoutingFunction) -> np.ndarray:
    """The ``d_R(x, y)`` matrix of every ordered pair; raises if one is lost."""
    return simulate_all_pairs(rf).require_all_delivered()


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
