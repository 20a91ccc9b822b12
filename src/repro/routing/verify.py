"""Static verification of compiled routing programs.

A compiled :class:`~repro.routing.program.RoutingProgram` is a closed
functional object: its transition arrays fully determine the fate of every
ordered ``(source, destination)`` pair.  This module proves those fates
*without executing a single message* — the same way a compiler verifies its
IR instead of running it:

* a :class:`NextHopProgram` is, per destination column ``d``, a functional
  graph on nodes (``x -> next_node[x, d]``); every walk either reaches the
  (absorbing) destination, stops at a :data:`MISDELIVER` / :data:`DROPPED`
  sentinel, or enters a cycle;
* a :class:`HeaderStateProgram` is one functional graph on its interned
  ``(node, header)`` states, and every pair's fate is its initial state's.

Both reduce to the same question — *which terminal does each state's walk
reach, and in how many steps?* — answered by the pointer-doubling
resolution :func:`repro.routing.program.resolve_functional`: ``O(states)``
memory and ``O(states · log(path length))`` work, instead of an
``O(pairs · hops)`` simulation.  :func:`resolve_fates` turns it into a
closed-form :class:`VerificationReport` per program, and it is the only
fate computation of the compiled kinds: the executors
:func:`repro.sim.engine.execute_program` /
:func:`repro.sim.engine.execute_masked_program` are adapters over the
same report (the differential suites in ``tests/test_verify.py`` and
``tests/test_execution.py`` pin both against per-step reference loops).

Verdict codes are the ``PAIR_*`` outcome taxonomy of
:mod:`repro.sim.faults` (which aliases them), so a report's ``outcome``
matrix compares bit-for-bit against
:class:`~repro.sim.faults.FaultSimulationResult.outcome`.

Structural corruption (an out-of-range successor, a sentinel that does not
exist, a wrong shape) always raises :class:`ProgramVerificationError` with a
diagnostic naming the first offending entry.  *Semantic* oddities that the
executors handle deterministically — a non-absorbing destination, a
non-``-1`` initial diagonal — are collected as ``issues`` on the report and
only raise under ``strict=True`` (the cache integrity gate's mode).  A
program stores transitions only, so verification resolves each functional
graph exactly once.

Minimal example — prove a compiled program delivers every pair without
executing a single message:

>>> from repro.graphs.generators import path_graph
>>> from repro.routing.tables import ShortestPathTableScheme
>>> from repro.routing.verify import verify_program
>>> program = ShortestPathTableScheme().build(path_graph(5)).compile_program()
>>> report = verify_program(program)
>>> bool(report.all_delivered)
True
>>> int(report.max_finite_hops)
4
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.routing.program import (
    DROPPED,
    MISDELIVER,
    NO_ROUTE,
    GenericProgram,
    HeaderStateProgram,
    NextHopProgram,
    RoutingProgram,
    resolve_functional,
)

__all__ = [
    "VERDICT_DELIVERED",
    "VERDICT_DROPPED",
    "VERDICT_LIVELOCKED",
    "VERDICT_MISDELIVERED",
    "VERDICT_INFEASIBLE",
    "VERDICT_NAMES",
    "ProgramVerificationError",
    "VerificationReport",
    "resolve_fates",
    "verify_program",
    "verify_structure",
]

# ----------------------------------------------------------------------
# verdict codes
# ----------------------------------------------------------------------
# repro.sim.faults.PAIR_* aliases these: a verification report's outcome
# matrix and a fault simulation's outcome matrix are one classification.
VERDICT_DELIVERED = 0
VERDICT_DROPPED = 1
VERDICT_LIVELOCKED = 2
VERDICT_MISDELIVERED = 3
VERDICT_INFEASIBLE = 4

VERDICT_NAMES: Dict[int, str] = {
    VERDICT_DELIVERED: "delivered",
    VERDICT_DROPPED: "dropped",
    VERDICT_LIVELOCKED: "livelocked",
    VERDICT_MISDELIVERED: "misdelivered",
    VERDICT_INFEASIBLE: "infeasible",
}


class ProgramVerificationError(ValueError):
    """A compiled program failed static verification.

    Raised for structural corruption always, and for semantic issues (see
    :class:`VerificationReport.issues`) under ``strict=True``.  Subclasses
    :class:`ValueError` so cache-integrity callers can treat a corrupt
    artifact and an unparseable one uniformly.
    """


def _exact_max_ratio(lengths: np.ndarray, dists: np.ndarray) -> Fraction:
    """Exact maximum of ``lengths / dists`` as a :class:`Fraction`.

    The one stretch kernel of the verifier,
    :meth:`repro.sim.engine.SimulationResult.max_stretch` and
    :meth:`repro.sim.faults.FaultSimulationResult.max_stretch`: the float
    argmax is sharpened by re-comparing, as true rationals, every pair
    within one representable step of the float maximum.  Empty input
    returns ``1``.
    """
    if not lengths.size:
        return Fraction(1)
    ratios = lengths / dists
    best = float(ratios.max())
    near = ratios >= np.nextafter(best, 0.0)
    # Deduplicate the tied (length, dist) pairs before touching Fraction:
    # on a stretch-1 program *every* delivered pair ties at the maximum,
    # and a Python loop over n^2 pairs would dwarf the verification
    # itself.  Distinct pairs are bounded by the distinct (length, dist)
    # combinations — a handful on any regular family.
    packed = lengths[near] * (int(dists.max()) + 1) + dists[near]
    worst = Fraction(0)
    base = int(dists.max()) + 1
    for key in np.unique(packed):
        s = Fraction(int(key) // base, int(key) % base)
        if s > worst:
            worst = s
    return worst if worst > 0 else Fraction(1)


@dataclass(frozen=True)
class VerificationReport:
    """Closed-form classification of every ordered pair of a program.

    Attributes
    ----------
    kind:
        The verified program's kind (``"next-hop"`` or ``"header-state"``).
    n:
        Number of vertices.
    num_states:
        Size of the analyzed functional graph: ``n * n`` flat
        (destination, node) states for a next-hop program, the interned
        state count for a header-state program.
    masked:
        Whether the program carries :data:`DROPPED` sentinels (i.e. is a
        fault-masked view, see :func:`repro.sim.faults.apply_faults`).
    outcome:
        ``(n, n)`` int8 matrix of verdict codes: ``outcome[x, y]`` is the
        proven fate of the message ``x -> y``.  The diagonal — and, when an
        ``alive`` mask was supplied, every pair with a dead endpoint — is
        :data:`VERDICT_INFEASIBLE`, matching the fault taxonomy.
    hops:
        ``(n, n)`` int64 matrix of exact hop counts: the full route length
        for delivered pairs and the walked prefix for misdelivered/dropped
        pairs (the masked executor's ``lengths`` convention);
        :data:`NO_ROUTE` for livelocked and infeasible pairs; ``0`` on the
        alive diagonal.
    state_hops:
        Flat per-state hop counts of the analyzed functional graph, straight
        from the resolver: transitions until the state's walk stops
        (``0`` at a stopping state), :data:`NO_ROUTE` where it cycles.
        States are destination-major ``d * n + c`` for a next-hop program
        and the interned state ids for a header-state program.  Unlike
        ``hops`` it ignores ``alive`` (it describes states, not pairs); the
        flow accumulator layers its subtree sums by it.
    issues:
        Semantic oddities found by well-formedness analysis (empty on a
        healthy artifact); see :func:`verify_structure`.
    max_stretch / mean_stretch:
        Exact worst and average stretch of the delivered off-diagonal
        pairs, populated when a distance matrix was supplied to
        :func:`verify_program` (``None`` otherwise).
    """

    kind: str
    n: int
    num_states: int
    masked: bool
    outcome: np.ndarray
    hops: np.ndarray
    state_hops: np.ndarray
    issues: Tuple[str, ...] = ()
    max_stretch: Optional[Fraction] = None
    mean_stretch: Optional[float] = None

    # ------------------------------------------------------------------
    @property
    def ok(self) -> bool:
        """No semantic issues and no lost pair (livelock or misdelivery)."""
        counts = self.counts()
        return (
            not self.issues
            and counts["livelocked"] == 0
            and counts["misdelivered"] == 0
        )

    @property
    def all_delivered(self) -> bool:
        """Whether every feasible (off-diagonal, alive) pair is delivered."""
        feasible = self.outcome != VERDICT_INFEASIBLE
        return bool((self.outcome[feasible] == VERDICT_DELIVERED).all())

    @property
    def max_finite_hops(self) -> int:
        """Largest exact hop count of any feasible pair (0 when none)."""
        finite = self.hops[self.outcome != VERDICT_INFEASIBLE]
        finite = finite[finite >= 0]
        return int(finite.max()) if finite.size else 0

    def counts(self) -> Dict[str, int]:
        """Pair tally per verdict name (diagonal included under infeasible)."""
        return {
            name: int((self.outcome == code).sum())
            for code, name in VERDICT_NAMES.items()
        }

    def _pairs(self, code: int) -> List[Tuple[int, int]]:
        xs, ys = np.nonzero(self.outcome == code)
        return [(int(x), int(y)) for x, y in zip(xs, ys)]

    def delivered_pairs(self) -> List[Tuple[int, int]]:
        """Ordered pairs proven to deliver, sorted."""
        return self._pairs(VERDICT_DELIVERED)

    def livelocked_pairs(self) -> List[Tuple[int, int]]:
        """Ordered pairs proven to forward forever, sorted."""
        return self._pairs(VERDICT_LIVELOCKED)

    def misdelivered_pairs(self) -> List[Tuple[int, int]]:
        """Ordered pairs proven to deliver at the wrong node, sorted."""
        return self._pairs(VERDICT_MISDELIVERED)

    def dropped_pairs(self) -> List[Tuple[int, int]]:
        """Ordered pairs proven to die at a masked transition, sorted."""
        return self._pairs(VERDICT_DROPPED)

    def require_all_delivered(self) -> np.ndarray:
        """Length matrix of a fully-delivering program, raising otherwise.

        The static analogue of
        :meth:`repro.sim.engine.SimulationResult.require_all_delivered`:
        returns an ``(n, n)`` int64 matrix with exact route lengths, ``0``
        on the diagonal and :data:`NO_ROUTE` on infeasible pairs.
        """
        if not self.all_delivered:
            counts = self.counts()
            xs, ys = np.nonzero(
                (self.outcome != VERDICT_DELIVERED)
                & (self.outcome != VERDICT_INFEASIBLE)
            )
            raise ProgramVerificationError(
                f"not every pair is proven to deliver: "
                f"{counts['misdelivered']} misdelivered, "
                f"{counts['livelocked']} livelocked, "
                f"{counts['dropped']} dropped; first lost pair "
                f"{int(xs[0])} -> {int(ys[0])} "
                f"({VERDICT_NAMES[int(self.outcome[xs[0], ys[0]])]})"
            )
        lengths = self.hops.copy()
        lengths[np.arange(self.n), np.arange(self.n)] = np.where(
            self.hops.diagonal() >= 0, 0, NO_ROUTE
        )
        return lengths

    def stretch(self, dist: np.ndarray) -> Tuple[Fraction, float]:
        """Exact (max, mean) stretch of the delivered off-diagonal pairs.

        ``dist`` is the true distance matrix of the routed graph.  Pairs
        not delivered (or at distance ``<= 0``, e.g. unreachable under
        faults) never enter a ratio.  Returns ``(Fraction(1), 1.0)`` when
        nothing qualifies.
        """
        mask = (self.outcome == VERDICT_DELIVERED) & (dist > 0)
        np.fill_diagonal(mask, False)
        if not mask.any():
            return Fraction(1), 1.0
        lengths = self.hops[mask].astype(np.int64)
        dists = dist[mask].astype(np.int64)
        return _exact_max_ratio(lengths, dists), float((lengths / dists).mean())


# ----------------------------------------------------------------------
# well-formedness
# ----------------------------------------------------------------------
def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ProgramVerificationError(message)


def _check_next_hop_ranges(program: NextHopProgram) -> None:
    nn = program.next_node
    _require(
        nn.ndim == 2 and nn.shape[0] == nn.shape[1],
        f"next_node must be a square (n, n) matrix, got shape {nn.shape}",
    )
    _require(
        np.issubdtype(nn.dtype, np.signedinteger),
        f"next_node dtype must be a signed integer (sentinels are negative), "
        f"got {nn.dtype}",
    )
    n = nn.shape[0]
    bad = ((nn < 0) & (nn != MISDELIVER) & (nn != DROPPED)) | (nn >= n)
    if bad.any():
        xs, ys = np.nonzero(bad)
        c, d = int(xs[0]), int(ys[0])
        raise ProgramVerificationError(
            f"next_node contains {int(bad.sum())} out-of-range entries: first "
            f"at (node {c}, dest {d}) value {int(nn[c, d])}; valid entries "
            f"are node ids 0..{n - 1}, MISDELIVER ({MISDELIVER}) and "
            f"DROPPED ({DROPPED})"
        )


def _next_hop_issues(program: NextHopProgram) -> List[str]:
    nn = program.next_node
    n = nn.shape[0]
    issues: List[str] = []
    diag = nn.diagonal()
    non_absorbing = np.nonzero(diag != np.arange(n))[0]
    if non_absorbing.size:
        d = int(non_absorbing[0])
        issues.append(
            f"{non_absorbing.size} destination(s) are not absorbing "
            f"(first: next_node[{d}, {d}] = {int(diag[d])}, expected {d}); "
            f"messages pass through such destinations without delivering"
        )
    return issues


def _check_header_state_ranges(program: HeaderStateProgram) -> None:
    succ, deliver = program.succ, program.deliver
    node_of, initial = program.node_of, program.initial
    _require(
        succ.ndim == 1
        and deliver.shape == succ.shape
        and node_of.shape == succ.shape,
        f"state arrays must be 1-D and equally sized, got succ {succ.shape}, "
        f"deliver {deliver.shape}, node_of {node_of.shape}",
    )
    _require(
        initial.ndim == 2 and initial.shape[0] == initial.shape[1],
        f"initial must be a square (n, n) matrix, got shape {initial.shape}",
    )
    _require(
        np.issubdtype(succ.dtype, np.signedinteger),
        f"succ dtype must be a signed integer (sentinels are negative), "
        f"got {succ.dtype}",
    )
    num_states = succ.shape[0]
    n = initial.shape[0]
    bad = ((succ < 0) & (succ != DROPPED)) | (succ >= num_states)
    if bad.any():
        s = int(np.nonzero(bad)[0][0])
        raise ProgramVerificationError(
            f"succ contains {int(bad.sum())} out-of-range state ids: first at "
            f"state {s} value {int(succ[s])}; valid entries are state ids "
            f"0..{num_states - 1} and DROPPED ({DROPPED})"
        )
    bad = (node_of < 0) | (node_of >= n)
    if bad.any():
        s = int(np.nonzero(bad)[0][0])
        raise ProgramVerificationError(
            f"node_of contains {int(bad.sum())} out-of-range node ids: first "
            f"at state {s} value {int(node_of[s])}; valid node ids are "
            f"0..{n - 1}"
        )
    off = ~np.eye(n, dtype=bool)
    bad = (initial < 0) | (initial >= num_states)
    bad &= off
    if bad.any():
        xs, ys = np.nonzero(bad)
        x, y = int(xs[0]), int(ys[0])
        raise ProgramVerificationError(
            f"initial contains {int(bad.sum())} out-of-range off-diagonal "
            f"state ids: first at initial[{x}, {y}] value "
            f"{int(initial[x, y])}; valid state ids are 0..{num_states - 1}"
        )


def _header_state_issues(program: HeaderStateProgram) -> List[str]:
    initial = program.initial
    issues: List[str] = []
    diag_bad = np.nonzero(initial.diagonal() != NO_ROUTE)[0]
    if diag_bad.size:
        d = int(diag_bad[0])
        issues.append(
            f"initial diagonal should be {NO_ROUTE} (no self-message) at "
            f"{diag_bad.size} vertice(s), first: initial[{d}, {d}] = "
            f"{int(initial[d, d])}"
        )
    return issues


def _check_ranges(program: RoutingProgram) -> None:
    """Raise :class:`ProgramVerificationError` on structural corruption."""
    if isinstance(program, NextHopProgram):
        _check_next_hop_ranges(program)
    elif isinstance(program, HeaderStateProgram):
        _check_header_state_ranges(program)
    elif isinstance(program, GenericProgram):
        raise ProgramVerificationError(
            f"generic program over {program.n} vertices is interpreted, not "
            f"compiled; static verification needs a next-hop or header-state "
            f"artifact"
        )
    else:
        raise ProgramVerificationError(
            f"unknown program kind {program.kind!r}: cannot verify"
        )


def _semantic_issues(program: RoutingProgram) -> List[str]:
    if isinstance(program, NextHopProgram):
        return _next_hop_issues(program)
    assert isinstance(program, HeaderStateProgram)
    return _header_state_issues(program)


def verify_structure(program: RoutingProgram) -> List[str]:
    """Well-formedness analysis of a compiled program's arrays.

    Raises :class:`ProgramVerificationError` on structural corruption (wrong
    shape, unsigned dtype, out-of-range successor / node / initial-state
    entries — including a stray ``-1``, which is never a valid transition).
    Returns the list of *semantic* issues: conditions the executors handle
    deterministically but that no healthy compile produces (non-absorbing
    destinations, a non-``-1`` initial diagonal).
    """
    _check_ranges(program)
    return _semantic_issues(program)


# ----------------------------------------------------------------------
# functional-graph resolution
# ----------------------------------------------------------------------
def _mark_infeasible(
    outcome: np.ndarray, hops: np.ndarray, n: int, alive: Optional[np.ndarray]
) -> None:
    """Apply the diagonal / dead-endpoint conventions of the fault taxonomy."""
    if alive is not None:
        dead = ~alive
        outcome[dead, :] = VERDICT_INFEASIBLE
        outcome[:, dead] = VERDICT_INFEASIBLE
        hops[dead, :] = NO_ROUTE
        hops[:, dead] = NO_ROUTE
    diag = np.arange(n)
    outcome[diag, diag] = VERDICT_INFEASIBLE
    hops[diag, diag] = 0 if alive is None else np.where(alive, 0, NO_ROUTE)


def _resolve_next_hop(
    program: NextHopProgram, alive: Optional[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    n = program.n
    nn = program.next_node
    if n < 2:
        masked = bool((nn == DROPPED).any())
        outcome = np.full((n, n), VERDICT_INFEASIBLE, dtype=np.int8)
        hops = np.zeros((n, n), dtype=np.int64)
        _mark_infeasible(outcome, hops, n, alive)
        return outcome, hops, np.zeros(n * n, dtype=np.int64), masked
    # Flat destination-major state space: state d*n + c is "the message is
    # at node c, destined to d", which keeps every walk inside its own
    # destination column (one cache-resident 4·n-byte block per column).
    # Widen BEFORE adding column offsets: the stored dtype is domain-sized
    # and would overflow at d*n.  int32 ids (n² permitting) halve the
    # gather traffic of the resolution loop.
    idx_dtype = np.int32 if n * n <= 2**30 else np.int64
    nt = nn.T.astype(idx_dtype, order="C")  # one fused strided cast
    is_mis = nt == MISDELIVER
    is_drop = nt == DROPPED
    masked = bool(is_drop.any())
    diag = np.arange(n)
    absorbing = nn[diag, diag] == diag
    # Terminal flat states:
    # * (d, d) with absorbing d — the arrival hop was already counted, so
    #   the terminal contributes 0 further steps (delivered = walk length);
    # * any (d, c) whose successor is a sentinel — the message stops AT c
    #   before taking the hop (misdeliver/drop = walked prefix length).
    # A non-absorbing (d, d) is NOT terminal: messages pass through it.
    terminal = is_mis | is_drop
    terminal[diag, diag] |= absorbing
    nt += (diag.astype(idx_dtype) * idx_dtype(n))[:, None]
    term = terminal.ravel()
    target, hops_flat = resolve_functional(nt.ravel(), term, limit=n)
    # Classify each terminal once, then read every pair's verdict off its
    # walk's target: an unresolved walk's target is some non-terminal
    # state, whose class is the LIVELOCKED default — so one gather covers
    # the proven livelocks too.
    term_class = np.full(n * n, VERDICT_LIVELOCKED, dtype=np.int8)
    term_class[np.flatnonzero(is_mis)] = VERDICT_MISDELIVERED
    term_class[np.flatnonzero(is_drop)] = VERDICT_DROPPED
    dd = diag[absorbing]
    term_class[dd * n + dd] = VERDICT_DELIVERED
    outcome_flat = np.take(term_class, target)
    # Flat layout is (dest, source); reports are (source, dest).  Hops are
    # widened to the report's int64 contract in the same transposing copy.
    outcome = np.ascontiguousarray(outcome_flat.reshape(n, n).T)
    hops = hops_flat.reshape(n, n).T.astype(np.int64, order="C")
    _mark_infeasible(outcome, hops, n, alive)
    return outcome, hops, hops_flat, masked


def _resolve_header_state(
    program: HeaderStateProgram, alive: Optional[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    n = program.n
    succ, deliver, node_of = program.succ, program.deliver, program.node_of
    is_drop = succ == DROPPED
    masked = bool(is_drop.any())
    if n < 2 or not succ.size:
        outcome = np.full((n, n), VERDICT_INFEASIBLE, dtype=np.int8)
        hops = np.zeros((n, n), dtype=np.int64)
        _mark_infeasible(outcome, hops, n, alive)
        return outcome, hops, np.zeros(succ.size, dtype=np.int64), masked
    # A delivering state stops the walk first (delivery wins over a masked
    # successor), and a DROPPED successor stops it AT the current state —
    # both before the would-be hop, so every stop kind's length is the
    # walked prefix.
    deliver = np.asarray(deliver, dtype=bool)
    target, state_hops = resolve_functional(succ, deliver | is_drop)
    start = program.initial.astype(np.intp)
    np.fill_diagonal(start, 0)  # no self-message; overwritten below
    t = target[start]
    res = state_hops[start] >= 0
    at_dest = node_of[t] == np.arange(n)[None, :]
    outcome = np.where(
        res,
        np.where(
            deliver[t],
            np.where(
                at_dest,
                np.int8(VERDICT_DELIVERED),
                np.int8(VERDICT_MISDELIVERED),
            ),
            np.int8(VERDICT_DROPPED),
        ),
        np.int8(VERDICT_LIVELOCKED),
    ).astype(np.int8)
    hops = state_hops[start].astype(np.int64)
    _mark_infeasible(outcome, hops, n, alive)
    return outcome, hops, state_hops, masked


def resolve_fates(
    program: RoutingProgram, alive: Optional[np.ndarray] = None
) -> VerificationReport:
    """The exact fate and hop count of every ordered pair of a compiled program.

    The single answer to *"what happens to every pair?"*: the executors
    (:func:`repro.sim.engine.execute_program`,
    :func:`repro.sim.engine.execute_masked_program`) and
    :func:`verify_program` are adapters over it.  Structural corruption
    raises :class:`ProgramVerificationError` (the range checks of
    :func:`verify_structure`), so a corrupt artifact can never be
    mistaken for a routing outcome; semantic issues are not scanned
    (``issues`` is empty).  ``alive`` marks dead-endpoint pairs
    :data:`VERDICT_INFEASIBLE`.
    """
    _check_ranges(program)
    n = program.n
    if alive is not None:
        alive = np.asarray(alive, dtype=bool)
        if alive.shape != (n,):
            raise ProgramVerificationError(
                f"alive mask has shape {alive.shape}, expected ({n},)"
            )
    if isinstance(program, NextHopProgram):
        outcome, hops, state_hops, masked = _resolve_next_hop(program, alive)
        num_states = n * n
    else:
        assert isinstance(program, HeaderStateProgram)
        outcome, hops, state_hops, masked = _resolve_header_state(program, alive)
        num_states = program.num_states
    return VerificationReport(
        kind=program.kind,
        n=n,
        num_states=num_states,
        masked=masked,
        outcome=outcome,
        hops=hops,
        state_hops=state_hops,
    )


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def verify_program(
    program: RoutingProgram,
    *,
    dist: Optional[np.ndarray] = None,
    alive: Optional[np.ndarray] = None,
    strict: bool = False,
) -> VerificationReport:
    """Statically verify a compiled routing program.

    Proves the exact fate (verdict + hop count) of every ordered pair by
    functional-graph analysis (:func:`resolve_fates`) — no message is ever
    executed — and adds the semantic-issue scan of
    :func:`verify_structure`.  ``dist`` (the true distance matrix)
    additionally populates the report's exact max/mean stretch; ``alive``
    (a boolean vertex mask, the fault model's survivor set) marks
    dead-endpoint pairs :data:`VERDICT_INFEASIBLE` exactly like
    :func:`repro.sim.faults.simulate_with_faults`.

    Structural corruption always raises :class:`ProgramVerificationError`;
    with ``strict=True`` the semantic issues raise too instead of being
    returned on the report.  Generic programs are not statically
    verifiable and always raise.
    """
    report = resolve_fates(program, alive)
    issues = _semantic_issues(program)
    if strict and issues:
        raise ProgramVerificationError(
            f"program failed strict verification with {len(issues)} "
            f"issue(s): " + "; ".join(issues)
        )
    report = replace(report, issues=tuple(issues))
    if dist is not None:
        max_stretch, mean_stretch = report.stretch(np.asarray(dist))
        report = replace(
            report, max_stretch=max_stretch, mean_stretch=mean_stretch
        )
    return report
