"""Batched routing simulation: a thin executor over compiled routing programs.

The legacy simulator (:func:`repro.routing.paths.route`) forwards one message
at a time through Python-level ``P``/``H`` calls, which makes all-pairs
measurements quadratic in *interpreted* work.  This module routes **all
ordered pairs at once** by executing the compiled-program IR of
:mod:`repro.routing.program`: every routing function lowers itself
(``rf.compile_program()``, dispatched on the class-owned
``rf.program_kind()``) to one of three artifact kinds, and the engine keeps
exactly one vectorised step function per kind:

* :class:`~repro.routing.program.NextHopProgram` (mode ``"compiled"``) —
  header-constant schemes become a ``next_node[x, dest]`` matrix; every
  in-flight message advances one hop per step as a pure numpy gather.
  Livelock detection is exact: the walk towards a fixed destination lives
  in a functional graph, so ``n`` steps suffice.
* :class:`~repro.routing.program.HeaderStateProgram` (mode
  ``"header-compiled"``) — finite-header *rewriting* schemes become
  interned ``(node, header)`` state-transition arrays; the exact
  ``hops_to_deliver`` reverse-BFS bound makes livelock detection exact here
  too.
* :class:`~repro.routing.program.GenericProgram` (mode ``"generic"``) — the
  explicit opt-out: a batched per-message interpreter that still advances
  every in-flight message one hop per step but evaluates ``P``/``H`` per
  message, matching :func:`repro.routing.paths.route` decision for
  decision.  It survives as the differential oracle for both compiled
  kinds.

:func:`simulate_all_pairs` accepts either a live routing function (lowered
on the fly, or executed against a pre-compiled ``program=`` artifact) or a
:class:`~repro.routing.program.RoutingProgram` directly — the form the
sharded runner ships across worker processes as cached bytes.

Misdelivery (``P`` returning :data:`~repro.routing.model.DELIVER` at the
wrong node) is recorded per pair — distinctly from livelocks — in
:attr:`SimulationResult.misdelivered` on every path rather than raised, so
conformance layers can report *which* pairs a broken scheme loses and *how*;
:meth:`SimulationResult.require_all_delivered` restores the legacy
fail-fast behaviour.

Both compiled kinds execute through **frontier-compacted** step kernels:
every in-flight message is a single flat ``uint32`` code (``pair = src * n
+ dst`` plus its current location ``cur * n + dst`` / interned state id),
retired messages land in append-only buffers instead of per-hop ``(n, n)``
boolean scatters, the dense result matrices are reconstructed once at
exit, and the frontier is periodically re-sorted by current location for
gather locality — per-hop work is proportional to the *surviving*
frontier, not to ``n (n - 1)``.  The historical dense kernels survive as
``_execute_*_dense`` (selectable via ``REPRO_SIM_KERNEL=dense``) and are
the differential reference the compact kernels are pinned against; when
:mod:`numba` is importable an ``@njit`` per-pair walk takes over the
next-hop path (``REPRO_PURE_NUMPY=1`` opts out).  All kernels produce
byte-identical :class:`SimulationResult`\\ s.

Program-kind eligibility is declared by the routing classes themselves
(``rf.program_kind()`` / the ``can_vectorize`` class attribute) — the
engine never sniffs capabilities.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, List, Optional, Sequence, Tuple

import numpy as np

import repro.sim._kernels as _kernels

from repro.graphs.digraph import PortLabeledGraph
from repro.graphs.shortest_paths import UNREACHABLE, distance_matrix
from repro.routing.model import DELIVER, RoutingFunction
from repro.routing.program import (
    DROPPED,
    KIND_GENERIC,
    KIND_HEADER_STATE,
    KIND_NEXT_HOP,
    MISDELIVER,
    NO_ROUTE,
    GenericProgram,
    HeaderStateExplosionError,
    HeaderStateProgram,
    NextHopProgram,
    RoutingProgram,
    lower_header_state,
    lower_next_hop,
)
from repro.routing.verify import _exact_max_ratio

__all__ = [
    "MISDELIVER",
    "HeaderProgram",
    "HeaderStateExplosionError",
    "MaskedExecution",
    "SimulationResult",
    "compile_next_hop",
    "execute_masked_program",
    "execute_program",
    "kernel_working_set",
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

#: Backward-compatible name of the header-state artifact (PR 3 vintage).
HeaderProgram = HeaderStateProgram


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
        Number of synchronous steps the simulation ran for (the longest
        delivered route, or the hop budget if something livelocked).
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

        Mirrors :func:`repro.routing.paths.all_pairs_routing_lengths`, which
        raises on the first misdelivered pair.
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

        ``dist`` is the distance matrix (computed from ``graph`` when
        omitted — grid drivers should always pass their cached matrix, see
        :func:`repro.analysis.runner.cached_distance_matrix`, so sweeps
        never recompute distances per cell).  Raises :class:`ValueError`
        when a pair is undelivered: lost pairs carry the ``-1`` length
        sentinel, which must never leak into a ratio or be silently skipped
        — callers wanting the legacy fail-fast matrix should go through
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


def compile_next_hop(rf: RoutingFunction) -> np.ndarray:
    """The next-hop matrix of ``rf`` (the payload of its compiled program).

    Thin wrapper over :func:`repro.routing.program.lower_next_hop`, kept
    because the raw matrix is a convenient object for tests and analyses.
    """
    return lower_next_hop(rf).next_node


# ----------------------------------------------------------------------
# executors: one vectorised step function per program kind
# ----------------------------------------------------------------------
#: Environment switch between the kernel implementations: ``auto`` (the
#: default — numba when importable, else the compact numpy kernels),
#: ``compact``, ``dense`` (the historical reference kernels) or ``numba``
#: (loudly refuse to run when numba is missing).
KERNEL_ENV = "REPRO_SIM_KERNEL"
_KERNEL_CHOICES = ("auto", "compact", "dense", "numba")

#: Steps between locality sorts of the compact *header-state* frontier,
#: and the frontier size below which sorting is skipped (small frontiers
#: are cache-resident anyway).  Only the header-state kernels re-sort:
#: their gather key (the automaton state) drifts as messages advance.  The
#: next-hop kernels never need to — their gather key is destination-major
#: by construction (:func:`_dst_major`) and destinations are immutable, so
#: compaction preserves the order.  The period is deliberately long:
#: measured on the n=4096 hypercube pin, one ``argsort`` + permutation of
#: a full 16.7M-message frontier costs ~20x what it saves per subsequent
#: gather (random int16 gathers from a 33MB table run at ~2x a sorted
#: gather, but the sort itself is ~2s), so sorting only pays on long walks
#: whose frontier stays large — exactly the regime a period of 32 targets.
_SORT_PERIOD = 32
_SORT_MIN_FRONTIER = 1 << 16


def _kernel_choice() -> str:
    choice = os.environ.get(KERNEL_ENV, "auto")
    if choice not in _KERNEL_CHOICES:
        raise ValueError(
            f"{KERNEL_ENV}={choice!r} is not one of {_KERNEL_CHOICES}"
        )
    if choice == "numba" and not _kernels.HAVE_NUMBA:
        raise ValueError(
            f"{KERNEL_ENV}=numba but numba is not importable "
            f"(or {_kernels.PURE_NUMPY_ENV} is set)"
        )
    return choice


def _offdiag_mask(n: int) -> np.ndarray:
    """The off-diagonal boolean mask, allocated **once** per executor call.

    Replaces the historical per-expression ``~np.eye(n, dtype=bool)``
    allocations (each of which built an eye *and* its negation).
    """
    mask = np.ones((n, n), dtype=bool)
    np.fill_diagonal(mask, False)
    return mask


def _pair_dtype(n: int) -> np.dtype:
    """Dtype of the flat pair/location codes ``a * n + b`` (``a, b < n``).

    Signed, because the next-hop location table reuses the code space's
    negative range for retirement sentinels (:data:`_HOME` and the
    program's own ``MISDELIVER`` / ``DROPPED``).
    """
    # Pair codes are n*n-sized, not domain-sized: transition_dtype's
    # int16 floor cannot hold them, so this ladder is deliberate.
    return (
        np.dtype(np.int32)  # repro-lint: allow-dtype
        if n * n - 1 <= np.iinfo(np.int32).max  # repro-lint: allow-dtype
        else np.dtype(np.int64)
    )


def _pair_codes(n: int, pdt: np.dtype) -> np.ndarray:
    """Flat codes ``src * n + dst`` of every ordered off-diagonal pair."""
    codes = np.arange(n * n, dtype=pdt)
    return codes[_offdiag_mask(n).ravel()]


def _alive_pair_codes(n: int, alive: np.ndarray, pdt: np.dtype) -> np.ndarray:
    """Flat codes of the ordered off-diagonal pairs with both endpoints alive.

    Cached per ``(n, alive)``: a resilience or churn cell executes many
    masked programs of one (graph, scheme) pair back to back — every
    scenario of the cell, every delta of a churn chain — and the alive
    universe repeats, so the O(n^2) mask build is paid once per distinct
    mask instead of once per execution (see :data:`_MASKED_FRONTIER_CACHE`).
    """
    key = (n, alive.tobytes())
    cached = _ALIVE_CODES_CACHE.get(key)
    if cached is not None:
        return cached
    keep = _offdiag_mask(n)
    keep &= alive[:, None]
    keep &= alive[None, :]
    codes = np.arange(n * n, dtype=pdt)[keep.ravel()]
    codes.flags.writeable = False
    if len(_ALIVE_CODES_CACHE) >= _MASKED_CACHE_LIMIT:
        _ALIVE_CODES_CACHE.clear()
    _ALIVE_CODES_CACHE[key] = codes
    return codes


#: Location-table sentinel for "next hop delivers": the cell's next hop is
#: the pair's absorbing destination.  Distinct from MISDELIVER (-2) and
#: DROPPED (-3), which the table passes through from the program.
_HOME = -1


def _dst_major_frontier(
    n: int, pdt: np.dtype, alive: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Initial ``(pair, loc)`` arrays of the next-hop kernels, destination-major.

    ``pair = src * n + dst`` is the message's immutable identity;
    ``loc = dst * n + src`` is its starting index into the location table
    of :func:`_loc_table` (``cur == src`` initially).  Both come straight
    out of one symmetric boolean mask — the mask admits ``(a, b)`` iff it
    admits ``(b, a)``, so indexing the code matrix and its transpose with
    the *same* mask yields elementwise-corresponding ``dst * n + src`` and
    ``src * n + dst`` codes, enumerated destination-major.  No sort.

    Destination-major order is what makes the per-step gather fast: a
    contiguous frontier block reads one n-entry row of the table
    (cache-resident) instead of probing the whole table at random, a
    message's destination never changes, and compaction preserves the
    order — so the locality holds for the entire walk with no per-step
    re-sort (see ``_SORT_PERIOD`` for the header-state kernels, whose
    gather key does drift).
    """
    if alive is not None and alive.all():
        # An all-alive mask *is* the full frontier; routing it through the
        # alive=None path keeps masked sweeps over fault-free topologies
        # (the edge-fault common case — apply_faults marks edges in the
        # program, not the mask) on the cached arrays.
        alive = None
    if alive is None and n in _FRONTIER_CACHE:
        return _FRONTIER_CACHE[n]
    if alive is not None:
        key = (n, alive.tobytes())
        cached = _MASKED_FRONTIER_CACHE.get(key)
        if cached is not None:
            return cached
    mask = _offdiag_mask(n)
    if alive is not None:
        mask &= alive[:, None]
        mask &= alive[None, :]
    codes = np.arange(n * n, dtype=pdt).reshape(n, n)
    pair = np.ascontiguousarray(codes.T)[mask]
    loc = codes[mask]
    # Frontier arrays are deterministic per (n, alive) and the kernels
    # never mutate them in place (compaction allocates), so they are safe
    # to share read-only across executions.
    pair.flags.writeable = False
    loc.flags.writeable = False
    if alive is None:
        _FRONTIER_CACHE.clear()
        _FRONTIER_CACHE[n] = (pair, loc)
    else:
        if len(_MASKED_FRONTIER_CACHE) >= _MASKED_CACHE_LIMIT:
            _MASKED_FRONTIER_CACHE.clear()
        _MASKED_FRONTIER_CACHE[key] = (pair, loc)
    return pair, loc


#: Single-entry cache of the full (alive=None) destination-major frontier:
#: sweeps execute many programs of one size back to back.
_FRONTIER_CACHE: dict = {}

#: Keyed caches of *masked* frontiers and alive pair codes: the resilience
#: and churn cells execute the same ``(n, alive)`` universe for every
#: scenario / delta of a (graph, scheme) cell, so the compacted frontier is
#: rebuilt once per distinct mask rather than once per execution.  Bounded
#: (cleared wholesale at the cap) — masks are small but sweeps can visit
#: many of them.
_MASKED_FRONTIER_CACHE: dict = {}
_ALIVE_CODES_CACHE: dict = {}
_MASKED_CACHE_LIMIT = 8


def _loc_table(next_node: np.ndarray, absorbing: np.ndarray, pdt: np.dtype) -> np.ndarray:
    """Location-transition table: ``tbl[dst * n + cur] = dst * n + next_node[cur, dst]``.

    One gather maps a message's location code straight to its next
    location code, so the hot loop is a single table lookup per message
    per step — no per-step modulo, widening cast, or index arithmetic.
    Cells that retire the message hold a negative verdict instead:
    :data:`_HOME` when the hop lands on the pair's absorbing destination
    (the ``absorbing`` home test is folded in at build time), or the
    program's own ``MISDELIVER`` / ``DROPPED`` sentinels passed through.
    A destination that routes to itself without being absorbing keeps its
    plain self-loop code — the message parks there until the budget runs
    out, exactly the dense kernel's livelock behaviour.
    """
    n = next_node.shape[0]
    nt = next_node.T
    home = nt == np.arange(n, dtype=next_node.dtype)[:, None]
    home &= absorbing[:, None]
    mis = nt == MISDELIVER
    drop = nt == DROPPED
    tbl = nt.astype(pdt)
    tbl += (np.arange(n, dtype=pdt) * pdt.type(n))[:, None]
    tbl[home] = _HOME
    tbl[mis] = MISDELIVER
    tbl[drop] = DROPPED
    return tbl.ravel()


def _scatter_retired(
    matrices: Sequence[Tuple[np.ndarray, List[Tuple[np.ndarray, Optional[int]]]]],
    lengths: np.ndarray,
) -> None:
    """Replay append-only retire buffers into the dense result matrices.

    ``matrices`` pairs each flat outcome matrix (raveled view) with its
    list of ``(pair codes, hop count)`` retirements; ``lengths`` is the
    raveled length matrix (``None`` hop counts skip the length write).
    """
    for flat_matrix, entries in matrices:
        for codes, hops in entries:
            flat_matrix[codes] = True
            if lengths is not None and hops is not None:
                lengths[codes] = hops


def _execute_next_hop_dense(
    program: NextHopProgram, max_hops: Optional[int]
) -> SimulationResult:
    """Historical dense next-hop kernel, kept as the differential reference."""
    n = program.n
    lengths = np.zeros((n, n), dtype=np.int64)
    delivered = np.eye(n, dtype=bool)
    misdelivered = np.zeros((n, n), dtype=bool)
    if n < 2:
        return SimulationResult(lengths, delivered, misdelivered, steps=0, mode="compiled")
    next_node = program.next_node
    # Header-constant routing is a functional-graph walk per destination: a
    # message not home after n hops has revisited a node and cycles forever.
    budget = n if max_hops is None else max_hops
    # absorbing[d] is False for a broken scheme that forwards past its own
    # destination instead of delivering; such messages pass through.
    absorbing = next_node[np.arange(n), np.arange(n)] == np.arange(n)

    src, dst = np.nonzero(_offdiag_mask(n))
    cur = src.copy()
    steps = 0
    while cur.size and steps < budget:
        steps += 1
        cur = next_node[cur, dst]
        lost = cur == MISDELIVER
        if lost.any():
            misdelivered[src[lost], dst[lost]] = True
            keep = ~lost
            src, dst, cur = src[keep], dst[keep], cur[keep]
        lengths[src, dst] += 1
        home = (cur == dst) & absorbing[dst]
        if home.any():
            delivered[src[home], dst[home]] = True
            keep = ~home
            src, dst, cur = src[keep], dst[keep], cur[keep]
    lengths[~delivered] = NO_ROUTE
    return SimulationResult(lengths, delivered, misdelivered, steps=steps, mode="compiled")


def _execute_next_hop_compact(
    program: NextHopProgram, max_hops: Optional[int]
) -> SimulationResult:
    """Frontier-compacted next-hop kernel (the default numpy path).

    Every in-flight message is two flat codes: ``pair = src * n + dst``
    (immutable identity) and ``loc = dst * n + cur`` (its index into the
    location-transition table of :func:`_loc_table`).  The hot loop is a
    single gather — ``tbl[loc]`` *is* the next location code, with
    negative codes meaning the message retires this step — over a
    destination-major frontier whose gather locality compaction preserves
    (see :func:`_dst_major_frontier`).  Retired messages are appended to
    per-step buffers; the dense result matrices are reconstructed once at
    exit.  Observable behaviour is identical to
    :func:`_execute_next_hop_dense` — the differential suite pins it.
    """
    n = program.n
    if n < 2:
        return SimulationResult(
            np.zeros((n, n), dtype=np.int64),
            np.eye(n, dtype=bool),
            np.zeros((n, n), dtype=bool),
            steps=0,
            mode="compiled",
        )
    # Undelivered pairs keep the -1 initialization; delivered is derived
    # from it at exit (one >= 0 compare), so neither a full-matrix
    # ``lengths[~delivered]`` pass nor a second scatter is needed.
    lengths = np.full((n, n), NO_ROUTE, dtype=np.int64)
    np.fill_diagonal(lengths, 0)
    misdelivered = np.zeros((n, n), dtype=bool)
    next_node = program.next_node
    budget = n if max_hops is None else max_hops
    diag = np.arange(n)
    absorbing = next_node[diag, diag] == diag
    # Per-call gate hoisted off the hot loop: a program with no sentinel
    # entry anywhere retires messages only by delivery, so the per-step
    # retire split collapses to one append.
    has_neg = bool((next_node == MISDELIVER).any() or (next_node == DROPPED).any())
    pdt = _pair_dtype(n)
    tbl = _loc_table(next_node, absorbing, pdt)
    pair, loc = _dst_major_frontier(n, pdt)
    delivered_runs: List[Tuple[np.ndarray, int]] = []
    mis_runs: List[Tuple[np.ndarray, Optional[int]]] = []
    steps = 0
    while pair.size and steps < budget:
        steps += 1
        nxt = tbl[loc]
        retire = nxt < 0
        if retire.any():
            if has_neg:
                delivered_runs.append((pair[nxt == _HOME], steps))
                mis_runs.append((pair[nxt == MISDELIVER], None))
                # A DROPPED cell reached outside masked execution retires
                # the pair unrecorded: not delivered, length -1.
            else:
                delivered_runs.append((pair[retire], steps))
            keep = ~retire
            pair, nxt = pair[keep], nxt[keep]
        loc = nxt
    flat_lengths = lengths.ravel()
    for codes, hops in delivered_runs:
        flat_lengths[codes] = hops
    _scatter_retired([(misdelivered.ravel(), mis_runs)], None)
    # Misdelivered and livelocked pairs kept -1, the diagonal kept 0.
    delivered = lengths >= 0
    return SimulationResult(lengths, delivered, misdelivered, steps=steps, mode="compiled")


def _execute_next_hop_numba(
    program: NextHopProgram, max_hops: Optional[int]
) -> SimulationResult:
    n = program.n
    if n < 2:
        return SimulationResult(
            np.zeros((n, n), dtype=np.int64),
            np.eye(n, dtype=bool),
            np.zeros((n, n), dtype=bool),
            steps=0,
            mode="compiled",
        )
    next_node = program.next_node
    diag = np.arange(n)
    absorbing = next_node[diag, diag] == diag
    budget = n if max_hops is None else max_hops
    lengths, delivered, misdelivered, steps = _kernels.next_hop_walk(
        next_node, absorbing, budget
    )
    return SimulationResult(lengths, delivered, misdelivered, steps=steps, mode="compiled")


def _execute_next_hop(
    program: NextHopProgram, max_hops: Optional[int]
) -> SimulationResult:
    choice = _kernel_choice()
    if choice == "dense":
        return _execute_next_hop_dense(program, max_hops)
    if choice in ("auto", "numba") and _kernels.HAVE_NUMBA:
        return _execute_next_hop_numba(program, max_hops)
    return _execute_next_hop_compact(program, max_hops)


def _execute_header_state_dense(
    program: HeaderStateProgram, max_hops: Optional[int]
) -> SimulationResult:
    """Historical dense header-state kernel, kept as the differential reference."""
    n = program.n
    lengths = np.zeros((n, n), dtype=np.int64)
    delivered = np.eye(n, dtype=bool)
    misdelivered = np.zeros((n, n), dtype=bool)
    if n < 2:
        return SimulationResult(
            lengths, delivered, misdelivered, steps=0, mode="header-compiled"
        )
    src, dst = np.nonzero(_offdiag_mask(n))
    cur = program.initial[src, dst]
    budget = _header_state_budget(program, cur, max_hops)
    steps = 0
    while cur.size and steps < budget:
        steps += 1
        stopping = program.deliver[cur]
        if stopping.any():
            at_node = program.node_of[cur[stopping]]
            s_stop, d_stop = src[stopping], dst[stopping]
            home = at_node == d_stop
            delivered[s_stop[home], d_stop[home]] = True
            misdelivered[s_stop[~home], d_stop[~home]] = True
            keep = ~stopping
            src, dst, cur = src[keep], dst[keep], cur[keep]
            if not cur.size:
                break
        lengths[src, dst] += 1
        cur = program.succ[cur]
    lengths[~delivered] = NO_ROUTE
    return SimulationResult(
        lengths, delivered, misdelivered, steps=steps, mode="header-compiled"
    )


def _header_state_budget(
    program: HeaderStateProgram, cur: np.ndarray, max_hops: Optional[int]
) -> int:
    """Exact hop budget of a header-state frontier.

    From the functional-graph analysis: every message that delivers at all
    does so within the largest finite ``hops_to_deliver`` of an initial
    state (plus the delivering step itself); anything alive beyond that
    provably cycles.  An empty frontier (n < 2, or every pair masked out)
    skips the ``hops_to_deliver`` scan entirely — its budget is 0.
    """
    if max_hops is not None:
        return max_hops
    if not cur.size:
        return 0
    pending = program.hops_to_deliver[cur]
    finite = pending[pending >= 0]
    return int(finite.max()) + 1 if finite.size else 0


def _execute_header_state_compact(
    program: HeaderStateProgram, max_hops: Optional[int]
) -> SimulationResult:
    """Frontier-compacted header-state kernel (the default path).

    The frontier is ``pair`` (flat identity code) plus ``cur`` (interned
    state id, already the gather index into every transition array);
    retirements append to per-step buffers and the dense matrices are
    rebuilt once at exit.  Pinned equal to
    :func:`_execute_header_state_dense` by the differential suite.
    """
    n = program.n
    lengths = np.zeros((n, n), dtype=np.int64)
    delivered = np.eye(n, dtype=bool)
    misdelivered = np.zeros((n, n), dtype=bool)
    if n < 2:
        return SimulationResult(
            lengths, delivered, misdelivered, steps=0, mode="header-compiled"
        )
    succ, deliver, node_of = program.succ, program.deliver, program.node_of
    pdt = _pair_dtype(n)
    pn = pdt.type(n)
    pair = _pair_codes(n, pdt)
    cur = np.ascontiguousarray(program.initial).ravel()[pair]
    budget = _header_state_budget(program, cur, max_hops)
    delivered_runs: List[Tuple[np.ndarray, int]] = []
    mis_runs: List[Tuple[np.ndarray, Optional[int]]] = []
    steps = 0
    until_sort = _SORT_PERIOD
    while cur.size and steps < budget:
        steps += 1
        stopping = deliver[cur]
        if stopping.any():
            stop_pair = pair[stopping]
            home = node_of[cur[stopping]].astype(pdt) == stop_pair % pn
            # A message stopping at step s was removed before that step's
            # hop was counted: its route length is s - 1 (dense semantics).
            delivered_runs.append((stop_pair[home], steps - 1))
            mis_runs.append((stop_pair[~home], None))
            keep = ~stopping
            pair, cur = pair[keep], cur[keep]
            if not cur.size:
                break
        cur = succ[cur]
        until_sort -= 1
        if until_sort == 0:
            until_sort = _SORT_PERIOD
            if cur.size > _SORT_MIN_FRONTIER:
                order = np.argsort(cur)
                pair, cur = pair[order], cur[order]
    _scatter_retired(
        [(delivered.ravel(), delivered_runs), (misdelivered.ravel(), mis_runs)],
        lengths.ravel(),
    )
    lengths[~delivered] = NO_ROUTE
    return SimulationResult(
        lengths, delivered, misdelivered, steps=steps, mode="header-compiled"
    )


def _execute_header_state(
    program: HeaderStateProgram, max_hops: Optional[int]
) -> SimulationResult:
    if _kernel_choice() == "dense":
        return _execute_header_state_dense(program, max_hops)
    return _execute_header_state_compact(program, max_hops)


def _simulate_generic(rf: RoutingFunction, max_hops: Optional[int]) -> SimulationResult:
    graph = rf.graph
    n = graph.n
    lengths = np.zeros((n, n), dtype=np.int64)
    delivered = np.eye(n, dtype=bool)
    misdelivered = np.zeros((n, n), dtype=bool)
    if n < 2:
        return SimulationResult(lengths, delivered, misdelivered, steps=0, mode="generic")
    budget = 4 * n if max_hops is None else max_hops

    # One in-flight record per ordered pair: (source, dest, node, header).
    flights: List[Tuple[int, int, int, Hashable]] = [
        (x, y, x, rf.initial_header(x, y))
        for x in range(n)
        for y in range(n)
        if x != y
    ]
    port_fn = rf.port
    next_header = rf.next_header
    neighbor_at_port = graph.neighbor_at_port
    steps = 0
    while flights and steps < budget:
        steps += 1
        survivors: List[Tuple[int, int, int, Hashable]] = []
        for source, dest, node, header in flights:
            port = port_fn(node, header)
            if port == DELIVER:
                if node == dest:
                    delivered[source, dest] = True
                else:
                    misdelivered[source, dest] = True
                continue
            try:
                nxt = neighbor_at_port(node, port)
            except KeyError as exc:
                raise ValueError(
                    f"routing function used invalid port {port} at vertex {node} "
                    f"(degree {graph.degree(node)})"
                ) from exc
            lengths[source, dest] += 1
            # Delivery requires P to say DELIVER at the head node, so a
            # message reaching its destination stays in flight until the
            # scheme's own decision next step — exactly the legacy loop.
            survivors.append((source, dest, nxt, next_header(node, header)))
        flights = survivors
    lengths[~delivered] = NO_ROUTE
    return SimulationResult(lengths, delivered, misdelivered, steps=steps, mode="generic")


# ----------------------------------------------------------------------
# masked execution (fault injection): one step function per compiled kind
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MaskedExecution:
    """Raw outcome matrices of executing a *masked* program over alive pairs.

    The engine-level half of the fault-injection subsystem
    (:mod:`repro.sim.faults` owns the fault model and the outcome
    taxonomy): a masked program carries :data:`~repro.routing.program.DROPPED`
    sentinels in its transition arrays, and the masked step functions below
    classify every simulated pair as delivered, misdelivered (``DELIVER``
    at the wrong node), or **dropped at a fault** (the walk attempted a
    masked transition).  Pairs in none of the three matrices are the
    provable livelocks.  ``lengths`` counts the hops actually taken —
    including for dropped and misdelivered pairs, where it measures the
    path walked *before* the message stopped — and is ``-1`` only for
    livelocked pairs (their walk is infinite).  Pairs outside the alive
    universe (a failed source or destination) appear in no matrix and
    carry length ``-1``; the diagonal of ``delivered`` is ``True`` exactly
    at alive vertices.
    """

    delivered: np.ndarray
    misdelivered: np.ndarray
    dropped: np.ndarray
    lengths: np.ndarray
    steps: int
    mode: str


def _masked_frames(
    n: int, alive: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Shared setup of the masked executors: matrices + alive pair universe."""
    lengths = np.full((n, n), NO_ROUTE, dtype=np.int64)
    delivered = np.zeros((n, n), dtype=bool)
    np.fill_diagonal(delivered, alive)
    np.fill_diagonal(lengths, np.where(alive, 0, NO_ROUTE))
    misdelivered = np.zeros((n, n), dtype=bool)
    dropped = np.zeros((n, n), dtype=bool)
    universe = _offdiag_mask(n)
    universe &= alive[:, None]
    universe &= alive[None, :]
    src, dst = np.nonzero(universe)
    lengths[src, dst] = 0
    return lengths, delivered, misdelivered, dropped, src, dst


def _execute_next_hop_masked_dense(
    program: NextHopProgram, alive: np.ndarray, max_hops: Optional[int]
) -> MaskedExecution:
    """Historical dense masked next-hop kernel (differential reference)."""
    n = program.n
    lengths, delivered, misdelivered, dropped, src, dst = _masked_frames(n, alive)
    next_node = program.next_node
    # The walk toward a fixed destination still lives in a functional graph
    # (masking only removes transitions), so n steps stay an exact budget:
    # a message neither home nor stopped after n hops has revisited a node.
    budget = n if max_hops is None else max_hops
    absorbing = next_node[np.arange(n), np.arange(n)] == np.arange(n)
    cur = src.copy()
    steps = 0
    while cur.size and steps < budget:
        steps += 1
        nxt = next_node[cur, dst]
        # Stopping transitions first, before any hop is counted: a blocked
        # hop is never taken (the message dies at its current node) and a
        # wrong-node delivery happens at the current node too.
        stopped = (nxt == DROPPED) | (nxt == MISDELIVER)
        if stopped.any():
            was_dropped = nxt == DROPPED
            dropped[src[was_dropped], dst[was_dropped]] = True
            was_mis = nxt == MISDELIVER
            misdelivered[src[was_mis], dst[was_mis]] = True
            keep = ~stopped
            src, dst, nxt = src[keep], dst[keep], nxt[keep]
            if not nxt.size:
                break
        cur = nxt
        lengths[src, dst] += 1
        home = (cur == dst) & absorbing[dst]
        if home.any():
            delivered[src[home], dst[home]] = True
            keep = ~home
            src, dst, cur = src[keep], dst[keep], cur[keep]
    lengths[src, dst] = NO_ROUTE  # survivors of the budget: provable livelocks
    return MaskedExecution(
        delivered, misdelivered, dropped, lengths, steps=steps, mode="compiled-masked"
    )


def _execute_next_hop_masked_compact(
    program: NextHopProgram, alive: np.ndarray, max_hops: Optional[int]
) -> MaskedExecution:
    """Frontier-compacted masked next-hop kernel (the default path).

    Same single-gather location-table loop as
    :func:`_execute_next_hop_compact`, with a third retire bucket for
    pairs dropped at a fault.  A blocked hop is never taken (the message
    dies at its current node) and a wrong-node delivery happens at the
    current node too — both walked ``steps - 1`` hops, while a real
    delivery walked ``steps``.  Pairs still in flight when the budget
    runs out simply keep the ``-1`` initialization of the length matrix —
    the livelock accounting the dense kernel writes explicitly at exit.
    """
    n = program.n
    lengths = np.full((n, n), NO_ROUTE, dtype=np.int64)
    delivered = np.zeros((n, n), dtype=bool)
    np.fill_diagonal(delivered, alive)
    np.fill_diagonal(lengths, np.where(alive, 0, NO_ROUTE))
    misdelivered = np.zeros((n, n), dtype=bool)
    dropped = np.zeros((n, n), dtype=bool)
    next_node = program.next_node
    budget = n if max_hops is None else max_hops
    diag = np.arange(n)
    absorbing = next_node[diag, diag] == diag
    # One sentinel scan gates the per-step drop/misdeliver split: the only
    # negatives a (masked) program carries are the two sentinels.
    has_stop = bool((next_node == MISDELIVER).any() or (next_node == DROPPED).any())
    pdt = _pair_dtype(n)
    tbl = _loc_table(next_node, absorbing, pdt)
    pair, loc = _dst_major_frontier(n, pdt, alive)
    delivered_runs: List[Tuple[np.ndarray, int]] = []
    mis_runs: List[Tuple[np.ndarray, int]] = []
    drop_runs: List[Tuple[np.ndarray, int]] = []
    steps = 0
    while pair.size and steps < budget:
        steps += 1
        nxt = tbl[loc]
        retire = nxt < 0
        if retire.any():
            if has_stop:
                drop_runs.append((pair[nxt == DROPPED], steps - 1))
                mis_runs.append((pair[nxt == MISDELIVER], steps - 1))
                delivered_runs.append((pair[nxt == _HOME], steps))
            else:
                delivered_runs.append((pair[retire], steps))
            keep = ~retire
            pair, nxt = pair[keep], nxt[keep]
        loc = nxt
    _scatter_retired(
        [
            (delivered.ravel(), delivered_runs),
            (misdelivered.ravel(), mis_runs),
            (dropped.ravel(), drop_runs),
        ],
        lengths.ravel(),
    )
    return MaskedExecution(
        delivered, misdelivered, dropped, lengths, steps=steps, mode="compiled-masked"
    )


def _execute_next_hop_masked(
    program: NextHopProgram, alive: np.ndarray, max_hops: Optional[int]
) -> MaskedExecution:
    if _kernel_choice() == "dense":
        return _execute_next_hop_masked_dense(program, alive, max_hops)
    return _execute_next_hop_masked_compact(program, alive, max_hops)


def _execute_header_state_masked_dense(
    program: HeaderStateProgram, alive: np.ndarray, max_hops: Optional[int]
) -> MaskedExecution:
    """Historical dense masked header-state kernel (differential reference)."""
    n = program.n
    lengths, delivered, misdelivered, dropped, src, dst = _masked_frames(n, alive)
    succ, deliver, node_of = program.succ, program.deliver, program.node_of
    cur = program.initial[src, dst]
    # Exact budget without any fresh analysis: ``hops_to_deliver`` is
    # the program's stop analysis — DROPPED transitions count as stops
    # whenever a view edits the relation (see ``with_transitions``),
    # so every message that stops at all does so within the largest
    # finite entry of its initial state (plus the stopping step) and
    # anything alive beyond that provably cycles.
    budget = _header_state_budget(program, cur, max_hops)
    steps = 0
    while cur.size and steps < budget:
        steps += 1
        stopping = deliver[cur]
        if stopping.any():
            at_node = node_of[cur[stopping]]
            s_stop, d_stop = src[stopping], dst[stopping]
            home = at_node == d_stop
            delivered[s_stop[home], d_stop[home]] = True
            misdelivered[s_stop[~home], d_stop[~home]] = True
            keep = ~stopping
            src, dst, cur = src[keep], dst[keep], cur[keep]
            if not cur.size:
                break
        nxt = succ[cur]
        blocked = nxt == DROPPED
        if blocked.any():
            dropped[src[blocked], dst[blocked]] = True
            keep = ~blocked
            src, dst, nxt = src[keep], dst[keep], nxt[keep]
            if not nxt.size:
                break
        cur = nxt
        lengths[src, dst] += 1
    lengths[src, dst] = NO_ROUTE  # survivors of the budget: provable livelocks
    return MaskedExecution(
        delivered,
        misdelivered,
        dropped,
        lengths,
        steps=steps,
        mode="header-compiled-masked",
    )


def _execute_header_state_masked_compact(
    program: HeaderStateProgram, alive: np.ndarray, max_hops: Optional[int]
) -> MaskedExecution:
    """Frontier-compacted masked header-state kernel (the default path).

    All three stop kinds (delivered, misdelivered, dropped at a fault)
    retire *before* the step's hop is counted, so each records length
    ``steps - 1`` — the dense kernel's semantics exactly.  An empty alive
    universe (n < 2, every vertex failed, or all-self-pairs) never touches
    ``hops_to_deliver`` at all (see :func:`_header_state_budget`).
    """
    n = program.n
    lengths = np.full((n, n), NO_ROUTE, dtype=np.int64)
    delivered = np.zeros((n, n), dtype=bool)
    np.fill_diagonal(delivered, alive)
    np.fill_diagonal(lengths, np.where(alive, 0, NO_ROUTE))
    misdelivered = np.zeros((n, n), dtype=bool)
    dropped = np.zeros((n, n), dtype=bool)
    succ, deliver, node_of = program.succ, program.deliver, program.node_of
    pdt = _pair_dtype(n)
    pn = pdt.type(n)
    pair = _alive_pair_codes(n, alive, pdt)
    cur = np.ascontiguousarray(program.initial).ravel()[pair]
    budget = _header_state_budget(program, cur, max_hops)
    delivered_runs: List[Tuple[np.ndarray, int]] = []
    mis_runs: List[Tuple[np.ndarray, int]] = []
    drop_runs: List[Tuple[np.ndarray, int]] = []
    steps = 0
    until_sort = _SORT_PERIOD
    while cur.size and steps < budget:
        steps += 1
        stopping = deliver[cur]
        if stopping.any():
            stop_pair = pair[stopping]
            home = node_of[cur[stopping]].astype(pdt) == stop_pair % pn
            delivered_runs.append((stop_pair[home], steps - 1))
            mis_runs.append((stop_pair[~home], steps - 1))
            keep = ~stopping
            pair, cur = pair[keep], cur[keep]
            if not cur.size:
                break
        nxt = succ[cur]
        blocked = nxt == DROPPED
        if blocked.any():
            drop_runs.append((pair[blocked], steps - 1))
            keep = ~blocked
            pair, nxt = pair[keep], nxt[keep]
            if not nxt.size:
                break
        cur = nxt
        until_sort -= 1
        if until_sort == 0:
            until_sort = _SORT_PERIOD
            if cur.size > _SORT_MIN_FRONTIER:
                order = np.argsort(cur)
                pair, cur = pair[order], cur[order]
    _scatter_retired(
        [
            (delivered.ravel(), delivered_runs),
            (misdelivered.ravel(), mis_runs),
            (dropped.ravel(), drop_runs),
        ],
        lengths.ravel(),
    )
    return MaskedExecution(
        delivered,
        misdelivered,
        dropped,
        lengths,
        steps=steps,
        mode="header-compiled-masked",
    )


def _execute_header_state_masked(
    program: HeaderStateProgram, alive: np.ndarray, max_hops: Optional[int]
) -> MaskedExecution:
    if _kernel_choice() == "dense":
        return _execute_header_state_masked_dense(program, alive, max_hops)
    return _execute_header_state_masked_compact(program, alive, max_hops)


def kernel_working_set(program: RoutingProgram) -> dict:
    """Deterministic working-set accounting: compact kernel vs the dense layout.

    Bytes of the steady-state per-hop working set — the transition arrays
    plus the per-message frontier (plus, dense only, the ``(n, n)`` int64
    length matrix the dense kernel scatters into on every hop).  "Dense"
    prices the pre-compaction layout exactly: int64 program arrays and
    three int64 per-message arrays (``src``, ``dst``, ``cur``); "compact"
    prices this module's layout: domain-dtype program arrays and two flat
    code arrays per message.  This is accounting, not a heap measurement —
    it is what the memory-reduction acceptance pin in
    ``benchmarks/bench_perf_regression.py`` asserts against, deterministic
    by construction.
    """
    n = program.n
    pairs = n * max(n - 1, 0)
    pdt = _pair_dtype(n)
    if isinstance(program, NextHopProgram):
        # The per-hop table the compact kernel actually gathers from is
        # the derived location table (_loc_table), pdt-sized; the domain-
        # dtype program array is untouched in the loop.
        table_compact = program.next_node.size * pdt.itemsize
        table_dense = program.next_node.size * 8
        frontier_compact = pairs * 2 * pdt.itemsize  # pair + loc codes
        frontier_dense = pairs * 3 * 8  # src, dst, cur int64
    elif isinstance(program, HeaderStateProgram):
        arrays = (
            program.succ,
            program.deliver,
            program.node_of,
            program.hops_to_deliver,
            program.initial,
        )
        table_compact = sum(a.size * a.dtype.itemsize for a in arrays)
        table_dense = sum(a.size * (1 if a.dtype == bool else 8) for a in arrays)
        # pair code + interned state id vs src, dst, cur int64.
        frontier_compact = pairs * (pdt.itemsize + program.succ.dtype.itemsize)
        frontier_dense = pairs * 3 * 8
    else:
        raise ValueError(
            f"no step kernel exists for a {type(program).__name__}; "
            "working-set accounting is defined for the compiled kinds only"
        )
    scatter_dense = n * n * 8  # lengths[src, dst] += 1, every hop
    compact = table_compact + frontier_compact
    dense = table_dense + frontier_dense + scatter_dense
    return {
        "compact_bytes": int(compact),
        "dense_bytes": int(dense),
        "reduction": dense / compact if compact else float("inf"),
    }


def execute_masked_program(
    program: RoutingProgram,
    alive: Optional[np.ndarray] = None,
    max_hops: Optional[int] = None,
) -> MaskedExecution:
    """Execute a masked program over all ordered pairs of alive vertices.

    ``alive`` is the boolean survival mask of the fault scenario
    (``None`` = every vertex alive); pairs with a failed endpoint are never
    simulated.  The program is expected to carry
    :data:`~repro.routing.program.DROPPED` sentinels where
    :func:`repro.sim.faults.apply_faults` masked a transition — an unmasked
    program works too and simply never drops anything.  Generic programs
    have no transition arrays to mask; fault-inject them through the
    reference interpreter (:func:`repro.sim.faults.simulate_with_faults`
    with the live routing function).
    """
    if alive is None:
        alive = np.ones(program.n, dtype=bool)
    alive = np.asarray(alive, dtype=bool)
    if alive.shape != (program.n,):
        raise ValueError(
            f"alive mask has shape {alive.shape}, expected ({program.n},)"
        )
    if isinstance(program, NextHopProgram):
        return _execute_next_hop_masked(program, alive, max_hops)
    if isinstance(program, HeaderStateProgram):
        return _execute_header_state_masked(program, alive, max_hops)
    if isinstance(program, GenericProgram):
        raise ValueError(
            "a generic program has no transition arrays to mask; interpret the "
            "live routing function via repro.sim.faults.simulate_with_faults"
        )
    raise TypeError(f"not a RoutingProgram: {type(program).__name__}")


def execute_program(
    program: RoutingProgram,
    rf: Optional[RoutingFunction] = None,
    max_hops: Optional[int] = None,
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
    if isinstance(program, NextHopProgram):
        if (program.next_node == DROPPED).any():
            # A DROPPED sentinel would silently index from the array's end
            # in the plain gather loop; masked views must go through the
            # fault-aware executor.
            raise ValueError(
                "this next-hop program carries fault masks (DROPPED entries); "
                "execute it with repro.sim.engine.execute_masked_program"
            )
        return _execute_next_hop(program, max_hops)
    if isinstance(program, HeaderStateProgram):
        if (program.succ == DROPPED).any():
            raise ValueError(
                "this header-state program carries fault masks (DROPPED "
                "entries); execute it with repro.sim.engine.execute_masked_program"
            )
        return _execute_header_state(program, max_hops)
    if isinstance(program, GenericProgram):
        if rf is None:
            raise ValueError(
                "a generic program is an opt-out marker: executing it needs the "
                "live routing function (pass rf=...)"
            )
        return _simulate_generic(rf, max_hops)
    raise TypeError(f"not a RoutingProgram: {type(program).__name__}")


def simulate_all_pairs(
    rf: RoutingFunction,
    max_hops: Optional[int] = None,
    method: str = "auto",
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
    max_hops:
        Hop budget per message before declaring a livelock.  Defaults to
        ``n`` on the next-hop path and to the exact functional-graph bound
        on the header-state path (both provably exact, see the module
        docstring), and to ``4 * n`` on the generic path (the legacy
        default).
    method:
        ``"auto"`` executes the program kind the routing function itself
        declares (``rf.program_kind()``), falling back to the generic
        interpreter if a header-state enumeration explodes.  ``"compiled"``
        forces the next-hop matrix (raising :class:`ValueError` for
        header-rewriting schemes); ``"header-compiled"`` forces the
        header-state engine (raising :class:`ValueError` when the scheme
        does not declare ``can_vectorize``,
        :class:`HeaderStateExplosionError` when its promise breaks);
        ``"generic"`` forces the per-message interpreter (useful for
        differential tests).
    program:
        A pre-compiled program for ``rf`` (e.g. from the sharded runner's
        program cache): the engine executes it instead of lowering the
        scheme again.  Only valid with ``method="auto"``.
    """
    if isinstance(rf, RoutingProgram):
        if program is not None:
            raise ValueError("pass the program either positionally or as program=, not both")
        program, rf = rf, None
    if method not in ("auto", "compiled", "header-compiled", "generic"):
        raise ValueError(f"unknown simulation method {method!r}")
    if program is not None:
        if method != "auto":
            raise ValueError("a pre-compiled program already fixes the method; use method='auto'")
        return execute_program(program, rf=rf, max_hops=max_hops)
    if rf is None:
        raise ValueError("simulate_all_pairs needs a routing function or a program")
    if method == "generic":
        return _simulate_generic(rf, max_hops)
    if method == "compiled":
        if rf.program_kind() != KIND_NEXT_HOP:
            raise ValueError(
                f"{type(rf).__name__} rewrites headers (or derives them from more "
                "than the destination) and cannot be compiled to a next-hop "
                "matrix; use method='header-compiled' or method='generic'"
            )
        return _execute_next_hop(lower_next_hop(rf), max_hops)
    if method == "header-compiled":
        if not getattr(type(rf), "can_vectorize", False):
            raise ValueError(
                f"{type(rf).__name__} does not declare can_vectorize (its header "
                "alphabet is not promised finite); use method='generic'"
            )
        return _execute_header_state(lower_header_state(rf), max_hops)
    # auto: execute whatever the routing function lowers itself to.
    kind = rf.program_kind()
    if kind == KIND_HEADER_STATE:
        try:
            return _execute_header_state(lower_header_state(rf), max_hops)
        except HeaderStateExplosionError:
            return _simulate_generic(rf, max_hops)
    if kind == KIND_NEXT_HOP:
        return _execute_next_hop(lower_next_hop(rf), max_hops)
    return _simulate_generic(rf, max_hops)


def simulated_routing_lengths(
    rf: RoutingFunction, max_hops: Optional[int] = None
) -> np.ndarray:
    """Batched drop-in for :func:`repro.routing.paths.all_pairs_routing_lengths`."""
    return simulate_all_pairs(rf, max_hops=max_hops).require_all_delivered()


def simulated_stretch_factor(
    rf: RoutingFunction,
    dist: Optional[np.ndarray] = None,
    program: Optional[RoutingProgram] = None,
) -> Fraction:
    """Exact stretch factor ``s(R, G)`` computed through the batched simulator.

    Equivalent to :func:`repro.routing.paths.stretch_factor` (the test-suite
    pins the equality) at a fraction of the interpreted work.  Grid drivers
    pass their cached ``dist`` (recomputing the distance matrix per scheme
    cell is the waste :func:`repro.analysis.runner.cached_distance_matrix`
    exists to avoid) and optionally a pre-compiled ``program``.
    """
    result = simulate_all_pairs(rf, program=program)
    return result.max_stretch(dist=dist, graph=rf.graph)
