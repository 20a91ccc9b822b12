"""Vectorized fault injection on compiled routing programs.

The paper's schemes fix their routing data against one topology; this module
asks how gracefully that *fixed* data degrades when the topology loses edges
or nodes underneath it.  The key economy comes from the compiled-program IR
(:mod:`repro.routing.program`): a fault scenario is **just a masked
transition array**.  :func:`apply_faults` rewrites the transitions a
:class:`~repro.sim.faults.FaultSet` blocks to the
:data:`~repro.routing.program.DROPPED` sentinel — through the program view
API (``with_next_node`` / ``with_transitions``), *without recompiling the
scheme* — and the masked executor of :mod:`repro.sim.engine` resolves every
ordered pair's fate in one vectorised pass.  Thousands of failure scenarios
therefore reuse a single cached compile (see
:meth:`repro.analysis.runner.ShardedRunner.resilience_sweep`).

Fault model
-----------
A :class:`FaultSet` is a set of failed undirected edges plus failed nodes,
applied to an otherwise unchanged graph:

* a message attempting to cross a failed edge — or to enter a failed node —
  is **dropped at the fault** (it dies at its current node; the blocked hop
  is never taken);
* the routing data is *oblivious*: nodes keep forwarding exactly as the
  scheme compiled them on the intact graph (no rerouting, no failure
  notifications) — the paper's model has no protocol for anything else;
* pairs whose source or destination is a failed node are **infeasible** and
  excluded from the outcome universe.

Pair outcome taxonomy
---------------------
Every ordered pair lands in exactly one class, recorded in
:attr:`FaultSimulationResult.outcome`:

* :data:`PAIR_DELIVERED` — arrived at its destination; ``lengths`` holds the
  route length, and the route is *identical* to the fault-free route (an
  oblivious scheme is never rerouted, only truncated);
* :data:`PAIR_DROPPED` — died attempting a masked transition;
* :data:`PAIR_LIVELOCKED` — forwards forever without delivering or hitting a
  fault (exact on both compiled kinds: functional-graph arguments);
* :data:`PAIR_MISDELIVERED` — the scheme said ``DELIVER`` at the wrong node;
* :data:`PAIR_INFEASIBLE` — a failed endpoint (or the diagonal).

Stretch inflation is measured against shortest paths **recomputed on the
surviving graph** (:func:`surviving_distance_matrix`): delivered routes were
optimal-ish for the intact graph, so their ratio against the surviving
distances quantifies how much of the scheme's guarantee a failure costs.

The engine's per-message interpreter applies the same fault model to the
live routing function decision by decision; it is the only execution route
for generic (opt-out) programs, and — reached by passing
``program=GenericProgram(num_vertices=n)`` — the differential oracle of the
vectorised path in the tests.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.graphs.digraph import PortLabeledGraph
from repro.graphs.shortest_paths import UNREACHABLE, bfs_rows
from repro.routing.model import RoutingFunction
from repro.routing.program import (
    DROPPED,
    GenericProgram,
    HeaderStateProgram,
    NextHopProgram,
    RoutingProgram,
    compile_or_interpret,
)
from repro.routing.verify import (
    VERDICT_DELIVERED,
    VERDICT_DROPPED,
    VERDICT_INFEASIBLE,
    VERDICT_LIVELOCKED,
    VERDICT_MISDELIVERED,
    VERDICT_NAMES,
    VerificationReport,
)
from repro.sim.engine import _exact_max_ratio, _interpret, execute_masked_program

__all__ = [
    "PAIR_DELIVERED",
    "PAIR_DROPPED",
    "PAIR_INFEASIBLE",
    "PAIR_LIVELOCKED",
    "PAIR_MISDELIVERED",
    "OUTCOME_NAMES",
    "FaultSet",
    "FaultSimulationResult",
    "apply_faults",
    "random_fault_set",
    "simulate_with_faults",
    "surviving_distance_matrix",
    "surviving_graph",
]

#: Pair outcome codes of :attr:`FaultSimulationResult.outcome`: the
#: verifier's verdict codes under the fault taxonomy's names.
PAIR_DELIVERED = VERDICT_DELIVERED
PAIR_DROPPED = VERDICT_DROPPED
PAIR_LIVELOCKED = VERDICT_LIVELOCKED
PAIR_MISDELIVERED = VERDICT_MISDELIVERED
PAIR_INFEASIBLE = VERDICT_INFEASIBLE

#: Display names of the outcome codes, in code order.
OUTCOME_NAMES = VERDICT_NAMES


def _normalize_edge(edge: Tuple[int, int]) -> Tuple[int, int]:
    u, v = int(edge[0]), int(edge[1])
    if u == v:
        raise ValueError(f"a fault edge cannot be a self-loop (vertex {u})")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class FaultSet:
    """An immutable set of failed edges and failed nodes.

    Edges are undirected and stored normalised (``u < v``, sorted,
    deduplicated); nodes likewise.  The empty fault set is a guaranteed
    exact no-op of the whole machinery (property-tested).  Construction
    does not validate against a graph — :meth:`validate` does, and every
    simulation entry point calls it.
    """

    edges: Tuple[Tuple[int, int], ...] = ()
    nodes: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "edges", tuple(sorted({_normalize_edge(e) for e in self.edges}))
        )
        object.__setattr__(self, "nodes", tuple(sorted({int(v) for v in self.nodes})))

    @classmethod
    def from_edges(cls, edges: Iterable[Tuple[int, int]]) -> "FaultSet":
        """A fault set failing exactly the given undirected edges."""
        return cls(edges=tuple(edges))

    @classmethod
    def from_nodes(cls, nodes: Iterable[int]) -> "FaultSet":
        """A fault set failing exactly the given nodes (and their edges)."""
        return cls(nodes=tuple(nodes))

    @classmethod
    def empty(cls) -> "FaultSet":
        """The no-fault scenario."""
        return cls()

    @property
    def is_empty(self) -> bool:
        """Whether this is the no-fault scenario."""
        return not self.edges and not self.nodes

    @property
    def size(self) -> int:
        """Total number of failed components (edges plus nodes)."""
        return len(self.edges) + len(self.nodes)

    @property
    def kind(self) -> str:
        """``"none"``, ``"edge"``, ``"node"`` or ``"mixed"``."""
        if self.is_empty:
            return "none"
        if self.edges and self.nodes:
            return "mixed"
        return "edge" if self.edges else "node"

    def validate(self, graph: PortLabeledGraph) -> None:
        """Raise :class:`ValueError` unless every fault names a real component.

        A fault set naming an absent edge or an out-of-range node is a bug
        in the caller's scenario generation, not a degenerate scenario —
        silently ignoring it would make survival rates lie.
        """
        n = graph.n
        for v in self.nodes:
            if not 0 <= v < n:
                raise ValueError(f"failed node {v} out of range [0, {n})")
        for u, v in self.edges:
            if not (0 <= u < n and 0 <= v < n) or not graph.has_edge(u, v):
                raise ValueError(f"failed edge ({u}, {v}) is not an edge of the graph")

    def alive_mask(self, n: int) -> np.ndarray:
        """Boolean survival mask over the ``n`` vertices."""
        alive = np.ones(n, dtype=bool)
        if self.nodes:
            alive[list(self.nodes)] = False
        return alive

    def edge_codes(self, n: int) -> np.ndarray:
        """Failed edges as sorted ``u * n + v`` arc codes (both directions)."""
        if not self.edges:
            return np.empty(0, dtype=np.int64)
        codes = [u * n + v for u, v in self.edges] + [v * n + u for u, v in self.edges]
        return np.sort(np.asarray(codes, dtype=np.int64))

    def fingerprint(self) -> str:
        """Stable hex digest, safe as an on-disk cache-key component."""
        payload = repr(("faults", self.nodes, self.edges)).encode()
        return hashlib.sha256(payload).hexdigest()

    def describe(self) -> str:
        """Short human-readable summary (``"2 edge(s) + 1 node(s)"``)."""
        if self.is_empty:
            return "no faults"
        parts = []
        if self.edges:
            parts.append(f"{len(self.edges)} edge(s)")
        if self.nodes:
            parts.append(f"{len(self.nodes)} node(s)")
        return " + ".join(parts)


def random_fault_set(
    graph: PortLabeledGraph,
    k: int,
    kind: str = "edge",
    seed: int = 0,
    protect: Iterable[int] = (),
) -> FaultSet:
    """Sample a deterministic ``k``-failure :class:`FaultSet` on ``graph``.

    ``kind`` selects edge or node failures; ``protect`` names nodes that
    must survive (node scenarios only — e.g. landmarks a sweep wants to
    study separately).  Sampling is driven by ``numpy``'s seeded generator,
    so the same ``(graph, k, kind, seed)`` always yields the same scenario.
    Raises :class:`ValueError` when fewer than ``k`` candidates exist —
    an over-drawn scenario silently shrinking would skew survival curves.
    """
    if k < 0:
        raise ValueError(f"fault count k must be non-negative, got {k}")
    rng = np.random.default_rng(seed)
    if kind == "edge":
        candidates = sorted(graph.edges())
        if k > len(candidates):
            raise ValueError(
                f"cannot fail {k} edges: the graph has only {len(candidates)}"
            )
        picks = rng.choice(len(candidates), size=k, replace=False)
        return FaultSet.from_edges(candidates[i] for i in picks)
    if kind == "node":
        protected = {int(v) for v in protect}
        candidates = [v for v in range(graph.n) if v not in protected]
        if k > len(candidates):
            raise ValueError(
                f"cannot fail {k} nodes: only {len(candidates)} are unprotected"
            )
        picks = rng.choice(len(candidates), size=k, replace=False)
        return FaultSet.from_nodes(candidates[i] for i in picks)
    raise ValueError(f"unknown fault kind {kind!r} (use 'edge' or 'node')")


# ----------------------------------------------------------------------
# the surviving graph (ground truth for stretch and rebuild differentials)
# ----------------------------------------------------------------------
def surviving_graph(
    graph: PortLabeledGraph, faults: FaultSet
) -> Tuple[PortLabeledGraph, np.ndarray]:
    """The subgraph surviving ``faults``, with a vertex relabelling map.

    Returns ``(survivor, old_to_new)`` where the survivor contains the
    alive vertices relabelled ``0 .. n_alive - 1`` (in increasing old-label
    order; ``old_to_new[v] = -1`` for failed vertices) and exactly the
    unfailed edges between alive endpoints.  Ports are assigned in the
    canonical smaller-neighbour-first order — a *fresh* labelling, since
    the original ports (``1 .. deg``) cannot survive edge deletion.  This
    is the graph a scheme would be rebuilt on if failures were advertised,
    which is what the differential tests compare masked oblivious routing
    against.
    """
    faults.validate(graph)
    alive = faults.alive_mask(graph.n)
    old_to_new = np.full(graph.n, -1, dtype=np.int64)
    old_to_new[alive] = np.arange(int(alive.sum()), dtype=np.int64)
    failed_edges = set(faults.edges)
    survivor = PortLabeledGraph(int(alive.sum()))
    for u, v in graph.edges():
        if alive[u] and alive[v] and (u, v) not in failed_edges:
            survivor.add_edge(int(old_to_new[u]), int(old_to_new[v]))
    survivor.sort_ports_by_neighbor()
    return survivor, old_to_new


def surviving_distance_matrix(
    graph: PortLabeledGraph, faults: FaultSet
) -> np.ndarray:
    """All-pairs shortest-path distances on the surviving graph, original ids.

    ``(n, n)`` int64 matrix over the *original* vertex labels:
    :data:`~repro.graphs.shortest_paths.UNREACHABLE` for pairs disconnected
    by the faults and for every pair touching a failed node (distances are
    undefined at dead vertices, including the diagonal).  Computed on a
    masked adjacency once per graph snapshot and fault set, memoised in
    :attr:`PortLabeledGraph.derived` in the narrowest signed dtype holding
    ``UNREACHABLE`` and the diameter; each call returns a fresh int64 copy.
    """
    surviving = graph.derived.surviving
    key = faults.fingerprint()
    narrow = surviving.get(key)
    if narrow is None:
        faults.validate(graph)
        n = graph.n
        alive = faults.alive_mask(n)
        indptr, indices = graph.adjacency_arrays()
        tails = np.repeat(np.arange(n), np.diff(indptr))
        ok = alive[tails] & alive[indices]
        codes = faults.edge_codes(n)
        if codes.size:
            ok &= ~np.isin(tails * n + indices, codes)
        masked_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(tails[ok], minlength=n), out=masked_indptr[1:])
        dist = bfs_rows(masked_indptr, indices[ok], n)
        dist[~alive, :] = UNREACHABLE
        dist[:, ~alive] = UNREACHABLE
        diameter = int(dist.max(initial=0))  # the dtype holds -1 and +diameter
        narrow = surviving[key] = dist.astype(np.min_scalar_type(-diameter - 1))
    return narrow.astype(np.int64)


# ----------------------------------------------------------------------
# masking: a fault scenario is a masked transition array
# ----------------------------------------------------------------------
def apply_faults(
    program: RoutingProgram, graph: PortLabeledGraph, faults: FaultSet
) -> RoutingProgram:
    """Mask a compiled program's transitions with a fault scenario.

    Returns a program of the same kind whose blocked transitions hold
    :data:`~repro.routing.program.DROPPED` — built through the program view
    API, **never** by re-running the scheme.  A transition is blocked when
    the hop it takes crosses a failed edge or touches a failed node.  The
    empty fault set returns a byte-identical program (pinned by the k = 0
    property tests).  Generic programs carry no transition arrays and raise
    :class:`ValueError`; interpret them via :func:`simulate_with_faults`
    with the live routing function instead.
    """
    faults.validate(graph)
    n = graph.n
    if program.n != n:
        raise ValueError(
            f"program was compiled for n={program.n} but the fault scenario "
            f"lives on an n={n} graph"
        )
    if isinstance(program, NextHopProgram):
        if faults.is_empty:
            return program.with_next_node(program.next_node)
        next_node = program.next_node.copy()
        alive = faults.alive_mask(n)
        blocked = np.zeros((n, n), dtype=bool)
        if faults.nodes:
            # Hops *into* a failed node are blocked; rows *at* failed nodes
            # are unreachable from any alive pair but masked anyway so the
            # artifact is self-consistently dead there.
            blocked |= ~alive[np.where(next_node >= 0, next_node, 0)] & (next_node >= 0)
            blocked[~alive, :] = True
        for u, v in faults.edges:
            blocked[u] |= next_node[u] == v
            blocked[v] |= next_node[v] == u
        next_node[blocked] = DROPPED
        return program.with_next_node(next_node)
    if isinstance(program, HeaderStateProgram):
        if faults.is_empty:
            # Identity view: the transition relation is untouched.
            return program.with_transitions()
        alive = faults.alive_mask(n)
        hop_tail = program.node_of
        hop_head = program.node_of[program.succ]
        blocked = ~alive[hop_tail] | ~alive[hop_head]
        codes = faults.edge_codes(n)
        if codes.size:
            # Arc codes are computed in int64 regardless of the program's
            # domain dtype: node_of may be int16 and u * n + v overflows it.
            blocked |= np.isin(hop_tail.astype(np.int64) * n + hop_head, codes)
        # Delivering states are self-loops (no hop is taken): never masked.
        blocked &= ~program.deliver
        # The sentinel is written in the program's own dtype so the masked
        # view keeps the domain-sized layout (no silent int64 promotion).
        succ = np.where(blocked, program.succ.dtype.type(DROPPED), program.succ)
        return program.with_transitions(succ=succ)
    if isinstance(program, GenericProgram):
        raise ValueError(
            "a generic program has no transition arrays to mask; pass the live "
            "routing function to simulate_with_faults instead"
        )
    raise TypeError(f"not a RoutingProgram: {type(program).__name__}")


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultSimulationResult:
    """Classified outcome of routing all feasible pairs under a fault scenario.

    Attributes
    ----------
    outcome:
        ``(n, n)`` int8 matrix of pair outcome codes (:data:`PAIR_DELIVERED`
        … :data:`PAIR_INFEASIBLE`); the diagonal and every pair with a
        failed endpoint hold :data:`PAIR_INFEASIBLE`.
    lengths:
        Hops actually taken per pair: the route length for delivered pairs,
        the walked prefix for dropped/misdelivered pairs, ``-1`` for
        livelocked and infeasible pairs (``0`` on the alive diagonal).
    alive:
        Boolean survival mask over the vertices.
    faults:
        The applied :class:`FaultSet`.
    dist:
        Shortest-path distances recomputed on the surviving graph
        (:func:`surviving_distance_matrix`) — the stretch-inflation
        baseline.
    steps:
        Synchronous steps the simulation ran for.
    mode:
        ``"compiled-masked"``, ``"header-compiled-masked"`` or
        ``"generic-masked"`` (the per-message interpreter).
    program / report:
        On the compiled path, the masked program view that was executed
        and its fate report (resolved with the scenario's ``alive`` mask),
        so a caller can route traffic through the same scenario —
        ``route_demand(result.program, demand, report=result.report)`` —
        without masking or resolving it again.  ``None`` on the
        interpreter's path.
    """

    outcome: np.ndarray
    lengths: np.ndarray
    alive: np.ndarray
    faults: FaultSet
    dist: np.ndarray
    steps: int
    mode: str
    program: Optional[RoutingProgram] = None
    report: Optional[VerificationReport] = None

    @property
    def n(self) -> int:
        """Number of vertices of the simulated graph."""
        return self.outcome.shape[0]

    # ------------------------------------------------------------------
    def counts(self) -> Dict[str, int]:
        """Pair counts per outcome name (off-diagonal pairs only)."""
        off = ~np.eye(self.n, dtype=bool)
        return {
            name: int((self.outcome[off] == code).sum())
            for code, name in OUTCOME_NAMES.items()
        }

    def pairs(self, code: int) -> List[Tuple[int, int]]:
        """Ordered off-diagonal pairs classified with ``code``, sorted."""
        mask = self.outcome == code
        np.fill_diagonal(mask, False)
        xs, ys = np.nonzero(mask)
        return [(int(x), int(y)) for x, y in zip(xs, ys)]

    @property
    def feasible_count(self) -> int:
        """Ordered pairs with both endpoints alive (the outcome universe)."""
        n_alive = int(self.alive.sum())
        return n_alive * (n_alive - 1)

    @property
    def routable_count(self) -> int:
        """Feasible pairs still connected in the surviving graph.

        The denominator of :attr:`survival_rate`: an oblivious scheme can
        never deliver a physically disconnected pair, so counting those
        as failures would conflate the scheme's degradation with the
        topology's.
        """
        off = ~np.eye(self.n, dtype=bool)
        return int(((self.dist != UNREACHABLE) & off).sum())

    @property
    def delivered_count(self) -> int:
        """Number of delivered off-diagonal pairs."""
        return self.counts()["delivered"]

    @property
    def survival_rate(self) -> float:
        """Delivered fraction of the routable pairs (1.0 when none exist)."""
        routable = self.routable_count
        return self.delivered_count / routable if routable else 1.0

    # ------------------------------------------------------------------
    def _delivered_ratios(self) -> Tuple[np.ndarray, np.ndarray]:
        mask = self.outcome == PAIR_DELIVERED
        np.fill_diagonal(mask, False)
        lengths = self.lengths[mask]
        dists = self.dist[mask]
        if (dists <= 0).any():
            raise AssertionError(
                "delivered pair with non-positive surviving distance: the "
                "delivered route is a surviving path, so this cannot happen"
            )
        return lengths, dists

    def max_stretch(self) -> Fraction:
        """Exact worst stretch of the delivered routes vs surviving distances.

        ``Fraction(1)`` when nothing was delivered.  Delivered routes exist
        in the surviving graph (every hop they took was unmasked), so the
        ratio is always defined and at least 1.
        """
        lengths, dists = self._delivered_ratios()
        return _exact_max_ratio(lengths, dists)

    def mean_stretch(self) -> float:
        """Mean stretch of the delivered routes vs surviving distances."""
        lengths, dists = self._delivered_ratios()
        if not lengths.size:
            return 1.0
        return float((lengths / dists).mean())


def simulate_with_faults(
    rf: RoutingFunction,
    faults: FaultSet,
    program: Optional[RoutingProgram] = None,
    graph: Optional[PortLabeledGraph] = None,
    dist: Optional[np.ndarray] = None,
) -> FaultSimulationResult:
    """Route all feasible pairs of a fault scenario and classify every one.

    Parameters
    ----------
    rf:
        A live :class:`~repro.routing.model.RoutingFunction` — or a
        pre-compiled :class:`~repro.routing.program.RoutingProgram` directly
        (then ``graph`` is required for fault validation and surviving
        distances; a generic program cannot be executed this way).
    faults:
        The :class:`FaultSet` to apply (validated against the graph).
    program:
        A pre-compiled program for ``rf`` (e.g. from the sharded runner's
        program cache): masked and executed instead of lowering again —
        the compile-once economy of the whole subsystem.  Without one the
        routing function is lowered first
        (:func:`~repro.routing.program.compile_or_interpret`).  A generic
        program runs the engine's per-message interpreter on the live
        routing function.
    graph:
        The graph; defaults to ``rf.graph``.
    dist:
        Pre-computed surviving distances (sweep drivers cache them per
        ``(graph, faults)``); computed on demand otherwise.
    """
    if isinstance(rf, RoutingProgram):
        if program is not None:
            raise ValueError("pass the program either positionally or as program=, not both")
        program, rf = rf, None
    if rf is None and program is None:
        raise ValueError("simulate_with_faults needs a routing function or a program")
    if graph is None:
        if rf is None:
            raise ValueError("simulate_with_faults needs a graph (or a routing function)")
        graph = rf.graph
    faults.validate(graph)
    alive = faults.alive_mask(graph.n)

    if program is None:
        program = compile_or_interpret(rf)
    masked: Optional[RoutingProgram] = None
    report: Optional[VerificationReport] = None
    if isinstance(program, GenericProgram):
        if rf is None:
            raise ValueError(
                "a generic program is an opt-out marker: fault-injecting it "
                "needs the live routing function (pass rf=...)"
            )
        outcome, lengths, steps = _interpret(rf, alive, frozenset(faults.edges))
        mode = "generic-masked"
    else:
        masked = apply_faults(program, graph, faults)
        execution = execute_masked_program(masked, alive=alive)
        outcome = execution.report.outcome
        lengths, steps, mode = execution.lengths, execution.steps, execution.mode
        report = execution.report

    if dist is None:
        dist = surviving_distance_matrix(graph, faults)
    return FaultSimulationResult(
        outcome=outcome,
        lengths=lengths,
        alive=alive,
        faults=faults,
        dist=dist,
        steps=steps,
        mode=mode,
        program=masked,
        report=report,
    )
