"""Vectorized traffic/flow analysis over compiled routing programs.

Every experiment so far routes each ordered pair once; production traffic
is skewed and continuous.  This module pushes a seeded **demand matrix**
(millions of messages expressed as weighted pair counts — a single float64
array, never per-message objects) through a compiled
:class:`~repro.routing.program.RoutingProgram` and reports where the
traffic actually lands:

* per-directed-arc **load** (``edge_load[u, v]`` = messages crossing the
  arc ``u -> v``) and per-node load (messages originated at, forwarded
  through, or delivered to each vertex);
* **maximum congestion** (the most-loaded arc) — the load-balance axis the
  paper's memory/stretch trade-off is missing;
* **capacity-constrained throughput**: the uniform scaling
  ``lambda* = capacity / max_congestion`` under which no arc exceeds its
  capacity, plus an LRSIM-style per-interface free-bandwidth allocation
  (``one_iface_free_bw_allocation_only_over_isls``): each interface's
  capacity is split over the flows crossing it proportionally to demand,
  so a flow is granted ``demand * min over its path of (capacity / load)``
  — computed analytically from per-pair path bottlenecks instead of
  LRSIM's per-flow loop.

The fast path never walks hops per pair.  A next-hop program's routes
toward one destination ``d`` form a functional in-tree, and the exact hop
depth of every (destination, node) state is already known statically
(:attr:`~repro.routing.verify.VerificationReport.hops`, from the
pointer-doubling :func:`~repro.routing.program.resolve_functional`).
Ordering the flat destination-major states by that depth turns load
accumulation into layer-by-layer **subtree sums**: each layer pushes its
accumulated demand one hop down the tree with a single ``np.add.at``, and
one final ``np.bincount`` over arc codes ``u * n + v`` converts the
per-state subtree sums into arc loads.  Total scatter volume is one write
per state (``O(n^2)``) instead of one per pair-hop (``O(n^2 * avg hops)``).

The compact frontier walk (one gather per surviving pair per hop, over
pairs already known to deliver) remains available as the differential
fallback, and is the only path for header-state programs and
fault-masked views, whose delivered pairs are known from the same
verification report and therefore walk without any sentinel handling.

Both accumulators are **exact** on integer-valued demand (which the
generators always emit): every partial sum is an integer far below
``2**53``, so float64 addition is associative here and the subtree sums,
the frontier walk, and a brute-force per-pair path walk agree byte for
byte — ``tests/test_flow.py`` pins this differentially.

Minimal example — route a uniform demand matrix through a compiled
shortest-path program and read off congestion:

>>> from repro.graphs.generators import cycle_graph
>>> from repro.routing.tables import ShortestPathTableScheme
>>> from repro.analysis.flow import route_demand, uniform_demand
>>> graph = cycle_graph(6)
>>> program = ShortestPathTableScheme().build(graph).compile_program()
>>> flow = route_demand(program, uniform_demand(graph.n, total=3000.0))
>>> float(flow.delivered_fraction)
1.0
>>> float(flow.max_congestion)
600.0
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.routing.model import SchemeInapplicableError
from repro.routing.program import (
    GenericProgram,
    HeaderStateProgram,
    NextHopProgram,
    RoutingProgram,
)
from repro.routing.verify import (
    VERDICT_DELIVERED,
    VERDICT_INFEASIBLE,
    VerificationReport,
    verify_program,
)
from repro.sim.engine import SimulationResult

if TYPE_CHECKING:  # runtime imports are deferred: runner imports flow back
    from repro.analysis.runner import ExperimentCache, ShardedRunner, ShardStats
    from repro.graphs.digraph import PortLabeledGraph

__all__ = [
    "DEMAND_MODELS",
    "DemandMatrix",
    "FlowCellResult",
    "FlowResult",
    "demand_matrix",
    "demand_models",
    "flow_cell",
    "flow_sweep",
    "format_flow",
    "gravity_demand",
    "route_demand",
    "uniform_demand",
    "zipf_demand",
]

#: The demand skews every sweep crosses with the scheme x family grid.
DEMAND_MODELS: Tuple[str, ...] = ("uniform", "zipf", "gravity")

#: Default total message count of a generated matrix ("millions of
#: messages" at registry sizes: the counts are integers, see _finalize).
DEFAULT_TOTAL = 1_000_000.0


# ----------------------------------------------------------------------
# demand matrices
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DemandMatrix:
    """A seeded traffic matrix: ``demand[s, d]`` messages from ``s`` to ``d``.

    Entries are integer-valued float64 message counts (weighted pair
    counts), zero on the diagonal.  Integer values are what make the
    subtree-sum and per-pair-walk accumulators byte-identical: float64
    addition is exact on integers below ``2**53``.
    """

    demand: np.ndarray
    model: str
    seed: Optional[int]

    @property
    def n(self) -> int:
        """Number of vertices the matrix is defined over."""
        return int(self.demand.shape[0])

    @property
    def total(self) -> float:
        """Total message count over all ordered pairs."""
        return float(self.demand.sum())


def _finalize(
    weights: np.ndarray, total: float, model: str, seed: Optional[int]
) -> DemandMatrix:
    """Scale nonnegative pair weights to ``~total`` integer message counts.

    The diagonal is zeroed, the weights normalised to ``total`` and rounded
    to the nearest integer; when rounding would extinguish every pair the
    matrix degrades to one message per positive-weight pair, so a demand
    matrix is never silently empty.
    """
    w = np.array(weights, dtype=np.float64, copy=True)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"demand weights must be square, got shape {w.shape}")
    if not np.isfinite(w).all() or (w < 0).any():
        raise ValueError("demand weights must be finite and nonnegative")
    np.fill_diagonal(w, 0.0)
    mass = float(w.sum())
    if mass <= 0.0:
        raise ValueError("demand weights sum to zero: no traffic to route")
    counts = np.floor(w * (float(total) / mass) + 0.5)
    if counts.max() == 0.0:
        counts = (w > 0).astype(np.float64)
    return DemandMatrix(demand=counts, model=model, seed=seed)


def uniform_demand(
    n: int, *, total: float = DEFAULT_TOTAL, seed: Optional[int] = None
) -> DemandMatrix:
    """Every ordered off-diagonal pair sends the same message count."""
    if n < 2:
        raise ValueError(f"a demand matrix needs n >= 2 vertices, got n={n}")
    return _finalize(np.ones((n, n)), total, "uniform", seed)


def zipf_demand(
    n: int, *, total: float = DEFAULT_TOTAL, exponent: float = 1.0, seed: int = 0
) -> DemandMatrix:
    """Zipf-skewed demand: node popularity ``rank ** -exponent``.

    The seeded generator only permutes which node gets which rank, so the
    *skew profile* is a pure function of ``(n, exponent)`` and the hot
    nodes move with the seed — the product form ``pop[s] * pop[d]``
    concentrates traffic on few (source, destination) pairs the way web
    and CDN traces do.
    """
    if n < 2:
        raise ValueError(f"a demand matrix needs n >= 2 vertices, got n={n}")
    rng = np.random.default_rng(seed)
    ranks = rng.permutation(n).astype(np.float64) + 1.0
    pop = ranks ** -float(exponent)
    return _finalize(np.outer(pop, pop), total, "zipf", seed)


def gravity_demand(
    n: int,
    *,
    total: float = DEFAULT_TOTAL,
    seed: int = 0,
    dist: Optional[np.ndarray] = None,
    alpha: float = 1.0,
) -> DemandMatrix:
    """Gravity-model demand: ``mass[s] * mass[d] / distance ** alpha``.

    Node masses are seeded gamma draws (heavy-tailed city sizes); passing
    the graph's distance matrix adds the classic distance deterrence so
    nearby heavy nodes exchange the most traffic.  Unreachable pairs
    (negative distance sentinel) get zero demand.
    """
    if n < 2:
        raise ValueError(f"a demand matrix needs n >= 2 vertices, got n={n}")
    rng = np.random.default_rng(seed)
    mass = rng.gamma(shape=2.0, scale=1.0, size=n) + 1e-3
    w = np.outer(mass, mass)
    if dist is not None:
        d = np.asarray(dist, dtype=np.float64)
        if d.shape != (n, n):
            raise ValueError(f"distance matrix shape {d.shape} != ({n}, {n})")
        w = np.where(d < 0, 0.0, w / np.maximum(d, 1.0) ** float(alpha))
    return _finalize(w, total, "gravity", seed)


def demand_matrix(
    model: Union[str, DemandMatrix, np.ndarray],
    n: int,
    *,
    total: float = DEFAULT_TOTAL,
    seed: int = 0,
    dist: Optional[np.ndarray] = None,
) -> DemandMatrix:
    """Resolve a demand spec — a model name, a matrix, or a raw array.

    The hook surface of the sweeps: ``resilience_sweep(flow="zipf")`` and
    friends pass the spec through here once per cell, so a string buys a
    seeded generated matrix at the cell's own ``n`` while precomputed
    matrices pass straight through (shape-checked).
    """
    if isinstance(model, DemandMatrix):
        if model.n != n:
            raise ValueError(f"demand matrix is over n={model.n}, cell has n={n}")
        return model
    if isinstance(model, np.ndarray):
        return _finalize(model, float(np.asarray(model, dtype=np.float64).sum()), "custom", None)
    if model == "uniform":
        return uniform_demand(n, total=total)
    if model == "zipf":
        return zipf_demand(n, total=total, seed=seed)
    if model == "gravity":
        return gravity_demand(n, total=total, seed=seed, dist=dist)
    raise ValueError(
        f"unknown demand model {model!r}: expected one of {DEMAND_MODELS}, "
        "a DemandMatrix, or a raw (n, n) array"
    )


def demand_models(
    n: int,
    *,
    total: float = DEFAULT_TOTAL,
    seed: int = 0,
    dist: Optional[np.ndarray] = None,
) -> Dict[str, DemandMatrix]:
    """All registry demand skews at one ``n`` (the sweep's demand axis)."""
    return {
        name: demand_matrix(name, n, total=total, seed=seed, dist=dist)
        for name in DEMAND_MODELS
    }


# ----------------------------------------------------------------------
# the flow result
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FlowResult:
    """Where a demand matrix's traffic lands under one compiled program.

    Attributes
    ----------
    kind / n / mode:
        Program kind, vertex count, and which accumulator ran
        (``"subtree"`` for the layered subtree sums, ``"walk"`` for the
        compact frontier walk).
    model:
        The demand matrix's model name (``"uniform"`` / ``"zipf"`` /
        ``"gravity"`` / ``"custom"``).
    offered_demand / delivered_demand:
        Total demand over feasible pairs, and the subset whose pairs the
        program provably delivers.  Load counts **delivered traffic
        only** — a dropped message's walked prefix does not occupy
        capacity in this model, which is what keeps the subtree and walk
        accumulators exactly interchangeable.
    demand / delivered / lengths:
        The routed demand matrix, the delivered-pair mask, and the exact
        per-pair hop counts.  ``lengths`` **is** the verification
        report's ``hops`` array (shared, never copied): flow and verify
        consume one hop-count array per (program, mask) cell.
    edge_load:
        ``(n, n)`` float64; ``edge_load[u, v]`` is the demand crossing
        the directed arc ``u -> v`` (undirected edges carry one entry
        per direction).
    node_load:
        ``(n,)`` float64; demand originated at, forwarded through, or
        delivered to each vertex.
    path_max_load:
        ``(n, n)`` float64; the most-loaded arc on each delivered pair's
        route (0 where undelivered) — the per-flow bottleneck the
        LRSIM-style allocation divides interface capacity by.
    """

    kind: str
    n: int
    mode: str
    model: str
    offered_demand: float
    delivered_demand: float
    demand: np.ndarray
    delivered: np.ndarray
    lengths: np.ndarray
    edge_load: np.ndarray
    node_load: np.ndarray
    path_max_load: np.ndarray

    # ------------------------------------------------------------------
    @property
    def delivered_fraction(self) -> float:
        """Demand-weighted delivered fraction of the offered traffic."""
        if self.offered_demand <= 0.0:
            return 1.0
        return self.delivered_demand / self.offered_demand

    @property
    def max_congestion(self) -> float:
        """Load of the most-loaded directed arc."""
        return float(self.edge_load.max()) if self.edge_load.size else 0.0

    @property
    def max_node_load(self) -> float:
        """Load of the most-loaded vertex."""
        return float(self.node_load.max()) if self.node_load.size else 0.0

    def weighted_mean_hops(self) -> float:
        """Demand-weighted mean route length of the delivered traffic."""
        if self.delivered_demand <= 0.0:
            return 0.0
        routed = np.where(self.delivered, self.demand, 0.0)
        return float((routed * self.lengths).sum() / self.delivered_demand)

    # ------------------------------------------------------------------
    def uniform_scale(self, capacity: float = 1.0) -> float:
        """Largest ``lambda`` with ``lambda * load <= capacity`` on every arc.

        ``inf`` when nothing is loaded: an empty network admits any
        scaling.
        """
        peak = self.max_congestion
        return float(capacity) / peak if peak > 0.0 else float("inf")

    def uniform_throughput(self, capacity: float = 1.0) -> float:
        """Delivered demand under the uniform-capacity scaling ``lambda*``."""
        scale = self.uniform_scale(capacity)
        if not np.isfinite(scale):
            return 0.0
        return self.delivered_demand * scale

    def allocated_throughput(self, capacity: float = 1.0) -> float:
        """LRSIM-style per-interface free-bandwidth allocation.

        Each interface's capacity is split over the flows crossing it
        proportionally to their demand, and a flow is granted its
        worst-interface share: ``demand * min over the path of
        (capacity / load) = demand * capacity / path_max_load``.  Summing
        over delivered flows reproduces
        ``one_iface_free_bw_allocation_only_over_isls`` analytically —
        one vectorised expression instead of a loop over every flow.
        Always at least :meth:`uniform_throughput`, since a flow's own
        bottleneck is never more loaded than the global maximum.
        """
        mask = self.delivered & (self.demand > 0.0)
        if not bool(mask.any()):
            return 0.0
        share = self.demand[mask] / self.path_max_load[mask]
        return float(capacity) * float(share.sum())

    # ------------------------------------------------------------------
    def as_simulation_result(self) -> SimulationResult:
        """A :class:`SimulationResult` view sharing this flow's hop counts.

        Only defined when every feasible pair delivered (the hop-count
        conventions of the verifier and the executor agree exactly
        there); the returned result's ``lengths`` is this flow's array,
        not a copy.
        """
        off = ~np.eye(self.n, dtype=bool)
        if not bool(self.delivered[off].all()):
            raise ValueError(
                "as_simulation_result needs a fully-delivering cell: the "
                "executor's lengths convention (-1 for lost pairs) diverges "
                "from the verifier's walked-prefix convention otherwise"
            )
        mode = "header-compiled" if self.kind == "header-state" else "compiled"
        return SimulationResult.from_lengths(self.lengths, mode=mode)


# ----------------------------------------------------------------------
# subtree-sum fast path (unmasked next-hop programs)
# ----------------------------------------------------------------------
def _subtree_loads(
    program: NextHopProgram,
    routed: np.ndarray,
    delivered: np.ndarray,
    lengths: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Accumulate loads as layered subtree sums over the in-trees.

    ``routed`` is the demand matrix already zeroed outside the delivered
    pairs.  Flat destination-major states ``d * n + c`` are bucketed by
    ``lengths[c, d] + 1`` (bucket 0 collects every undelivered state, so
    no subset gather is ever needed: undelivered states carry zero weight
    and their clipped arc codes contribute nothing); processing layers
    deepest first pushes each state's accumulated subtree demand one hop
    down with a single ``np.add.at`` per layer (a parent is exactly one
    layer shallower than its children, so its own push happens only after
    every child's arrived).  After the pushes, ``acc[state]`` is the full
    demand of the state's subtree — the load on its outgoing arc — so one
    ``np.bincount`` over arc codes materialises every arc load, node
    loads are a reshape-sum, and a second ascending pass propagates the
    per-path bottleneck (max arc load en route) top-down.  Diagonal
    states accumulate each destination's arrived traffic; they are zeroed
    after the node sums so arrival mass never loads a phantom self-arc.

    Index codes fit int32 whenever ``n * n`` does and depths fit int16
    whenever ``n`` does (a delivered walk is shorter than ``n``), which
    keeps the argsort and the gathers in narrow integers at every
    realistic size.
    """
    n = program.n
    idx_t = np.int32 if n * n <= np.iinfo(np.int32).max else np.int64
    sort_t = np.int16 if n <= np.iinfo(np.int16).max else np.int64
    acc = np.ascontiguousarray(routed.T).ravel()  # acc[d * n + c] = routed[c, d]
    depth = np.where(delivered.T, lengths.T + 1, 0).astype(sort_t).ravel()
    # Sentinel transitions (undelivered states) clip to node 0: their
    # weight is identically zero, so the fabricated codes are inert.
    nxt = np.maximum(program.next_node.T, 0).astype(idx_t)
    rows = np.arange(n, dtype=idx_t)[:, None]
    cols = np.arange(n, dtype=idx_t)[None, :]
    succ = (rows * n + nxt).ravel()  # same-destination next state
    arc = (cols * n + nxt).ravel()  # directed edge (cur, nxt)
    order = np.argsort(depth, kind="stable")
    succ_o = succ[order]
    arc_o = arc[order]
    bounds = np.concatenate(([0], np.cumsum(np.bincount(depth))))
    for layer in range(len(bounds) - 2, 1, -1):
        lo, hi = int(bounds[layer]), int(bounds[layer + 1])
        if lo < hi:
            np.add.at(acc, succ_o[lo:hi], acc[order[lo:hi]])
    node_load = acc.reshape(n, n).sum(axis=0)
    acc[:: n + 1] = 0.0  # diagonal states d * n + d: arrived traffic
    edge_load = np.bincount(arc, weights=acc, minlength=n * n)
    bottleneck = np.zeros(n * n, dtype=np.float64)
    for layer in range(2, len(bounds) - 1):
        lo, hi = int(bounds[layer]), int(bounds[layer + 1])
        if lo < hi:
            idx = order[lo:hi]
            bottleneck[idx] = np.maximum(
                edge_load[arc_o[lo:hi]], bottleneck[succ_o[lo:hi]]
            )
    path_max = np.ascontiguousarray(bottleneck.reshape(n, n).T)
    return edge_load.reshape(n, n), node_load, path_max


# ----------------------------------------------------------------------
# compact frontier walk (header-state + fault-masked + differential)
# ----------------------------------------------------------------------
def _next_hop_steps(
    program: NextHopProgram, pairs: np.ndarray, hop_budget: np.ndarray
) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Yield ``(frontier positions, arc codes, head nodes)`` per hop.

    The frontier only ever holds delivered pairs with remaining budget,
    so every gathered transition is a real node — no sentinel handling.
    """
    n = program.n
    cur = (pairs // n).astype(np.int64)
    dst = (pairs % n).astype(np.int64)
    remaining = hop_budget.copy()
    idx = np.arange(pairs.size, dtype=np.int64)
    while idx.size:
        nxt = program.next_node[cur, dst].astype(np.int64)
        yield idx, cur * n + nxt, nxt
        remaining -= 1
        keep = remaining > 0
        idx = idx[keep]
        cur = nxt[keep]
        dst = dst[keep]
        remaining = remaining[keep]


def _header_state_steps(
    program: HeaderStateProgram, pairs: np.ndarray, hop_budget: np.ndarray
) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The header-state twin of :func:`_next_hop_steps` (state frontier)."""
    n = program.n
    node_of = program.node_of.astype(np.int64)
    src = (pairs // n).astype(np.int64)
    dst = (pairs % n).astype(np.int64)
    cur = program.initial[src, dst].astype(np.int64)
    remaining = hop_budget.copy()
    idx = np.arange(pairs.size, dtype=np.int64)
    while idx.size:
        nxt = program.succ[cur].astype(np.int64)
        yield idx, node_of[cur] * n + node_of[nxt], node_of[nxt]
        remaining -= 1
        keep = remaining > 0
        idx = idx[keep]
        cur = nxt[keep]
        remaining = remaining[keep]


def _walk_loads(
    program: RoutingProgram,
    routed: np.ndarray,
    delivered: np.ndarray,
    lengths: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Accumulate loads by walking the delivered frontier hop by hop.

    The differential fallback for the subtree fast path, and the only
    accumulator for header-state programs and fault-masked views.  Two
    passes: the first scatters demand onto every traversed arc and node,
    the second replays the same walk to record each pair's bottleneck
    (max arc load en route) once the loads are complete.
    """
    n = program.n
    edge_load = np.zeros(n * n, dtype=np.float64)
    node_load = np.zeros(n, dtype=np.float64)
    path_max = np.zeros(n * n, dtype=np.float64)
    pairs = np.flatnonzero(delivered.ravel())
    if pairs.size:
        weights = routed.ravel()[pairs]
        budget = lengths.ravel()[pairs].astype(np.int64)
        np.add.at(node_load, pairs // n, weights)  # the origination visit
        for idx, arc, heads in _program_steps(program, pairs, budget):
            np.add.at(edge_load, arc, weights[idx])
            np.add.at(node_load, heads, weights[idx])
        bneck = np.zeros(pairs.size, dtype=np.float64)
        for idx, arc, _ in _program_steps(program, pairs, budget):
            bneck[idx] = np.maximum(bneck[idx], edge_load[arc])
        path_max[pairs] = bneck
    return edge_load.reshape(n, n), node_load, path_max.reshape(n, n)


def _program_steps(
    program: RoutingProgram, pairs: np.ndarray, budget: np.ndarray
) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    if isinstance(program, NextHopProgram):
        return _next_hop_steps(program, pairs, budget)
    assert isinstance(program, HeaderStateProgram)
    return _header_state_steps(program, pairs, budget)


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def route_demand(
    program: RoutingProgram,
    demand: Union[DemandMatrix, np.ndarray],
    *,
    alive: Optional[np.ndarray] = None,
    report: Optional[VerificationReport] = None,
    path: str = "auto",
) -> FlowResult:
    """Push a demand matrix through a compiled program.

    ``report`` accepts a precomputed :func:`verify_program` result so a
    cell computes its hop-count array once and shares it between flow and
    verification (the returned :attr:`FlowResult.lengths` is that array);
    when omitted it is computed here (with ``alive`` forwarded).  ``path``
    selects the accumulator: ``"auto"`` takes the subtree fast path for
    unmasked next-hop programs and the frontier walk everywhere else;
    ``"subtree"`` / ``"walk"`` force one (``"subtree"`` is only defined
    for unmasked next-hop programs — fault-masked and header-state
    traffic always walks).  Generic programs carry no transition arrays
    to aggregate over and raise.
    """
    if isinstance(program, GenericProgram):
        raise ValueError(
            "a generic program has no transition arrays to aggregate demand "
            "over; compile the scheme to a next-hop or header-state program"
        )
    dm = (
        demand
        if isinstance(demand, DemandMatrix)
        else DemandMatrix(
            demand=np.asarray(demand, dtype=np.float64), model="custom", seed=None
        )
    )
    n = program.n
    if dm.demand.shape != (n, n):
        raise ValueError(
            f"demand matrix shape {dm.demand.shape} does not match the "
            f"program's n={n}"
        )
    if not np.isfinite(dm.demand).all() or (dm.demand < 0).any():
        raise ValueError("demand must be finite and nonnegative")
    if report is None:
        report = verify_program(program, alive=alive)
    elif report.n != n:
        raise ValueError(f"report is over n={report.n}, program has n={n}")
    masked = report.masked or alive is not None
    if path == "auto":
        mode = "subtree" if isinstance(program, NextHopProgram) and not masked else "walk"
    elif path in ("subtree", "walk"):
        mode = path
        if mode == "subtree" and not (isinstance(program, NextHopProgram) and not masked):
            raise ValueError(
                "the subtree accumulator is only defined for unmasked "
                "next-hop programs; header-state and fault-masked traffic "
                "goes through the frontier walk"
            )
    else:
        raise ValueError(f"unknown path {path!r}: expected auto, subtree, or walk")
    delivered = report.outcome == VERDICT_DELIVERED
    routed = np.where(delivered, dm.demand, 0.0)
    if mode == "subtree":
        assert isinstance(program, NextHopProgram)
        edge_load, node_load, path_max = _subtree_loads(
            program, routed, delivered, report.hops
        )
    else:
        edge_load, node_load, path_max = _walk_loads(
            program, routed, delivered, report.hops
        )
    feasible = report.outcome != VERDICT_INFEASIBLE
    return FlowResult(
        kind=program.kind,
        n=n,
        mode=mode,
        model=dm.model,
        offered_demand=float(np.where(feasible, dm.demand, 0.0).sum()),
        delivered_demand=float(routed.sum()),
        demand=dm.demand,
        delivered=delivered,
        lengths=report.hops,
        edge_load=edge_load,
        node_load=node_load,
        path_max_load=path_max,
    )


# ----------------------------------------------------------------------
# the sweep cell + driver
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FlowCellResult:
    """Flow metrics of one (scheme, family, demand model) cell."""

    scheme: str
    family: str
    demand_model: str
    n: int
    kind: str
    mode: str
    offered: float
    delivered_fraction: float
    max_congestion: float
    max_node_load: float
    mean_hops: float
    uniform_throughput: float
    allocated_throughput: float


def flow_cell(
    scheme: object,
    graph: "PortLabeledGraph",
    family: str,
    label: str,
    models: Sequence[str],
    cache: "ExperimentCache",
    *,
    demand_seed: int = 0,
    total: float = DEFAULT_TOTAL,
) -> List[FlowCellResult]:
    """All demand models of one (scheme, graph) cell off one cached compile.

    The cell fetches its compiled program from the shared cache
    (:func:`~repro.analysis.runner.cached_program` semantics), verifies it
    **once**, and routes every demand skew against that single hop-count
    array — the lengths-sharing economy the sweep is built around.
    Generic programs decline the cell (nothing to aggregate over).
    """
    from repro.analysis.runner import _cached_program_with_rf, cached_distance_matrix

    program, _ = _cached_program_with_rf(scheme, graph, cache)
    if isinstance(program, GenericProgram):
        raise SchemeInapplicableError(
            "generic programs carry no transition arrays to aggregate demand over"
        )
    report = verify_program(program)
    dist = cached_distance_matrix(graph, cache)
    rows: List[FlowCellResult] = []
    for name in models:
        dm = demand_matrix(name, graph.n, total=total, seed=demand_seed, dist=dist)
        flow = route_demand(program, dm, report=report)
        rows.append(
            FlowCellResult(
                scheme=label,
                family=family,
                demand_model=dm.model,
                n=graph.n,
                kind=program.kind,
                mode=flow.mode,
                offered=flow.offered_demand,
                delivered_fraction=flow.delivered_fraction,
                max_congestion=flow.max_congestion,
                max_node_load=flow.max_node_load,
                mean_hops=flow.weighted_mean_hops(),
                uniform_throughput=flow.uniform_throughput(),
                allocated_throughput=flow.allocated_throughput(),
            )
        )
    return rows


def flow_sweep(
    runner: Optional["ShardedRunner"] = None,
    schemes: Optional[Dict[str, object]] = None,
    families: Optional[Dict[str, "PortLabeledGraph"]] = None,
    size: str = "medium",
    seed: int = 0,
    models: Sequence[str] = DEMAND_MODELS,
    demand_seed: int = 0,
    total: float = DEFAULT_TOTAL,
) -> Tuple[List[FlowCellResult], List[Tuple[str, str]], "ShardStats"]:
    """The flow experiment: registry grid x demand skews.

    Thin driver over :meth:`repro.analysis.runner.ShardedRunner.flow_sweep`
    (an in-memory serial runner is created when none is passed).  Returns
    ``(cells, skipped, stats)``: per-(scheme, family, demand model) rows,
    the cells the schemes declined, and the run's cache/compile hit rates.
    """
    from repro.analysis.runner import ShardedRunner

    if runner is None:
        runner = ShardedRunner(cache_dir=None, processes=1)
    return runner.flow_sweep(
        schemes=schemes,
        families=families,
        size=size,
        seed=seed,
        models=models,
        demand_seed=demand_seed,
        total=total,
    )


def format_flow(cells: Sequence[FlowCellResult]) -> str:
    """Fixed-width text table of the flow grid (benchmark output)."""
    lines = [
        f"{'scheme':<22} {'family':<14} {'demand':<8} {'mode':<7} "
        f"{'deliv':>6} {'maxload':>10} {'hops':>6} {'thru(u)':>9} {'thru(a)':>9}"
    ]
    for cell in cells:
        lines.append(
            f"{cell.scheme:<22} {cell.family:<14} {cell.demand_model:<8} "
            f"{cell.mode:<7} {cell.delivered_fraction:>6.3f} "
            f"{cell.max_congestion:>10.0f} {cell.mean_hops:>6.2f} "
            f"{cell.uniform_throughput:>9.2f} {cell.allocated_throughput:>9.2f}"
        )
    return "\n".join(lines)
