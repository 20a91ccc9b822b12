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

Flow never walks hops per pair.  Every compiled program is a functional
state graph — flat destination-major ``(destination, node)`` states of a
next-hop program (one in-tree per destination), or the interned
``(node, header)`` states of a header-state program — and the exact hop
depth of every state is already known statically
(:attr:`~repro.routing.verify.VerificationReport.state_hops`, from the
pointer-doubling :func:`~repro.routing.program.resolve_functional`).
Injecting each delivered pair's demand at its start state and ordering
the states by depth turns load accumulation into layer-by-layer
**subtree sums**: each layer pushes its accumulated demand one hop down
with one ``np.bincount`` over its contiguous slice of layer-local
successor ranks, and one final ``np.bincount`` over arc codes
``u * n + v`` converts the per-state sums into arc loads.  Total scatter
volume is one write per state instead of one per pair-hop
(``O(n^2 * avg hops)``).  The depth order, the local ranks, the arc codes
and the start ranks do not depend on the demand: a :class:`FlowPlan`
holds them for one (program, report) cell, so a cell routing several
demand models lays its states out once.  Fault-masked views need nothing
extra: a state whose walk ends at a ``DROPPED`` successor is on no
delivered route, so it carries zero weight.  This is RouteFlow's
parent/children ``Path`` load sum, vectorised.

The accumulator is **exact** on integer-valued demand (which the
generators always emit): every partial sum is an integer far below
``2**53``, so float64 addition is associative here and the per-layer
bincounts, a per-hop frontier walk and a brute-force per-pair path walk
agree byte for byte — ``tests/test_flow.py`` pins this differentially
against both walks (kept as oracles in ``tests/``).

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

from dataclasses import InitVar, dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.graphs.shortest_paths import distance_matrix
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
    resolve_fates,
)

if TYPE_CHECKING:  # runtime imports are deferred: runner imports flow back
    from repro.analysis.runner import ExperimentCache
    from repro.graphs.digraph import PortLabeledGraph

__all__ = [
    "DEMAND_MODELS",
    "DemandMatrix",
    "FlowCellResult",
    "FlowPlan",
    "FlowResult",
    "demand_matrix",
    "demand_models",
    "flow_cell",
    "format_flow",
    "graph_demand",
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

    The hook surface of the sweeps: a string buys a seeded generated
    matrix at the cell's own ``n`` while precomputed matrices pass
    straight through (shape-checked).  Sweep cells call it through
    :func:`graph_demand`, which generates a named model once per graph
    snapshot.
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


def graph_demand(
    graph: "PortLabeledGraph",
    model: Union[str, DemandMatrix, np.ndarray],
    *,
    total: float = DEFAULT_TOTAL,
    seed: int = 0,
) -> DemandMatrix:
    """:func:`demand_matrix` over ``graph``, generated once per graph snapshot.

    A named model's matrix is memoised on
    :attr:`~repro.graphs.digraph.PortLabeledGraph.derived`, keyed by
    ``(model, total, seed)``, its integer counts in the narrowest unsigned
    dtype that holds them exactly; every read returns a fresh float64
    :class:`DemandMatrix`.  Gravity reads the graph's distances, so a
    mutated copy gets its own matrix.  A :class:`DemandMatrix` or a raw
    array passes through :func:`demand_matrix` unmemoised.
    """
    if not isinstance(model, str):
        return demand_matrix(model, graph.n, total=total, seed=seed)
    memo = graph.derived.demands
    key = (model, total, seed)
    if key not in memo:
        dist = distance_matrix(graph) if model == "gravity" else None
        dm = demand_matrix(model, graph.n, total=total, seed=seed, dist=dist)
        dtype = np.min_scalar_type(int(dm.demand.max()))
        counts = dm.demand.astype(dtype) if dtype.kind == "u" else dm.demand
        memo[key] = (counts, dm.seed)
    counts, dm_seed = memo[key]
    return DemandMatrix(demand=counts.astype(np.float64), model=model, seed=dm_seed)


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
        Program kind, vertex count, and which accumulator ran — always
        ``"subtree"`` (the layered subtree sums cover every next-hop and
        header-state program, masked or not; the field keeps flow rows'
        schema stable).
    model:
        The demand matrix's model name (``"uniform"`` / ``"zipf"`` /
        ``"gravity"`` / ``"custom"``).
    offered_demand / delivered_demand:
        Total demand over feasible pairs, and the subset whose pairs the
        program provably delivers.  Load counts **delivered traffic
        only** — a dropped message's walked prefix does not occupy
        capacity in this model, so a state off every delivered route
        carries no weight in the subtree sums.
    demand / delivered / routed / lengths:
        The routed demand matrix, the delivered-pair mask, the demand over
        delivered pairs (``0.0`` elsewhere) that the route injected, and
        the exact per-pair hop counts.  ``delivered`` is the plan's mask,
        shared by every result it routes, and ``lengths`` **is** the
        verification report's ``hops`` array (shared, never copied): flow
        and verify consume one hop-count array per (program, mask) cell.
    edge_load:
        ``(n, n)`` float64; ``edge_load[u, v]`` is the demand crossing
        the directed arc ``u -> v`` (undirected edges carry one entry
        per direction).
    plan:
        The :class:`FlowPlan` that routed the demand (an init-only
        argument, not a field): :attr:`node_load` and
        :attr:`path_max_load` are computed from it on first read.
    """

    kind: str
    n: int
    mode: str
    model: str
    offered_demand: float
    delivered_demand: float
    demand: np.ndarray
    delivered: np.ndarray
    routed: np.ndarray
    lengths: np.ndarray
    edge_load: np.ndarray
    plan: InitVar["FlowPlan"]

    def __post_init__(self, plan: "FlowPlan") -> None:
        object.__setattr__(self, "_plan", plan)

    @cached_property
    def node_load(self) -> np.ndarray:
        """``(n,)`` float64; demand originated at, forwarded through, or
        delivered to each vertex.

        Computed on first read: the traffic leaving a node (its arc loads'
        row sum) plus the traffic delivered to it (its demand column over
        delivered pairs) — a delivered walk stops only at its destination.
        """
        return self.edge_load.sum(axis=1) + self.routed.sum(axis=0)

    @cached_property
    def path_max_load(self) -> np.ndarray:
        """``(n, n)`` float64; the most-loaded arc on each delivered pair's
        route (0 where undelivered) — the per-flow bottleneck the
        LRSIM-style allocation divides interface capacity by.

        Computed on first read (:meth:`FlowPlan.bottlenecks`); only
        :meth:`allocated_throughput` reads it.
        """
        plan: FlowPlan = getattr(self, "_plan")
        return plan.bottlenecks(self.edge_load, self.delivered)

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
        return float((self.routed * self.lengths).sum() / self.delivered_demand)

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


# ----------------------------------------------------------------------
# the subtree-sum accumulator
# ----------------------------------------------------------------------
_GENERIC_REFUSAL = (
    "a generic program has no transition arrays to aggregate demand over; "
    "compile the scheme to a next-hop or header-state program"
)


def _as_demand(demand: Union[DemandMatrix, np.ndarray], n: int) -> DemandMatrix:
    """The demand as a validated ``(n, n)`` :class:`DemandMatrix`."""
    dm = (
        demand
        if isinstance(demand, DemandMatrix)
        else DemandMatrix(
            demand=np.asarray(demand, dtype=np.float64), model="custom", seed=None
        )
    )
    if dm.demand.shape != (n, n):
        raise ValueError(
            f"demand matrix shape {dm.demand.shape} does not match the "
            f"program's n={n}"
        )
    if not (np.isfinite(dm.demand).all() and dm.demand.min() >= 0):
        raise ValueError("demand must be finite and nonnegative")
    return dm


class FlowPlan:
    """The demand-independent half of routing demand through one program.

    Built from a compiled program and its
    :class:`~repro.routing.verify.VerificationReport`, a plan lays the
    program's functional state graph out once: the states in stable depth
    order (``report.state_hops + 1``, so layer 0 holds the states whose
    walk cycles and layer 1 the stopping states) with the layer bounds,
    each state's successor as a rank local to the layer one hop shallower,
    the directed-arc code ``u * n + v`` of each state's outgoing hop in
    that same order, and each pair's start rank.  A
    next-hop program's states are the flat destination-major ``d * n + c``
    (pair ``(s, d)`` starts at ``d * n + s``); a header-state program's
    are its interned states (pair ``(s, d)`` starts at ``initial[s, d]``,
    and pairs may share one).  Sentinel successors clip to state / node 0:
    such states are on no delivered route, so the fabricated codes only
    ever carry zero weight.

    :meth:`route` then costs a handful of contiguous passes per demand
    matrix, so a cell routing several demand models pays for the layout
    once.  The layout is built on the first :meth:`route` and lives as
    long as the plan, which every :class:`FlowResult` it routed holds for
    its on-first-read loads; nothing is cached on the program or the
    report.
    Index arrays are ``np.intp``: ``np.bincount`` and fancy indexing
    convert a narrower index to it on every call, so the plan converts
    once.  The depth key is sorted in the narrowest unsigned dtype that
    holds the deepest layer (``np.min_scalar_type``: one byte below 255
    hops), the layer bounds are the running sum of its ``np.bincount``,
    and a next-hop state's node is its flat id modulo ``n``.  The
    delivered and feasible pair masks are computed once per plan, and
    each :class:`FlowResult` holds the demand its route injected
    (:attr:`FlowResult.routed`), so its loads never re-mask the demand.
    """

    def __init__(self, program: RoutingProgram, report: VerificationReport) -> None:
        if isinstance(program, GenericProgram):
            raise ValueError(_GENERIC_REFUSAL)
        if report.n != program.n:
            raise ValueError(f"report is over n={report.n}, program has n={program.n}")
        self.program = program
        self.report = report

    @cached_property
    def _layout(self) -> Tuple[List[int], np.ndarray, np.ndarray, np.ndarray]:
        """``(bounds, local, arc, start)`` in stable depth order.

        Built in place where it can be, and each scratch array is dropped
        as soon as it is spent: the layout is the peak allocation of a
        route, several ``n * n`` index arrays at once.
        """
        program, state_hops = self.program, self.report.state_hops
        n = program.n
        top = int(state_hops.max()) + 1
        depth = state_hops.astype(np.min_scalar_type(top))
        depth += 1  # NO_ROUTE (-1) wraps to layer 0
        order = np.argsort(depth, kind="stable")
        bounds = [0, *np.cumsum(np.bincount(depth, minlength=max(top, 1) + 1)).tolist()]
        del depth
        rank = np.empty(state_hops.size, dtype=np.intp)
        rank[order] = np.arange(state_hops.size, dtype=np.intp)
        if isinstance(program, NextHopProgram):
            nxt = np.ascontiguousarray(program.next_node.T).ravel()[order].astype(np.intp)
            np.maximum(nxt, 0, out=nxt)
            arc = order % n  # each state's node
            succ = order  # same destination, next node: order - node + nxt
            succ -= arc
            succ += nxt
            arc *= n
            arc += nxt
            del nxt
            start = np.ascontiguousarray(rank.reshape(n, n).T)
        else:
            assert isinstance(program, HeaderStateProgram)
            node_of = program.node_of.astype(np.intp)
            succ = np.maximum(program.succ, 0).astype(np.intp)[order]
            arc = node_of[order]
            del order
            arc *= n
            arc += node_of[succ]
            del node_of
            start = rank[np.where(self._delivered, program.initial, 0)]
        local = rank[succ]
        for layer in range(2, len(bounds) - 1):
            local[bounds[layer] : bounds[layer + 1]] -= bounds[layer - 1]
        return bounds, local, arc, start

    @cached_property
    def _delivered(self) -> np.ndarray:
        """``(n, n)`` bool; the pairs the report proves delivered."""
        return self.report.outcome == VERDICT_DELIVERED

    @cached_property
    def _feasible(self) -> np.ndarray:
        """``(n, n)`` bool; the pairs whose demand counts as offered."""
        return self.report.outcome != VERDICT_INFEASIBLE

    def route(self, demand: Union[DemandMatrix, np.ndarray]) -> FlowResult:
        """Push one demand matrix through the plan's program.

        Each delivered pair's demand is injected at its start state.
        Processing layers deepest first, each layer's accumulated demand
        moves one hop down with one ``np.bincount`` over its contiguous
        slice of local successor ranks, added into the slice of the layer
        above (a successor is exactly one layer shallower, so its own push
        happens only after every predecessor's arrived).  After the pushes
        a state's accumulator is the full demand passing through it — the
        load on its outgoing arc — so, once the stopping states' arrived
        traffic is zeroed, one ``np.bincount`` over arc codes materialises
        every arc load.  Node loads and per-path bottlenecks are left to
        the result's first read (:attr:`FlowResult.node_load`,
        :meth:`bottlenecks`).
        """
        program, report = self.program, self.report
        n = program.n
        dm = _as_demand(demand, n)
        delivered = self._delivered
        routed = np.where(delivered, dm.demand, 0.0)
        if not report.state_hops.size:  # a header-state program over n = 1 has no states
            edge_load = np.zeros((n, n))
        else:
            bounds, local, arc, start = self._layout
            acc = np.bincount(start.ravel(), weights=routed.ravel(), minlength=local.size)
            for layer in range(len(bounds) - 2, 1, -1):
                prev, lo, hi = bounds[layer - 1], bounds[layer], bounds[layer + 1]
                acc[prev:lo] += np.bincount(local[lo:hi], weights=acc[lo:hi], minlength=lo - prev)
            acc[: bounds[2]] = 0.0  # arrived traffic, or a state off every route
            edge_load = np.bincount(arc, weights=acc, minlength=n * n).reshape(n, n)
        return FlowResult(
            kind=program.kind,
            n=n,
            mode="subtree",
            model=dm.model,
            offered_demand=float(np.sum(dm.demand, where=self._feasible)),
            delivered_demand=float(routed.sum()),
            demand=dm.demand,
            delivered=delivered,
            routed=routed,
            lengths=report.hops,
            edge_load=edge_load,
            plan=self,
        )

    def bottlenecks(self, edge_load: np.ndarray, delivered: np.ndarray) -> np.ndarray:
        """Per-pair path bottleneck (max arc load en route) under ``edge_load``.

        The arc loads are gathered once in plan order; one ascending pass
        then takes each layer's maximum with its successors' bottlenecks
        in place, from the stopping states upwards.  ``delivered`` masks
        the pairs whose bottleneck is read (0 elsewhere).
        """
        n = self.program.n
        if not self.report.state_hops.size:
            return np.zeros((n, n))
        bounds, local, arc, start = self._layout
        bottleneck = edge_load.ravel()[arc]
        bottleneck[: bounds[2]] = 0.0  # a stopping or cycling state has no hop ahead
        for layer in range(2, len(bounds) - 1):
            prev, lo, hi = bounds[layer - 1], bounds[layer], bounds[layer + 1]
            np.maximum(
                bottleneck[lo:hi], bottleneck[prev:lo][local[lo:hi]], out=bottleneck[lo:hi]
            )
        return np.where(delivered, bottleneck[start], 0.0)


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def route_demand(
    program: Union[RoutingProgram, FlowPlan],
    demand: Union[DemandMatrix, np.ndarray],
    *,
    report: Optional[VerificationReport] = None,
) -> FlowResult:
    """Push a demand matrix through a compiled program.

    ``report`` accepts a precomputed
    :func:`~repro.routing.verify.resolve_fates` /
    :func:`~repro.routing.verify.verify_program` result so a cell computes
    its hop-count array once and shares it between flow and verification
    (the returned :attr:`FlowResult.lengths` is that array); when omitted
    it is ``resolve_fates(program)``.  Under a fault scenario pass
    ``report=resolve_fates(program, alive)``: the report's infeasible
    pairs are what keeps dead-endpoint demand from counting as offered.
    Every next-hop and header-state program, fault-masked or not, goes
    through the one subtree-sum accumulator: this builds a
    :class:`FlowPlan` and routes it once.  ``program`` may instead be a
    :class:`FlowPlan` already built for the cell (it carries its own
    report, so ``report`` must then be omitted): a cell routing several
    demand matrices shares one plan.  Generic programs carry no
    transition arrays to aggregate over and raise.
    """
    if isinstance(program, FlowPlan):
        if report is not None:
            raise ValueError("a FlowPlan carries its own report: drop report=")
        return program.route(demand)
    if isinstance(program, GenericProgram):
        raise ValueError(_GENERIC_REFUSAL)
    if report is None:
        report = resolve_fates(program)
    return FlowPlan(program, report).route(demand)


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
    (:func:`~repro.analysis.runner.cached_program` semantics), resolves
    its fates **once** (:func:`~repro.routing.verify.resolve_fates`; a
    structurally corrupt program raises
    :class:`~repro.routing.verify.ProgramVerificationError`), and routes
    every demand skew against that single hop-count array — the
    lengths-sharing economy the sweep is built around.  Each demand
    matrix comes from :func:`graph_demand`, generated once per graph
    snapshot and shared by every scheme of the family.
    Generic programs decline the cell (nothing to aggregate over).
    """
    from repro.analysis.runner import cached_program

    program, _ = cached_program(scheme, graph, cache)
    if isinstance(program, GenericProgram):
        raise SchemeInapplicableError(
            "generic programs carry no transition arrays to aggregate demand over"
        )
    plan = FlowPlan(program, resolve_fates(program))
    rows: List[FlowCellResult] = []
    for name in models:
        dm = graph_demand(graph, name, total=total, seed=demand_seed)
        flow = route_demand(plan, dm)
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
