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
with a single ``np.add.at``, and one final ``np.bincount`` over arc codes ``u * n + v``
converts the per-state sums into arc loads.  Total scatter volume is one
write per state instead of one per pair-hop (``O(n^2 * avg hops)``).
Fault-masked views need nothing extra: a state whose walk ends at a
``DROPPED`` successor is on no delivered route, so it carries zero weight.
This is RouteFlow's parent/children ``Path`` load sum, vectorised.

The accumulator is **exact** on integer-valued demand (which the
generators always emit): every partial sum is an integer far below
``2**53``, so float64 addition is associative here and the subtree sums,
a per-hop frontier walk and a brute-force per-pair path walk agree byte
for byte — ``tests/test_flow.py`` pins this differentially against both
walks (kept as oracles in ``tests/``).

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
    "FlowResult",
    "demand_matrix",
    "demand_models",
    "flow_cell",
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

    The hook surface of the sweeps: ``flow="zipf"`` on the runner's
    resilience and churn sweeps pass the spec through here once per cell, so a string buys a
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


# ----------------------------------------------------------------------
# the subtree-sum accumulator
# ----------------------------------------------------------------------
def _state_graph(
    program: RoutingProgram, routed: np.ndarray, delivered: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The program's functional state graph, with the demand injected.

    Returns ``(acc, succ, arc, start)``: per-state injected demand (each
    delivered pair's ``routed`` demand at its start state), each state's
    successor, the directed-arc code ``u * n + v`` of its outgoing hop, and
    the ``(n, n)`` start state of every pair (meaningful where
    ``delivered``).  A next-hop program has the flat destination-major
    states ``d * n + c`` (pair ``(s, d)`` starts at ``d * n + s``, so
    injection is a transpose); a header-state program has its interned
    states (pair ``(s, d)`` starts at ``initial[s, d]``).  Sentinel
    successors clip to state / node 0: such states are on no delivered
    route, so the fabricated codes only ever carry zero weight.
    """
    n = program.n
    if isinstance(program, NextHopProgram):
        idx_t = np.int32 if n * n <= np.iinfo(np.int32).max else np.int64
        nxt = np.maximum(program.next_node.T, 0).astype(idx_t)
        rows = np.arange(n, dtype=idx_t)[:, None]
        cols = np.arange(n, dtype=idx_t)[None, :]
        succ = (rows * n + nxt).ravel()  # same-destination next state
        arc = (cols * n + nxt).ravel()  # directed edge (cur, nxt)
        acc = np.ascontiguousarray(routed.T).ravel()  # acc[d * n + c] = routed[c, d]
        return acc, succ, arc, np.arange(n * n, dtype=idx_t).reshape(n, n).T
    assert isinstance(program, HeaderStateProgram)
    size = max(n * n, program.num_states)
    idx_t = np.int32 if size <= np.iinfo(np.int32).max else np.int64
    succ = np.maximum(program.succ, 0).astype(idx_t)
    node_of = program.node_of.astype(idx_t)
    start = np.where(delivered, program.initial, 0).astype(idx_t)
    acc = np.bincount(start.ravel(), weights=routed.ravel(), minlength=program.num_states)
    return acc, succ, node_of * n + node_of[succ], start


def _subtree_loads(
    program: RoutingProgram,
    routed: np.ndarray,
    delivered: np.ndarray,
    state_hops: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Accumulate loads as layered subtree sums over the state graph.

    The demand arrives injected at each delivered pair's start state
    (:func:`_state_graph`).  States are bucketed by their resolved
    ``state_hops + 1``: bucket 0 collects the states whose walk cycles,
    bucket 1 the stopping states, and no subset gather is ever needed,
    since a state off every delivered route carries zero weight.
    Processing layers deepest first pushes each state's accumulated
    demand one hop down with a single ``np.add.at`` per layer (a
    successor is exactly one layer shallower, so its own push happens
    only after every predecessor's arrived).  After the pushes,
    ``acc[state]`` is the full demand passing through the state — the
    load on its outgoing arc — so one ``np.bincount`` over arc codes
    materialises every arc load, node loads are a sum of ``acc`` per
    node, and a second ascending pass propagates the per-path bottleneck
    (max arc load en route) from the stopping states upwards.  Stopping
    states accumulate the arrived traffic; they are zeroed after the
    node sums so arrival mass never loads an arc.

    Index codes fit int32 whenever ``n * n`` and the state count do, and
    depths fit int16 whenever the longest stopping walk does, which keeps
    the argsort and the gathers in narrow integers at every realistic
    size.
    """
    n = program.n
    if not state_hops.size:  # a header-state program over n = 1 has no states
        return np.zeros((n, n)), np.zeros(n), np.zeros((n, n))
    acc, succ, arc, start = _state_graph(program, routed, delivered)
    top = int(state_hops.max()) + 1
    sort_t = np.int16 if top <= np.iinfo(np.int16).max else np.int64
    depth = (state_hops + 1).astype(sort_t)  # NO_ROUTE (-1) lands in bucket 0
    order = np.argsort(depth, kind="stable")
    succ_o = succ[order]
    arc_o = arc[order]
    bounds = np.concatenate(([0], np.cumsum(np.bincount(depth, minlength=2))))
    for layer in range(len(bounds) - 2, 1, -1):
        lo, hi = int(bounds[layer]), int(bounds[layer + 1])
        if lo < hi:
            np.add.at(acc, succ_o[lo:hi], acc[order[lo:hi]])
    if isinstance(program, NextHopProgram):
        node_load = acc.reshape(n, n).sum(axis=0)
    else:
        node_load = np.bincount(program.node_of, weights=acc, minlength=n)
    acc[order[: bounds[2]]] = 0.0  # arrived traffic, or a state off every route
    edge_load = np.bincount(arc, weights=acc, minlength=n * n)
    bottleneck = np.zeros(acc.size, dtype=np.float64)
    for layer in range(2, len(bounds) - 1):
        lo, hi = int(bounds[layer]), int(bounds[layer + 1])
        if lo < hi:
            bottleneck[order[lo:hi]] = np.maximum(
                edge_load[arc_o[lo:hi]], bottleneck[succ_o[lo:hi]]
            )
    path_max = np.where(delivered, bottleneck[start], 0.0)
    return edge_load.reshape(n, n), node_load, path_max


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def route_demand(
    program: RoutingProgram,
    demand: Union[DemandMatrix, np.ndarray],
    *,
    alive: Optional[np.ndarray] = None,
    report: Optional[VerificationReport] = None,
) -> FlowResult:
    """Push a demand matrix through a compiled program.

    ``report`` accepts a precomputed
    :func:`~repro.routing.verify.resolve_fates` /
    :func:`~repro.routing.verify.verify_program` result so a cell computes
    its hop-count array once and shares it between flow and verification
    (the returned
    :attr:`FlowResult.lengths` is that array); when omitted it is computed
    here with ``alive`` forwarded.  A report passed together with ``alive``
    must already mark every dead-endpoint pair infeasible — otherwise
    dead-endpoint demand would count as offered — and raises
    :class:`ValueError` if it does not.  Every next-hop and header-state
    program, fault-masked or not, goes through the one subtree-sum
    accumulator, layered by the report's per-state hop counts.  Generic
    programs carry no transition arrays to aggregate over and raise.
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
        report = resolve_fates(program, alive)
    elif report.n != n:
        raise ValueError(f"report is over n={report.n}, program has n={n}")
    elif alive is not None:
        dead = ~np.asarray(alive, dtype=bool)
        if not (
            (report.outcome[dead, :] == VERDICT_INFEASIBLE).all()
            and (report.outcome[:, dead] == VERDICT_INFEASIBLE).all()
        ):
            raise ValueError(
                "the report does not mark every dead-endpoint pair infeasible: "
                "resolve it with the same alive mask (resolve_fates(program, "
                "alive)) or drop one of report= / alive="
            )
    delivered = report.outcome == VERDICT_DELIVERED
    routed = np.where(delivered, dm.demand, 0.0)
    edge_load, node_load, path_max = _subtree_loads(
        program, routed, delivered, report.state_hops
    )
    feasible = report.outcome != VERDICT_INFEASIBLE
    return FlowResult(
        kind=program.kind,
        n=n,
        mode="subtree",
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
    (:func:`~repro.analysis.runner.cached_program` semantics), resolves
    its fates **once** (:func:`~repro.routing.verify.resolve_fates`; a
    structurally corrupt program raises
    :class:`~repro.routing.verify.ProgramVerificationError`), and routes
    every demand skew against that single hop-count array — the
    lengths-sharing economy the sweep is built around.
    Generic programs decline the cell (nothing to aggregate over).
    """
    from repro.analysis.runner import _cached_program_with_rf

    program, _ = _cached_program_with_rf(scheme, graph, cache)
    if isinstance(program, GenericProgram):
        raise SchemeInapplicableError(
            "generic programs carry no transition arrays to aggregate demand over"
        )
    report = resolve_fates(program)
    dist = distance_matrix(graph)
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
