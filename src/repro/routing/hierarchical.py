"""Spanner + landmark composition: the large-stretch end of Table 1.

All the large-stretch universal schemes referenced in Table 1 (Peleg–Upfal,
Awerbuch–Bar-Noy–Linial–Peleg, Awerbuch–Peleg) trade stretch for memory by
routing inside a sparse substructure.  This module composes the two
substrates already implemented here:

1. build a greedy ``t``-spanner ``H`` of the network (sparse: low degrees,
   few arcs — :mod:`repro.routing.spanner`);
2. run the Cowen landmark scheme *inside* ``H``
   (:mod:`repro.routing.landmark`), which multiplies the stretch by at most
   3.

The resulting universal scheme has worst-case stretch ``3 t`` and per-router
memory ``O((|L| + |C_H(u)|) log n)`` where clusters are computed in the
sparser graph; the measured trade-off curve is experiment E8.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Tuple

import numpy as np

from repro.graphs.digraph import PortLabeledGraph
from repro.routing.landmark import CowenLandmarkScheme, LandmarkAddress, LandmarkRoutingFunction
from repro.routing.model import (
    BaseRoutingScheme,
    DELIVER,
    HeaderTransitions,
    LabeledRoutingFunction,
)
from repro.routing.spanner import greedy_spanner

__all__ = [
    "HierarchicalSpannerRoutingFunction",
    "RewritingHierarchicalSpannerRoutingFunction",
    "HierarchicalSpannerScheme",
]


class HierarchicalSpannerRoutingFunction(LabeledRoutingFunction):
    """Routing function of the spanner+landmark composition.

    Wraps a :class:`~repro.routing.landmark.LandmarkRoutingFunction` built on
    the spanner and translates every forwarding decision back to the port
    labelling of the original network (the spanner is a subgraph, so every
    spanner arc exists in the network).
    """

    def __init__(
        self,
        graph: PortLabeledGraph,
        spanner: PortLabeledGraph,
        inner: LandmarkRoutingFunction,
    ) -> None:
        super().__init__(graph)
        if spanner.n != graph.n:
            raise ValueError("spanner and graph must share the vertex set")
        self._spanner = spanner
        self._inner = inner

    @property
    def spanner(self) -> PortLabeledGraph:
        """The spanner subgraph routing actually takes place in."""
        return self._spanner

    @property
    def inner(self) -> LandmarkRoutingFunction:
        """The landmark routing function on the spanner."""
        return self._inner

    def address(self, dest: int) -> LandmarkAddress:
        """Routing address of ``dest`` (expressed with spanner ports)."""
        return self._inner.address(dest)

    def port(self, node: int, header: LandmarkAddress) -> int:
        inner_port = self._inner.port(node, header)
        if inner_port == DELIVER:
            return DELIVER
        neighbor = self._spanner.neighbor_at_port(node, inner_port)
        return self._graph.port(node, neighbor)

    def next_node_matrix(self) -> Optional[np.ndarray]:
        """The inner function's matrix: spanner arcs are network arcs."""
        cls = type(self)
        if cls.port is not HierarchicalSpannerRoutingFunction.port or (
            cls.address is not HierarchicalSpannerRoutingFunction.address
        ):
            return None
        return self._inner.next_node_matrix()

    def table_entries(self, node: int) -> Dict[int, int]:
        """Stored ``target -> port`` entries at ``node``, with network ports."""
        out: Dict[int, int] = {}
        for target, inner_port in self._inner.table_entries(node).items():
            neighbor = self._spanner.neighbor_at_port(node, inner_port)
            out[target] = self._graph.port(node, neighbor)
        return out

    def table_sizes(self) -> np.ndarray:
        """Number of stored (target, port) entries at every node."""
        return self._inner.table_sizes()


class RewritingHierarchicalSpannerRoutingFunction(HierarchicalSpannerRoutingFunction):
    """Spanner+landmark composition over a header-rewriting inner function.

    Port decisions go through the inherited spanner-to-network translation;
    header rewriting is delegated to the inner
    :class:`~repro.routing.landmark.RewritingLandmarkRoutingFunction`, whose
    hierarchical level tag (full address vs bare label) drives the two
    routing phases.  Overriding ``next_header`` is what drops the class off
    the next-hop lowering: ``program_kind()`` resolves to
    ``"header-state"`` through the inherited ``can_vectorize`` promise.
    """

    def next_header(self, node: int, header: Hashable) -> Hashable:
        return self._inner.next_header(node, header)

    def header_transitions(self) -> Optional[HeaderTransitions]:
        """The inner function's transitions, spanner ports translated to
        network ports by one lookup per spanner arc."""
        cls = type(self)
        if (
            cls.port is not HierarchicalSpannerRoutingFunction.port
            or cls.next_header is not RewritingHierarchicalSpannerRoutingFunction.next_header
            or cls.initial_header is not LabeledRoutingFunction.initial_header
            or cls.address is not HierarchicalSpannerRoutingFunction.address
        ):
            return None
        inner = self._inner.header_transitions()
        if inner is None:
            return None
        n = self._graph.n
        sp_indptr, sp_indices = self._spanner.adjacency_arrays()
        indptr, indices = self._graph.adjacency_arrays()
        # Network arcs sorted by (tail, head) key; the port of an arc is its
        # rank within its tail's port-ordered row, plus one.
        tails = np.repeat(np.arange(n), np.diff(indptr))
        arc_keys = tails * n + indices
        by_key = np.argsort(arc_keys)
        sp_tails = np.repeat(np.arange(n), np.diff(sp_indptr))
        arcs = by_key[np.searchsorted(arc_keys[by_key], sp_tails * n + sp_indices)]
        # Indexed by spanner arc; the trailing DELIVER is the slot (-1) of
        # delivering states.
        network_port = np.append(arcs - indptr[sp_tails] + 1, DELIVER)
        sp_degrees = np.diff(sp_indptr)
        inner_step = inner.step

        def step(nodes: np.ndarray, header_ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
            ports, next_ids = inner_step(nodes, header_ids)
            moves = ports != DELIVER
            bad = moves & ((ports < 1) | (ports > sp_degrees[nodes]))
            if bad.any():
                i = int(np.argmax(bad))
                raise KeyError(f"vertex {nodes[i]} has no port {ports[i]}")
            arc = np.where(moves, sp_indptr[nodes] + ports - 1, -1)
            return network_port[arc], next_ids

        return HeaderTransitions(inner.alphabet, inner.initial, step)


class HierarchicalSpannerScheme(BaseRoutingScheme):
    """Universal scheme with stretch at most ``3 * spanner_stretch``.

    Parameters
    ----------
    spanner_stretch:
        Multiplicative stretch of the greedy spanner stage (``t >= 1``);
        ``t = 1`` keeps every edge and degenerates to plain Cowen routing.
    num_landmarks, selection, seed:
        Forwarded to :class:`~repro.routing.landmark.CowenLandmarkScheme`.
    rewriting:
        When true, the inner landmark stage rewrites headers (two-phase
        formulation) and the composition wraps it in
        :class:`RewritingHierarchicalSpannerRoutingFunction`; routes are
        identical to the header-constant composition.
    """

    name = "spanner-landmark"

    def __init__(
        self,
        spanner_stretch: float = 3.0,
        num_landmarks: Optional[int] = None,
        selection: str = "random",
        seed: Optional[int] = None,
        rewriting: bool = False,
    ) -> None:
        if spanner_stretch < 1:
            raise ValueError("spanner_stretch must be at least 1")
        self.spanner_stretch = spanner_stretch
        self.rewriting = rewriting
        self._landmark_scheme = CowenLandmarkScheme(
            num_landmarks=num_landmarks, selection=selection, seed=seed, rewriting=rewriting
        )

    @property
    def stretch_guarantee(self) -> float:
        """Worst-case stretch of the composition."""
        return 3.0 * self.spanner_stretch

    def build(self, graph: PortLabeledGraph) -> HierarchicalSpannerRoutingFunction:
        """Build the composed routing function for a connected graph."""
        spanner = greedy_spanner(graph, self.spanner_stretch)
        inner = self._landmark_scheme.build(spanner)
        wrapper_class = (
            RewritingHierarchicalSpannerRoutingFunction
            if self.rewriting
            else HierarchicalSpannerRoutingFunction
        )
        return wrapper_class(graph, spanner, inner)
