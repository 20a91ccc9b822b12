"""Multiplicative graph spanners.

A subgraph ``H`` of ``G`` is a *t-spanner* when ``d_H(u, v) <= t * d_G(u, v)``
for every pair of vertices.  Spanners (Peleg & Schäffer, cited in the paper)
are the substrate of all large-stretch compact routing schemes: routing
inside a sparse spanner multiplies the stretch by ``t`` but shrinks the
degree (and hence the per-arc routing information) of the routers.

The greedy spanner construction of Althöfer et al. is implemented: visit the
edges (in an arbitrary but deterministic order for unweighted graphs) and add
an edge only if the current spanner distance between its endpoints exceeds
``t``.  For ``t = 2k - 1`` the output has at most ``n^{1 + 1/k}`` edges and
girth greater than ``t + 1``.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.graphs.digraph import PortLabeledGraph
from repro.graphs.shortest_paths import UNREACHABLE, distance_matrix

__all__ = ["greedy_spanner", "spanner_stretch"]


def _within(adjacency: List[List[int]], source: int, target: int, bound: int) -> bool:
    """Whether ``source`` and ``target`` are at most ``bound`` hops apart.

    Bidirectional BFS: the smaller frontier grows by one layer at a time,
    and the search stops as soon as the two balls meet.
    """
    seen, other = {source}, {target}
    frontier, other_frontier = {source}, {target}
    for _ in range(bound):
        if len(frontier) > len(other_frontier):
            seen, other, frontier, other_frontier = other, seen, other_frontier, frontier
        frontier = {w for x in frontier for w in adjacency[x]} - seen
        if not frontier.isdisjoint(other):
            return True
        seen |= frontier
    return False


def greedy_spanner(graph: PortLabeledGraph, stretch: float) -> PortLabeledGraph:
    """Greedy multiplicative ``stretch``-spanner of an unweighted graph.

    Parameters
    ----------
    graph:
        Input graph (connectivity is preserved: a spanner of a connected
        graph is connected because every edge is either kept or already
        spanned within the stretch bound).
    stretch:
        Required multiplicative stretch ``t >= 1``.

    Returns
    -------
    PortLabeledGraph
        A new graph on the same vertex set with the canonical port labelling.
        The spanner is built once per graph snapshot and stretch (memoised on
        :attr:`~repro.graphs.digraph.PortLabeledGraph.derived`); every call
        returns a copy of it, sharing its own derived state.
    """
    if stretch < 1:
        raise ValueError("stretch must be at least 1")
    memo = graph.derived.spanners
    if stretch not in memo:
        memo[stretch] = _greedy_spanner(graph, int(np.floor(stretch)))
    return memo[stretch].copy()


def _greedy_spanner(graph: PortLabeledGraph, bound: int) -> PortLabeledGraph:
    n = graph.n
    adjacency: List[List[int]] = [[] for _ in range(n)]
    kept: List[Tuple[int, int]] = []
    for u, v in sorted(graph.edges()):
        if not _within(adjacency, u, v, bound):
            kept.append((u, v))
            adjacency[u].append(v)
            adjacency[v].append(u)
    # Edges arrive sorted, so every vertex meets its neighbours in
    # increasing order: the insertion ports are the canonical labelling.
    return PortLabeledGraph(n, kept)


def spanner_stretch(graph: PortLabeledGraph, spanner: PortLabeledGraph) -> float:
    """Exact multiplicative stretch of ``spanner`` with respect to ``graph``.

    Both graphs must share the vertex set ``0..n-1``.  Returns ``inf`` when
    the spanner disconnects a pair that is connected in the original graph.
    """
    if graph.n != spanner.n:
        raise ValueError("graph and spanner must have the same vertex set")
    if graph.n < 2:
        return 1.0
    dg = distance_matrix(graph)
    dh = distance_matrix(spanner)
    pairs = dg > 0  # distinct pairs connected in the original graph
    if (dh[pairs] == UNREACHABLE).any():
        return float("inf")
    return float(np.max(dh[pairs] / dg[pairs], initial=1.0))
