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

from collections import deque
from typing import List, Optional, Tuple

import numpy as np

from repro.graphs.digraph import PortLabeledGraph
from repro.graphs.shortest_paths import UNREACHABLE, distance_matrix

__all__ = ["greedy_spanner", "spanner_stretch"]


def _bounded_distance(
    adjacency: List[List[int]], source: int, target: int, bound: int
) -> Optional[int]:
    """BFS distance from ``source`` to ``target`` truncated at ``bound`` hops.

    Returns ``None`` when the distance exceeds ``bound`` (or the target is
    unreachable within the bound).
    """
    if source == target:
        return 0
    dist = {source: 0}
    queue: deque[int] = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u]
        if du >= bound:
            continue
        for v in adjacency[u]:
            if v not in dist:
                if v == target:
                    return du + 1
                dist[v] = du + 1
                queue.append(v)
    return None


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
    """
    if stretch < 1:
        raise ValueError("stretch must be at least 1")
    n = graph.n
    adjacency: List[List[int]] = [[] for _ in range(n)]
    kept: List[Tuple[int, int]] = []
    bound = int(np.floor(stretch))
    for u, v in sorted(graph.edges()):
        d = _bounded_distance(adjacency, u, v, bound)
        if d is None:
            kept.append((u, v))
            adjacency[u].append(v)
            adjacency[v].append(u)
    spanner = PortLabeledGraph(n, kept)
    spanner.sort_ports_by_neighbor()
    return spanner


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
