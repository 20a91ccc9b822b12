"""Structural predicates on port-labelled graphs.

The upper bounds quoted in Section 1 of the paper apply to specific graph
classes (trees/acyclic graphs, outerplanar graphs, unit circular-arc graphs,
chordal graphs, hypercubes, complete graphs).  The routing-scheme layer uses
these predicates both to validate generator output in the test suite and to
decide which specialised scheme is applicable to a given input graph.
Chordality and outerplanarity have no runtime caller; their tests use the
oracles in ``tests/oracles.py``.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Tuple

import numpy as np

from repro.graphs.digraph import PortLabeledGraph
from repro.graphs.shortest_paths import UNREACHABLE, bfs_distances, distance_matrix

__all__ = [
    "is_connected",
    "connected_components",
    "is_tree",
    "is_cycle",
    "is_complete",
    "is_bipartite",
    "is_hypercube",
    "diameter",
    "radius",
    "girth",
    "degree_histogram",
]


def is_connected(graph: PortLabeledGraph) -> bool:
    """Whether the graph is connected (the empty graph counts as connected)."""
    return len(connected_components(graph)) <= 1


def connected_components(graph: PortLabeledGraph) -> List[List[int]]:
    """Connected components as sorted vertex lists, ordered by smallest vertex."""
    seen = [False] * graph.n
    components: List[List[int]] = []
    for s in range(graph.n):
        if seen[s]:
            continue
        comp = []
        queue = deque([s])
        seen[s] = True
        while queue:
            u = queue.popleft()
            comp.append(u)
            for v in graph.neighbors(u):
                if not seen[v]:
                    seen[v] = True
                    queue.append(v)
        components.append(sorted(comp))
    return components


def is_tree(graph: PortLabeledGraph) -> bool:
    """Whether the graph is a tree (connected and ``m = n - 1``)."""
    return graph.n >= 1 and graph.num_edges == graph.n - 1 and is_connected(graph)


def is_cycle(graph: PortLabeledGraph) -> bool:
    """Whether the graph is a single simple cycle."""
    return (
        graph.n >= 3
        and graph.num_edges == graph.n
        and all(graph.degree(v) == 2 for v in graph.vertices())
        and is_connected(graph)
    )


def is_complete(graph: PortLabeledGraph) -> bool:
    """Whether the graph is the complete graph on its vertex set."""
    n = graph.n
    return graph.num_edges == n * (n - 1) // 2


def is_bipartite(graph: PortLabeledGraph) -> Tuple[bool, Optional[List[int]]]:
    """2-colourability test.

    Returns ``(True, colors)`` with ``colors[v] in {0, 1}`` when bipartite,
    ``(False, None)`` otherwise.
    """
    colors = [-1] * graph.n
    for s in range(graph.n):
        if colors[s] != -1:
            continue
        colors[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v in graph.neighbors(u):
                if colors[v] == -1:
                    colors[v] = 1 - colors[u]
                    queue.append(v)
                elif colors[v] == colors[u]:
                    return False, None
    return True, colors


def is_hypercube(graph: PortLabeledGraph) -> bool:
    """Whether the graph is isomorphic to a hypercube.

    Cheap necessary checks (power-of-two order, ``log2(n)``-regularity,
    edge count, connectivity) are followed by an exact ``O(n d)``
    certificate: the neighbours of vertex 0 get distinct unit bits, and
    every later BFS vertex the OR of its parents' labels.  The graph is
    ``Q_d`` iff the ``n`` labels are distinct and every edge flips exactly
    one bit: distinct ``d``-bit labels cover all of ``Q_d``'s vertices, and
    ``n d / 2`` one-bit edges are all of its edges.  On ``Q_d`` itself the
    labelling is an isomorphism, because a vertex at distance ``k >= 2`` is
    the OR of its ``k`` parents.
    """
    n = graph.n
    if n == 0 or n & (n - 1):
        return False
    dim = n.bit_length() - 1
    if dim == 0:
        return graph.num_edges == 0
    if any(graph.degree(v) != dim for v in graph.vertices()):
        return False
    if graph.num_edges != n * dim // 2:
        return False
    dist = bfs_distances(graph, 0)
    if (dist == UNREACHABLE).any():
        return False
    _, dst = graph.adjacency_arrays()
    src = np.repeat(np.arange(n), dim)  # d-regular: arcs are grouped by source
    labels = np.zeros(n, dtype=np.int64)
    labels[dst[:dim]] = np.int64(1) << np.arange(dim, dtype=np.int64)
    # Parent arcs grouped by the child's level; level 1 ORs in label 0.
    up = np.flatnonzero(dist[dst] == dist[src] + 1)
    up = up[np.argsort(dist[dst[up]], kind="stable")]
    bounds = np.searchsorted(dist[dst[up]], np.arange(1, int(dist.max()) + 2))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        np.bitwise_or.at(labels, dst[up[lo:hi]], labels[src[up[lo:hi]]])
    if np.unique(labels).size != n:
        return False
    flips = labels[src] ^ labels[dst]
    return bool(((flips != 0) & (flips & (flips - 1) == 0)).all())


def diameter(graph: PortLabeledGraph) -> int:
    """Diameter (max distance over all pairs); requires a connected graph."""
    if graph.n == 0:
        return 0
    dist = distance_matrix(graph)
    if (dist == UNREACHABLE).any():
        raise ValueError("diameter is undefined on disconnected graphs")
    return int(dist.max())


def radius(graph: PortLabeledGraph) -> int:
    """Radius (min eccentricity); requires a connected graph."""
    if graph.n == 0:
        return 0
    dist = distance_matrix(graph)
    if (dist == UNREACHABLE).any():
        raise ValueError("radius is undefined on disconnected graphs")
    return int(dist.max(axis=1).min())


def girth(graph: PortLabeledGraph) -> Optional[int]:
    """Length of the shortest cycle, or ``None`` for forests.

    BFS from every vertex; a non-tree edge closing at BFS depth ``d`` gives a
    cycle of length at most ``2 d + 1``.
    """
    best: Optional[int] = None
    for s in range(graph.n):
        dist = [UNREACHABLE] * graph.n
        parent = [-1] * graph.n
        dist[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v in graph.neighbors(u):
                if dist[v] == UNREACHABLE:
                    dist[v] = dist[u] + 1
                    parent[v] = u
                    queue.append(v)
                elif parent[u] != v and parent[v] != u:
                    cycle_len = dist[u] + dist[v] + 1
                    if best is None or cycle_len < best:
                        best = cycle_len
    return best


def degree_histogram(graph: PortLabeledGraph) -> np.ndarray:
    """Histogram ``h[k] =`` number of vertices of degree ``k``."""
    degs = np.asarray(graph.degrees(), dtype=np.int64)
    if len(degs) == 0:
        return np.zeros(1, dtype=np.int64)
    return np.bincount(degs)
