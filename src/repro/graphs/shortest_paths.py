"""Shortest paths, distances and bounded-length path enumeration.

Routing in the paper is measured against shortest-path distances: the stretch
factor of a routing function is the maximum, over source/destination pairs,
of ``(routing path length) / (distance)``.  Checking that a matrix is a
matrix of constraints at stretch ``s`` also requires knowing, for every
constrained pair ``(a, b)``, the *set of first arcs* of all paths from ``a``
to ``b`` of length at most ``s * d(a, b)``.

This module provides:

* plain BFS (:func:`bfs_distances`, :func:`bfs_parents`) for single sources,
* :func:`bfs_rows`, the package's one many-source distance kernel: a
  bit-parallel BFS, 64 sources per ``uint64`` word (the multi-source BFS
  of Then et al., "The More the Merrier", VLDB 2014), behind all-pairs,
  fault-masked and dirty-column distances alike,
* the all-pairs matrix (:func:`distance_matrix`), computed once per graph
  snapshot and memoised on the graph, so every scheme build, flow cell
  and churn delta on one topology reads the same read-only array,
* shortest-path extraction and enumeration
  (:func:`shortest_path`, :func:`all_shortest_paths`,
  :func:`shortest_path_dag`),
* :func:`first_arcs_of_near_shortest_paths`, the first arcs of every path
  within a stretch budget, used by the matrix-of-constraints verifier.

Performance notes
-----------------
``first_arcs_of_near_shortest_paths`` never enumerates paths.  Any walk
shortens to a simple path of no greater length, so the admissible *simple*
paths from ``s`` to ``t`` starting with the arc ``(s, v)`` are governed by
the distance from ``v`` to ``t`` in the graph with ``s`` removed: the arc is
a first arc of an admissible path iff ``1 + d_{G - s}(v, t) <= max_len``.
Two refinements keep this at one BFS from the target per pair in the common
case:

* ``d_{G - s}(v, t) = d(v, t)`` whenever ``d(v, t) <= d(s, t)`` — a path
  through ``s`` would cost at least ``1 + d(s, t) > d(v, t)`` — so a single
  BFS from the target (shared by *all* sources, see
  :func:`repro.constraints.verifier.forced_first_arcs`) settles those arcs;
* a neighbour ``v`` of ``s`` has ``d(v, t) <= d(s, t) + 1``, so only the
  ``d(v, t) = d(s, t) + 1`` stragglers — and only when the budget admits a
  detour of two extra hops, which never happens at stretch < 2 over
  distance-2 pairs as in the Lemma 2 graphs — require the exact
  ``G - s`` BFS, one per pair.

The seed's exponential path enumeration is the test oracle of this
function (``tests/oracles.py``), which must return identical arc sets.
Every BFS here runs on the cached CSR adjacency of
:class:`PortLabeledGraph`.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.graphs.digraph import Arc, PortLabeledGraph

__all__ = [
    "bfs_distances",
    "bfs_parents",
    "bfs_rows",
    "distance_matrix",
    "eccentricities",
    "shortest_path",
    "all_shortest_paths",
    "shortest_path_dag",
    "near_shortest_budget",
    "first_arcs_of_near_shortest_paths",
]

#: Distance value used for unreachable pairs in integer distance arrays.
UNREACHABLE = -1


def bfs_distances(
    graph: PortLabeledGraph, source: int, excluded: Optional[int] = None
) -> np.ndarray:
    """Return the array of BFS distances from ``source``.

    Unreachable vertices get :data:`UNREACHABLE` (= -1).  When ``excluded``
    is given, that vertex is treated as deleted (its distance stays
    :data:`UNREACHABLE` and no path may pass through it) — this is the
    ``G - s`` oracle used by :func:`first_arcs_of_near_shortest_paths`.

    Runs on the graph's cached adjacency arrays, so repeated BFS sweeps do
    not pay the per-call neighbour-dict traversal of the naive version.
    """
    n = graph.n
    indptr, indices = graph.adjacency_arrays()
    dist = np.full(n, UNREACHABLE, dtype=np.int64)
    if excluded is not None and excluded == source:
        return dist  # the source itself is deleted: nothing is reachable
    dist[source] = 0
    queue: deque[int] = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u]
        for v in indices[indptr[u] : indptr[u + 1]]:
            if dist[v] == UNREACHABLE and v != excluded:
                dist[v] = du + 1
                queue.append(int(v))
    return dist


def bfs_parents(graph: PortLabeledGraph, source: int) -> Tuple[np.ndarray, np.ndarray]:
    """BFS distances and a parent array encoding one shortest-path tree.

    Returns ``(dist, parent)`` where ``parent[source] = source`` and
    ``parent[v] = -1`` for unreachable ``v``.
    """
    n = graph.n
    indptr, indices = graph.adjacency_arrays()
    dist = np.full(n, UNREACHABLE, dtype=np.int64)
    parent = np.full(n, -1, dtype=np.int64)
    dist[source] = 0
    parent[source] = source
    queue: deque[int] = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u]
        for v in indices[indptr[u] : indptr[u + 1]]:
            if dist[v] == UNREACHABLE:
                dist[v] = du + 1
                parent[v] = u
                queue.append(int(v))
    return dist, parent


def bfs_rows(
    indptr: np.ndarray,
    indices: np.ndarray,
    n: int,
    sources: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """BFS distances from many sources at once, 64 per ``uint64`` word.

    ``(indptr, indices)`` is a symmetric CSR adjacency over ``n`` vertices
    (:meth:`PortLabeledGraph.adjacency_arrays` or a masked copy).  Bit
    ``i`` of a vertex's word row says source ``i`` has reached it; a level
    of every BFS is one ``np.bitwise_or.reduceat`` over the neighbours'
    frontier words, written out through one ``unpackbits`` mask.  Returns
    int64 rows ``d(sources[i], .)`` (all ``n`` sources when ``None``),
    :data:`UNREACHABLE` where no path exists.
    """
    cols = np.arange(n) if sources is None else np.asarray(sources, dtype=np.int64)
    k = cols.shape[0]
    # dist[v, i] = d(cols[i], v): the layout the bit rows unpack into.
    dist = np.full((n, k), UNREACHABLE, dtype=np.int64)
    if n and k:
        bits = np.arange(k)
        seen = np.zeros((n, (k + 63) // 64), dtype="<u8")
        np.bitwise_or.at(seen, (cols, bits // 64), np.uint64(1) << (bits % 64).astype(np.uint64))
        dist[cols, bits] = 0
        frontier = seen
        nonempty = np.flatnonzero(np.diff(indptr))
        starts = indptr[nonempty]
        level = 0
        while nonempty.size:
            level += 1
            reached = np.zeros_like(seen)
            reached[nonempty] = np.bitwise_or.reduceat(frontier[indices], starts, axis=0)
            frontier = reached & ~seen
            if not frontier.any():
                break
            seen = seen | frontier
            fresh = np.unpackbits(frontier.view(np.uint8), axis=1, count=k, bitorder="little")
            dist[fresh.view(bool)] = level
    # All-pairs distances of a symmetric graph are a symmetric matrix.
    return dist if sources is None else np.ascontiguousarray(dist.T)


def distance_matrix(graph: PortLabeledGraph) -> np.ndarray:
    """All-pairs ``(n, n)`` int64 distances; :data:`UNREACHABLE` if no path.

    Runs :func:`bfs_rows` once per graph snapshot and memoises the result
    in :attr:`PortLabeledGraph.derived`, which unmutated copies share.
    The array is read-only: copy it before editing.
    """
    derived = graph.derived
    if derived.distances is None:
        derived.distances = bfs_rows(*graph.adjacency_arrays(), graph.n)
        derived.distances.flags.writeable = False
    return derived.distances


def eccentricities(graph: PortLabeledGraph, dist: Optional[np.ndarray] = None) -> np.ndarray:
    """Eccentricity of every vertex (max finite distance to any other vertex).

    Disconnected graphs raise :class:`ValueError` because eccentricity is
    undefined there.
    """
    if dist is None:
        dist = distance_matrix(graph)
    if graph.n and (dist == UNREACHABLE).any():
        raise ValueError("eccentricities are only defined on connected graphs")
    if graph.n == 0:
        return np.zeros(0, dtype=np.int64)
    return dist.max(axis=1)


def shortest_path(graph: PortLabeledGraph, source: int, target: int) -> Optional[List[int]]:
    """One shortest path from ``source`` to ``target`` as a vertex list.

    Returns ``None`` when ``target`` is unreachable.  ``source == target``
    yields the single-vertex path ``[source]``.
    """
    dist, parent = bfs_parents(graph, source)
    if dist[target] == UNREACHABLE:
        return None
    path = [target]
    while path[-1] != source:
        path.append(int(parent[path[-1]]))
    path.reverse()
    return path


def shortest_path_dag(graph: PortLabeledGraph, source: int) -> List[List[int]]:
    """Predecessor lists of the shortest-path DAG rooted at ``source``.

    ``preds[v]`` contains every neighbour ``u`` of ``v`` with
    ``d(source, u) + 1 == d(source, v)``; following predecessors from any
    vertex back to ``source`` enumerates exactly the shortest paths.
    """
    dist = bfs_distances(graph, source)
    indptr, indices = graph.adjacency_arrays()
    preds: List[List[int]] = [[] for _ in range(graph.n)]
    for v in range(graph.n):
        if dist[v] <= 0:
            continue
        for u in indices[indptr[v] : indptr[v + 1]]:
            if dist[u] == dist[v] - 1:
                preds[v].append(int(u))
    return preds


def all_shortest_paths(
    graph: PortLabeledGraph, source: int, target: int, limit: Optional[int] = None
) -> List[List[int]]:
    """Every shortest path from ``source`` to ``target``.

    Parameters
    ----------
    limit:
        Optional cap on the number of returned paths (the enumeration stops
        early once the cap is reached).

    Returns
    -------
    list of vertex lists, empty when ``target`` is unreachable.
    """
    dist = bfs_distances(graph, source)
    if dist[target] == UNREACHABLE:
        return []
    if source == target:
        return [[source]]
    preds = shortest_path_dag(graph, source)
    out: List[List[int]] = []

    def _walk(v: int, suffix: List[int]) -> bool:
        if v == source:
            out.append([source] + suffix)
            return limit is not None and len(out) >= limit
        for u in preds[v]:
            if _walk(u, [v] + suffix):
                return True
        return False

    _walk(target, [])
    return out


def near_shortest_budget(d: int, stretch: float, strict: bool = False) -> int:
    """Maximum admissible path length for a pair at distance ``d``.

    ``floor(stretch * d)``, minus one when ``strict`` is true and the budget
    is attained exactly (the paper's open-bound "stretch factor < s").
    """
    budget = stretch * d
    max_len = int(np.floor(budget))
    if strict and max_len == budget:
        max_len -= 1
    return max_len


def first_arcs_of_near_shortest_paths(
    graph: PortLabeledGraph,
    source: int,
    target: int,
    stretch: float,
    strict: bool = False,
    dist_to_target: Optional[np.ndarray] = None,
) -> Set[Arc]:
    """Set of first arcs of the paths from ``source`` to ``target`` within stretch.

    A path of length ``L`` is admissible when ``L <= stretch * d(source,
    target)`` (or ``L < stretch * d`` when ``strict`` is true, matching the
    paper's "stretch factor < 2" statements where the budget is an open
    bound).  The returned arcs carry the *current* port labelling of the
    graph.

    This is the semantic core of Definition 1: a matrix of constraints pins
    the first arc whenever this set is a singleton for the pair.  Each
    candidate arc is decided from distances alone (see the module
    docstring for the walk-shortening argument).

    Parameters
    ----------
    dist_to_target:
        Optional precomputed distance row ``d(., target)``.  Passing it
        amortises the one BFS from the target across all sources, as
        :func:`repro.constraints.verifier.forced_first_arcs` does.
    """
    if source == target:
        raise ValueError("first arcs are undefined for source == target")
    if dist_to_target is None:
        dist_to_target = bfs_distances(graph, target)
    d = int(dist_to_target[source])
    if d == UNREACHABLE:
        return set()
    max_len = near_shortest_budget(d, stretch, strict)
    if max_len < d:
        return set()

    indptr, indices = graph.adjacency_arrays()
    arcs: Set[Arc] = set()
    ambiguous: List[int] = []
    for offset, v in enumerate(indices[indptr[source] : indptr[source + 1]]):
        v = int(v)
        port = offset + 1
        if v == target:
            # The one-arc path; admissible since max_len >= d = 1.
            arcs.add(Arc(source, v, port))
            continue
        dv = int(dist_to_target[v])
        if dv == UNREACHABLE or 1 + dv > max_len:
            continue
        if dv <= d:
            # Some shortest v -> target path avoids the source (any path
            # through it costs >= 1 + d > dv), so a simple admissible path
            # source -> v -> ... -> target exists.
            arcs.add(Arc(source, v, port))
        else:
            # dv == d + 1: the cheap certificate may route back through the
            # source; settle with the exact G - source distance below.
            ambiguous.append(v)
    if ambiguous:
        dist_excl = bfs_distances(graph, target, excluded=source)
        for v in ambiguous:
            dv = int(dist_excl[v])
            if dv != UNREACHABLE and 1 + dv <= max_len:
                arcs.add(Arc(source, v, graph.port(source, v)))
    return arcs
