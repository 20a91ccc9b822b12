"""Generators for the graph families discussed in the paper.

Section 1 of Fraigniaud & Gavoille (1996) motivates the memory-requirement
question with several concrete families:

* the hypercube ``H_n`` (``MEM_local(H, 1) = O(log n)`` through e-cube
  routing),
* acyclic graphs (trees), outerplanar graphs and unit circular-arc graphs
  (``O(d log n)`` through 1-interval routing),
* chordal graphs (``O(n log^2 n)`` global),
* the complete graph ``K_n`` (``Theta(n log n)`` under an adversarial port
  labelling, ``O(log n)`` under a good one),
* the Petersen graph (Figure 1's matrix of constraints).

All generators return :class:`~repro.graphs.digraph.PortLabeledGraph`
instances with the *canonical* port labelling (ports sorted by neighbour
label) unless stated otherwise; routing schemes relabel ports as they see
fit.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.graphs.digraph import PortLabeledGraph
from repro.graphs.properties import is_connected

__all__ = [
    "path_graph",
    "cycle_graph",
    "star_graph",
    "complete_graph",
    "complete_bipartite_graph",
    "hypercube",
    "grid_2d",
    "torus_2d",
    "petersen_graph",
    "binary_tree",
    "random_tree",
    "caterpillar_tree",
    "outerplanar_graph",
    "unit_circular_arc_graph",
    "interval_graph_from_intervals",
    "random_interval_graph",
    "random_chordal_graph",
    "random_connected_graph",
    "random_regular_graph",
    "butterfly_like_expander",
]


def _finalize(g: PortLabeledGraph) -> PortLabeledGraph:
    g.sort_ports_by_neighbor()
    return g


def path_graph(n: int) -> PortLabeledGraph:
    """Path on ``n`` vertices ``0 - 1 - ... - (n-1)``."""
    if n < 1:
        raise ValueError("path graph needs at least one vertex")
    return _finalize(PortLabeledGraph(n, [(i, i + 1) for i in range(n - 1)]))


def cycle_graph(n: int) -> PortLabeledGraph:
    """Cycle on ``n >= 3`` vertices."""
    if n < 3:
        raise ValueError("cycle graph needs at least three vertices")
    edges = [(i, (i + 1) % n) for i in range(n)]
    return _finalize(PortLabeledGraph(n, edges))


def star_graph(n: int) -> PortLabeledGraph:
    """Star with centre 0 and ``n - 1`` leaves."""
    if n < 1:
        raise ValueError("star graph needs at least one vertex")
    return _finalize(PortLabeledGraph(n, [(0, i) for i in range(1, n)]))


def complete_graph(n: int) -> PortLabeledGraph:
    """Complete graph ``K_n``."""
    if n < 1:
        raise ValueError("complete graph needs at least one vertex")
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return _finalize(PortLabeledGraph(n, edges))


def complete_bipartite_graph(a: int, b: int) -> PortLabeledGraph:
    """Complete bipartite graph ``K_{a,b}`` with parts ``0..a-1`` and ``a..a+b-1``."""
    if a < 1 or b < 1:
        raise ValueError("both parts must be non-empty")
    edges = [(i, a + j) for i in range(a) for j in range(b)]
    return _finalize(PortLabeledGraph(a + b, edges))


def hypercube(dimension: int) -> PortLabeledGraph:
    """Hypercube of the given dimension (``2**dimension`` vertices).

    Vertex labels are the integers whose binary expansion gives the
    coordinates; two vertices are adjacent iff their labels differ in exactly
    one bit.  The canonical port labelling puts the neighbour differing in
    bit ``k`` (0-based, least significant first) at port ``k + 1`` — the
    labelling that makes e-cube routing describable in ``O(log n)`` bits.
    """
    if dimension < 0:
        raise ValueError("dimension must be non-negative")
    n = 1 << dimension
    g = PortLabeledGraph(n)
    for u in range(n):
        for k in range(dimension):
            v = u ^ (1 << k)
            if u < v:
                g.add_edge(u, v)
    for u in range(n):
        mapping = {u ^ (1 << k): k + 1 for k in range(dimension)}
        g.set_port_labeling(u, mapping)
    return g


def grid_2d(rows: int, cols: int) -> PortLabeledGraph:
    """``rows x cols`` 2D mesh; vertex ``(r, c)`` is labelled ``r * cols + c``."""
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")
    g = PortLabeledGraph(rows * cols)
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            if c + 1 < cols:
                g.add_edge(u, u + 1)
            if r + 1 < rows:
                g.add_edge(u, u + cols)
    return _finalize(g)


def torus_2d(rows: int, cols: int) -> PortLabeledGraph:
    """``rows x cols`` 2D torus (wrap-around mesh); needs both sides >= 3."""
    if rows < 3 or cols < 3:
        raise ValueError("torus dimensions must be at least 3 to avoid multi-edges")
    g = PortLabeledGraph(rows * cols)
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            g.add_edge(u, r * cols + (c + 1) % cols)
            g.add_edge(u, ((r + 1) % rows) * cols + c)
    return _finalize(g)


def petersen_graph() -> PortLabeledGraph:
    """The Petersen graph (10 vertices, 15 edges, girth 5).

    Vertices ``0..4`` form the outer 5-cycle, ``5..9`` the inner pentagram;
    spoke ``i - (i + 5)`` connects them.  This is the graph of the paper's
    Figure 1.
    """
    g = PortLabeledGraph(10)
    for i in range(5):
        g.add_edge(i, (i + 1) % 5)          # outer cycle
        g.add_edge(5 + i, 5 + (i + 2) % 5)  # inner pentagram
        g.add_edge(i, 5 + i)                # spokes
    return _finalize(g)


def binary_tree(height: int) -> PortLabeledGraph:
    """Complete binary tree of the given height (``2**(height+1) - 1`` vertices)."""
    if height < 0:
        raise ValueError("height must be non-negative")
    n = (1 << (height + 1)) - 1
    g = PortLabeledGraph(n)
    for v in range(1, n):
        g.add_edge((v - 1) // 2, v)
    return _finalize(g)


def random_tree(n: int, seed: Optional[int] = None) -> PortLabeledGraph:
    """Uniformly random labelled tree on ``n`` vertices (Prüfer sequence)."""
    if n < 1:
        raise ValueError("tree needs at least one vertex")
    if n == 1:
        return PortLabeledGraph(1)
    if n == 2:
        return _finalize(PortLabeledGraph(2, [(0, 1)]))
    rng = np.random.default_rng(seed)
    prufer = rng.integers(0, n, size=n - 2)
    degree = np.ones(n, dtype=np.int64)
    for x in prufer:
        degree[x] += 1
    edges: List[Tuple[int, int]] = []
    leaves = sorted(int(v) for v in range(n) if degree[v] == 1)
    import heapq

    heapq.heapify(leaves)
    for x in prufer:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, int(x)))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, int(x))
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return _finalize(PortLabeledGraph(n, edges))


def caterpillar_tree(spine: int, legs_per_node: int) -> PortLabeledGraph:
    """Caterpillar: a spine path with ``legs_per_node`` leaves on each spine vertex."""
    if spine < 1 or legs_per_node < 0:
        raise ValueError("spine must be positive and legs_per_node non-negative")
    n = spine * (1 + legs_per_node)
    g = PortLabeledGraph(n)
    for i in range(spine - 1):
        g.add_edge(i, i + 1)
    leaf = spine
    for i in range(spine):
        for _ in range(legs_per_node):
            g.add_edge(i, leaf)
            leaf += 1
    return _finalize(g)


def outerplanar_graph(n: int, extra_chords: int = 0, seed: Optional[int] = None) -> PortLabeledGraph:
    """Random maximal-ish outerplanar graph on ``n >= 3`` vertices.

    Starts from the cycle ``0..n-1`` (all vertices on the outer face) and
    adds up to ``extra_chords`` non-crossing chords chosen by repeatedly
    splitting faces — the standard fan construction keeps the graph
    outerplanar.
    """
    if n < 3:
        raise ValueError("outerplanar graph needs at least three vertices")
    rng = np.random.default_rng(seed)
    edges = set((i, (i + 1) % n) for i in range(n))
    edges = {(min(u, v), max(u, v)) for u, v in edges}
    # Non-crossing chords: maintain a set of "intervals" (faces) of the outer
    # cycle; splitting an interval [i, j] at k adds chord (i, j) only when the
    # interval has length >= 2.  This is a triangulation-style process.
    intervals: List[Tuple[int, int]] = [(0, n - 1)]
    added = 0
    while added < extra_chords and intervals:
        idx = int(rng.integers(0, len(intervals)))
        i, j = intervals.pop(idx)
        if j - i < 2:
            continue
        k = int(rng.integers(i + 1, j))
        chord_candidates = []
        if (min(i, k), max(i, k)) not in edges and abs(i - k) > 1:
            chord_candidates.append((i, k))
        if (min(k, j), max(k, j)) not in edges and abs(k - j) > 1:
            chord_candidates.append((k, j))
        for u, v in chord_candidates:
            if added >= extra_chords:
                break
            edges.add((min(u, v), max(u, v)))
            added += 1
        intervals.append((i, k))
        intervals.append((k, j))
    return _finalize(PortLabeledGraph(n, sorted(edges)))


def interval_graph_from_intervals(intervals: Sequence[Tuple[float, float]]) -> PortLabeledGraph:
    """Intersection graph of the given closed real intervals."""
    n = len(intervals)
    g = PortLabeledGraph(n)
    for i in range(n):
        ai, bi = intervals[i]
        if bi < ai:
            raise ValueError(f"interval {i} has negative length: {intervals[i]}")
        for j in range(i + 1, n):
            aj, bj = intervals[j]
            if ai <= bj and aj <= bi:
                g.add_edge(i, j)
    return _finalize(g)


def random_interval_graph(n: int, length: float = 0.3, seed: Optional[int] = None) -> PortLabeledGraph:
    """Random interval graph: ``n`` intervals with random starts in [0,1]."""
    rng = np.random.default_rng(seed)
    starts = rng.random(n)
    intervals = [(float(s), float(s + length)) for s in starts]
    return interval_graph_from_intervals(intervals)


def unit_circular_arc_graph(
    n: int, arc_fraction: float = 0.3, seed: Optional[int] = None
) -> PortLabeledGraph:
    """Random unit circular-arc graph.

    ``n`` arcs of identical angular width ``arc_fraction * 2 * pi`` with
    uniformly random starting angles; vertices are adjacent iff the arcs
    intersect on the circle.
    """
    if not 0 < arc_fraction < 1:
        raise ValueError("arc_fraction must lie strictly between 0 and 1")
    rng = np.random.default_rng(seed)
    starts = rng.random(n)
    width = arc_fraction
    g = PortLabeledGraph(n)

    def _intersect(s1: float, s2: float) -> bool:
        d = abs(s1 - s2)
        d = min(d, 1.0 - d)
        return d <= width

    for i in range(n):
        for j in range(i + 1, n):
            if _intersect(float(starts[i]), float(starts[j])):
                g.add_edge(i, j)
    return _finalize(g)


def random_chordal_graph(n: int, extra_edges: int = 0, seed: Optional[int] = None) -> PortLabeledGraph:
    """Random connected chordal graph built by reversing a perfect elimination order.

    Vertex ``i`` (added ``i``-th) picks a random already-present vertex clique
    seed and connects to a random clique around it, which guarantees
    chordality; ``extra_edges`` controls the expected density.
    """
    if n < 1:
        raise ValueError("chordal graph needs at least one vertex")
    rng = np.random.default_rng(seed)
    adj: List[set] = [set() for _ in range(n)]
    for v in range(1, n):
        anchor = int(rng.integers(0, v))
        # Connect to anchor plus a random subset of anchor's earlier neighbours
        # (a clique in the already-built graph restricted to earlier vertices).
        clique = {anchor}
        candidates = [u for u in adj[anchor] if u < v]
        rng.shuffle(candidates)
        take = int(rng.integers(0, len(candidates) + 1)) if extra_edges > 0 else 0
        for u in candidates[:take]:
            if all(w in adj[u] or w == u for w in clique):
                clique.add(u)
        for u in clique:
            adj[v].add(u)
            adj[u].add(v)
    edges = [(u, v) for u in range(n) for v in adj[u] if u < v]
    return _finalize(PortLabeledGraph(n, edges))


def random_connected_graph(
    n: int, extra_edge_prob: float = 0.1, seed: Optional[int] = None
) -> PortLabeledGraph:
    """Random connected graph: a random spanning tree plus Erdős–Rényi extra edges."""
    if not 0 <= extra_edge_prob <= 1:
        raise ValueError("extra_edge_prob must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    tree = random_tree(n, seed=None if seed is None else seed + 1)
    g = tree.copy()
    if n >= 2 and extra_edge_prob > 0:
        upper = np.triu_indices(n, k=1)
        mask = rng.random(len(upper[0])) < extra_edge_prob
        for u, v in zip(upper[0][mask], upper[1][mask]):
            if not g.has_edge(int(u), int(v)):
                g.add_edge(int(u), int(v))
    return _finalize(g)


def _pairing_edges(n: int, degree: int, rng: random.Random) -> Set[Tuple[int, int]]:
    """One simple ``degree``-regular edge set from the pairing model.

    Steger & Wormald, *Generating random regular graphs quickly* (1999):
    shuffle the ``n * degree`` stubs, pair them up, keep every pair that is
    neither a loop nor a repeated edge, and re-shuffle only the stubs of
    the rejected pairs; restart from scratch when no rejected stub can
    still pair up.  Draws from ``rng`` exactly as the reference sampler
    raced in ``tests/oracles.py`` does, so a seed samples the same graph
    under both.
    """
    while True:
        edges: Set[Tuple[int, int]] = set()
        stubs = list(range(n)) * degree
        while stubs:
            # Insertion-ordered, so the re-shuffled stub list is a
            # deterministic function of the draws.
            potential: Dict[int, int] = {}
            rng.shuffle(stubs)
            it = iter(stubs)
            for s1, s2 in zip(it, it):
                if s1 > s2:
                    s1, s2 = s2, s1
                if s1 != s2 and (s1, s2) not in edges:
                    edges.add((s1, s2))
                else:
                    potential[s1] = potential.get(s1, 0) + 1
                    potential[s2] = potential.get(s2, 0) + 1
            if not _can_pair(edges, potential):
                break
            stubs = [node for node, count in potential.items() for _ in range(count)]
        else:
            return edges


def _can_pair(edges: Set[Tuple[int, int]], potential: Dict[int, int]) -> bool:
    """Whether some two leftover stub owners look pairable.

    The reference sampler's scan, quirk included: the swap rebinds ``s1``
    for the rest of the inner loop, which changes the pairs scanned and
    therefore when a sample restarts.  Scanning every pair instead would
    draw a different graph for some seeds.
    """
    if not potential:
        return True
    for s1 in potential:
        for s2 in potential:
            if s1 == s2:
                break
            if s1 > s2:
                s1, s2 = s2, s1
            if (s1, s2) not in edges:
                return True
    return False


def random_regular_graph(n: int, degree: int, seed: Optional[int] = None) -> PortLabeledGraph:
    """Random ``degree``-regular simple connected graph.

    Samples the pairing model (:func:`_pairing_edges`) with
    ``random.Random(seed + attempt)`` until the graph is connected, for at
    most 50 attempts; raises :class:`ValueError` when ``n * degree`` is odd
    or ``degree`` is not in ``[0, n)``.
    """
    if not 0 <= degree < n or (n * degree) % 2 != 0:
        raise ValueError("need 0 <= degree < n and n*degree even")
    for attempt in range(50):
        rng = random.Random(None if seed is None else seed + attempt)
        edges = _pairing_edges(n, degree, rng) if degree else set()
        g = PortLabeledGraph(n, edges)
        if is_connected(g):
            return _finalize(g)
    raise RuntimeError("failed to sample a connected regular graph after 50 attempts")


def butterfly_like_expander(n: int, seed: Optional[int] = None) -> PortLabeledGraph:
    """A small-diameter sparse graph (union of a cycle and two random matchings).

    Used by the trade-off benchmarks as a stand-in for the bounded-degree
    expanders on which hierarchical schemes shine.
    """
    if n < 4:
        raise ValueError("need at least 4 vertices")
    rng = np.random.default_rng(seed)
    g = cycle_graph(n)
    for _ in range(2):
        perm = rng.permutation(n)
        for i in range(0, n - 1, 2):
            u, v = int(perm[i]), int(perm[i + 1])
            if u != v and not g.has_edge(u, v):
                g.add_edge(u, v)
    return _finalize(g)
