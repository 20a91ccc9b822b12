"""Interval routing schemes (ILS).

The *shortest path interval routing scheme* (Santoro & Khatib; van Leeuwen &
Tan) groups, on each output arc, the destination labels routed through that
arc into cyclic intervals.  The memory needed at a router is then roughly
``(number of intervals) * 2 * ceil(log2 n)`` bits instead of one entry per
destination.  Section 1 of the paper recalls that trees (acyclic graphs),
outerplanar graphs and unit circular-arc graphs admit 1-interval shortest
path routing, giving ``MEM_local = O(d log n)`` bits, whereas on worst-case
graphs the number of intervals per arc can be large — which is exactly why
the universal version of the scheme cannot beat routing tables (Theorem 1).

Two builders are provided:

* :class:`TreeIntervalRoutingScheme` — the classical optimal 1-interval
  labelling on trees (DFS numbering).
* :class:`IntervalRoutingScheme` — universal: shortest-path next hops plus a
  DFS-based vertex relabelling heuristic that keeps the number of intervals
  small on the easy graph classes while remaining correct on all graphs.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.graphs.digraph import PortLabeledGraph
from repro.graphs.properties import is_tree
from repro.graphs.shortest_paths import UNREACHABLE, distance_matrix
from repro.routing.model import DELIVER, BaseRoutingScheme, RoutingFunction
from repro.routing.tables import TieBreak, check_tie_break, shortest_path_ports

__all__ = [
    "cyclic_intervals_of_set",
    "IntervalRoutingFunction",
    "IntervalRoutingScheme",
    "TreeIntervalRoutingScheme",
]

Interval = Tuple[int, int]


def cyclic_intervals_of_set(labels: Sequence[int], n: int) -> List[Interval]:
    """Minimal set of cyclic intervals over ``Z_n`` covering ``labels`` exactly.

    An interval ``(lo, hi)`` denotes ``{lo, lo+1, ..., hi}`` modulo ``n``
    (wrapping when ``hi < lo``).  The returned list is minimal: its length is
    the number of maximal runs of consecutive labels on the cycle, which is
    the standard "number of intervals" measure of interval routing.

    Raises :class:`ValueError` on labels outside ``0..n-1`` or duplicates.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    label_set = set(int(x) for x in labels)
    if len(label_set) != len(list(labels)):
        raise ValueError("duplicate labels")
    if any(not 0 <= x < n for x in label_set):
        raise ValueError(f"labels must lie in 0..{n - 1}")
    in_set = np.zeros(n, dtype=bool)
    in_set[list(label_set)] = True
    return _cyclic_runs(in_set)


def _cyclic_runs(in_set: np.ndarray) -> List[Interval]:
    """Maximal cyclic runs of ``True`` in ``in_set``, in scan order.

    The scan starts right after the first gap, so no run is split at 0.
    """
    n = in_set.size
    if in_set.all():
        return [(0, n - 1)]
    start = int(np.argmin(in_set)) + 1
    scan = np.concatenate(([False], in_set[start:], in_set[:start], [False]))
    edges = np.diff(scan.view(np.int8))
    starts, stops = (np.nonzero(edges == step)[0] + start for step in (1, -1))
    return [(a % n, (b - 1) % n) for a, b in zip(starts.tolist(), stops.tolist())]


def _interval_contains(interval: Interval, label: int, n: int) -> bool:
    lo, hi = interval
    if lo <= hi:
        return lo <= label <= hi
    return label >= lo or label <= hi


class IntervalRoutingFunction(RoutingFunction):
    """Routing function whose local decision is an interval lookup.

    Parameters
    ----------
    graph:
        Underlying graph.
    labeling:
        Bijection ``vertex -> label`` in ``0 .. n-1`` chosen by the scheme.
    port_intervals:
        ``port_intervals[x][p]`` is the tuple of cyclic intervals of
        destination *labels* routed from ``x`` through port ``p``.  The
        intervals of the ports of a vertex must partition the labels of the
        other vertices.
    """

    #: Headers are destination labels in ``0..n-1`` (never rewritten): the
    #: header-compiled simulator path applies.
    can_vectorize = True

    def program_kind(self) -> str:
        """Next-hop form iff the label-constant contract is intact.

        Interval headers are fixed destination labels; a subclass that
        rewrites them or changes how the initial label is derived falls
        through to the base resolution instead of being compiled to a
        fabricated ``dest -> port`` matrix.
        """
        cls = type(self)
        if (
            cls.next_header is RoutingFunction.next_header
            and cls.initial_header is IntervalRoutingFunction.initial_header
        ):
            return "next-hop"
        return super().program_kind()

    def __init__(
        self,
        graph: PortLabeledGraph,
        labeling: Mapping[int, int],
        port_intervals: Mapping[int, Mapping[int, Sequence[Interval]]],
        validate: bool = True,
    ) -> None:
        super().__init__(graph)
        self._label_of: Dict[int, int] = {int(v): int(l) for v, l in labeling.items()}
        self._vertex_of_label: Dict[int, int] = {l: v for v, l in self._label_of.items()}
        self._port_intervals: Dict[int, Dict[int, Tuple[Interval, ...]]] = {
            int(x): {int(p): tuple((int(a), int(b)) for a, b in ivs) for p, ivs in d.items()}
            for x, d in port_intervals.items()
        }
        if validate:
            self._validate()

    def _validate(self) -> None:
        n = self._graph.n
        if sorted(self._label_of.values()) != list(range(n)):
            raise ValueError("labeling must be a bijection onto 0..n-1")
        for x in range(n):
            for p in self._port_intervals.get(x, {}):
                if not 1 <= p <= self._graph.degree(x):
                    raise ValueError(f"vertex {x}: invalid port {p}")
            expected = np.ones(n, dtype=np.int64)
            expected[self._label_of[x]] = 0
            covered = np.bincount(self._expanded(x)[0], minlength=n)
            if (covered != expected).any():
                lab = int(np.argmax(covered != expected))
                raise ValueError(
                    f"vertex {x}: label {lab} lies in {covered[lab]} intervals, "
                    f"expected {expected[lab]}"
                )

    def _expanded(self, node: int) -> Tuple[np.ndarray, np.ndarray]:
        """Every label of every interval at ``node`` with its port, in lookup order."""
        n = self._graph.n
        intervals = self._port_intervals.get(node, {}).items()
        flat = [(p, lo, hi) for p, ivs in intervals for lo, hi in ivs]
        ports, los, his = np.array(flat, dtype=np.int64).reshape(-1, 3).T
        lengths = (his - los) % n + 1
        offsets = np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        return (np.repeat(los, lengths) + offsets) % n, np.repeat(ports, lengths)

    # ------------------------------------------------------------------
    def label_of(self, vertex: int) -> int:
        """Label assigned to ``vertex`` by the scheme."""
        return self._label_of[vertex]

    def vertex_of_label(self, label: int) -> int:
        """Vertex carrying ``label``."""
        return self._vertex_of_label[label]

    def intervals_at(self, node: int) -> Dict[int, Tuple[Interval, ...]]:
        """Mapping ``port -> intervals`` at ``node`` (a copy)."""
        return {p: tuple(ivs) for p, ivs in self._port_intervals.get(node, {}).items()}

    def num_intervals(self, node: int) -> int:
        """Total number of intervals stored at ``node``."""
        return sum(len(ivs) for ivs in self._port_intervals.get(node, {}).values())

    def max_intervals_per_arc(self) -> int:
        """Maximum number of intervals on a single arc (the ILS compactness)."""
        best = 0
        for x, ports in self._port_intervals.items():
            for ivs in ports.values():
                best = max(best, len(ivs))
        return best

    def local_encoding_bits(self, node: int) -> int:
        """Bits of the scheme's own interval representation at ``node``.

        Per port: an Elias-gamma interval count plus two ``ceil(log2 n)``-bit
        endpoints per interval — the encoding whose size is ``O(deg log n)``
        on the 1-interval graph classes of Section 1.  This is the quantity
        :func:`repro.memory.requirement.local_memory_bits` uses for interval
        routing functions (the generic coders cannot see the scheme's vertex
        relabelling and would over-count).
        """
        from repro.memory.encoding import elias_gamma_length, fixed_width

        n = self._graph.n
        label_width = fixed_width(max(n - 1, 0))
        total = 0
        for port in range(1, self._graph.degree(node) + 1):
            intervals = self._port_intervals.get(node, {}).get(port, ())
            total += elias_gamma_length(len(intervals) + 1)
            total += 2 * label_width * len(intervals)
        return total

    # ------------------------------------------------------------------
    def initial_header(self, source: int, dest: int) -> int:
        return self._label_of[dest]

    def port(self, node: int, header: int) -> int:
        label = int(header)
        if label == self._label_of[node]:
            return DELIVER
        n = self._graph.n
        for p, ivs in self._port_intervals.get(node, {}).items():
            for iv in ivs:
                if _interval_contains(iv, label, n):
                    return p
        raise ValueError(f"vertex {node} has no interval containing label {label}")

    def next_node_matrix(self) -> Optional[np.ndarray]:
        """Every port's cyclic intervals expanded, the first match winning.

        Raises the lookup's own :class:`ValueError` for the first
        (destination-major) label no interval covers.
        """
        if type(self).port is not IntervalRoutingFunction.port:
            return None
        from repro.routing.program import next_nodes_of_ports

        n = self._graph.n
        by_label = np.full((n, n), -1, dtype=np.int64)
        for x in range(n):
            labels, ports = self._expanded(x)
            covered, first = np.unique(labels, return_index=True)
            by_label[x, covered] = ports[first]
        label_of = np.array([self._label_of[v] for v in range(n)])
        by_dest = by_label[:, label_of]
        np.fill_diagonal(by_dest, DELIVER)
        if (by_dest < 0).any():
            dest, x = (int(i[0]) for i in np.nonzero(by_dest.T < 0))
            raise ValueError(f"vertex {x} has no interval containing label {label_of[dest]}")
        return next_nodes_of_ports(self._graph, by_dest)

    def local_map(self, node: int) -> Dict[int, int]:
        """The ``dest -> port`` map induced by the interval lookup (for checks)."""
        return {
            dest: self.port(node, self._label_of[dest])
            for dest in self._graph.vertices()
            if dest != node
        }


class TreeIntervalRoutingScheme(BaseRoutingScheme):
    """Optimal 1-interval shortest-path routing on trees.

    Vertices are relabelled by DFS (preorder) numbers from ``root``; the arc
    from a vertex to a child carries the single interval of the child's
    subtree and the arc to the parent carries the (cyclic) complement of the
    vertex's own subtree.  Every arc stores exactly one interval, hence the
    ``O(d log n)`` bits per router quoted in the paper.
    """

    name = "tree-interval-routing"
    stretch_guarantee = 1.0

    def __init__(self, root: int = 0) -> None:
        self.root = root

    def build(self, graph: PortLabeledGraph) -> IntervalRoutingFunction:
        """Build the 1-interval routing function; raises on non-trees."""
        if not is_tree(graph):
            raise ValueError("TreeIntervalRoutingScheme requires a tree")
        n = graph.n
        root = self.root
        if not 0 <= root < n:
            raise ValueError(f"root {root} out of range")
        # Iterative DFS computing preorder numbers and subtree sizes.
        preorder: Dict[int, int] = {}
        subtree_size: Dict[int, int] = {}
        parent: Dict[int, int] = {root: -1}
        order: List[int] = []
        stack: List[int] = [root]
        counter = 0
        while stack:
            u = stack.pop()
            preorder[u] = counter
            counter += 1
            order.append(u)
            for v in reversed(graph.neighbors(u)):
                if v not in parent and v != root:
                    parent[v] = u
                    stack.append(v)
        for u in reversed(order):
            subtree_size[u] = 1 + sum(
                subtree_size[v] for v in graph.neighbors(u) if parent.get(v) == u
            )
        port_intervals: Dict[int, Dict[int, List[Interval]]] = {}
        for u in range(n):
            ivs: Dict[int, List[Interval]] = {}
            for v in graph.neighbors(u):
                p = graph.port(u, v)
                if parent.get(v) == u:
                    ivs[p] = [(preorder[v], preorder[v] + subtree_size[v] - 1)]
                else:
                    # Arc towards the parent: cyclic complement of u's subtree.
                    lo = (preorder[u] + subtree_size[u]) % n
                    hi = (preorder[u] - 1) % n
                    ivs[p] = [(lo, hi)]
            port_intervals[u] = ivs
        return IntervalRoutingFunction(graph, preorder, port_intervals)


class IntervalRoutingScheme(BaseRoutingScheme):
    """Universal shortest-path interval routing.

    Next hops are shortest-path next hops (same tie-breaking options as
    :class:`~repro.routing.tables.ShortestPathTableScheme`); the vertex
    relabelling is a DFS preorder of a BFS tree rooted at ``root``, the
    classical heuristic that yields one interval per arc on trees and few
    intervals on ring-, grid- and outerplanar-like graphs.  On arbitrary
    graphs the scheme remains correct but the number of intervals per arc may
    grow up to ``Θ(n)`` — this is the measurable face of the paper's lower
    bound.
    """

    name = "interval-routing"
    stretch_guarantee = 1.0

    def __init__(self, root: int = 0, tie_break: TieBreak = "lowest_port") -> None:
        self.root = root
        self.tie_break: TieBreak = check_tie_break(tie_break)

    def build(self, graph: PortLabeledGraph) -> IntervalRoutingFunction:
        """Build the interval routing function for an arbitrary connected graph."""
        n = graph.n
        dist = distance_matrix(graph)
        if n > 1 and (dist == UNREACHABLE).any():
            raise ValueError("interval routing requires a connected graph")
        labeling = self._dfs_labeling(graph)
        ports = shortest_path_ports(graph, tie_break=self.tie_break, dist=dist)
        by_label = np.empty_like(ports)
        by_label[:, [labeling[v] for v in range(n)]] = ports
        port_intervals: Dict[int, Dict[int, List[Interval]]] = {}
        for x in range(n):
            used, first = np.unique(np.delete(ports[x], x), return_index=True)
            port_intervals[x] = {
                int(p): _cyclic_runs(by_label[x] == p) for p in used[np.argsort(first)]
            }
        return IntervalRoutingFunction(graph, labeling, port_intervals)

    def _dfs_labeling(self, graph: PortLabeledGraph) -> Dict[int, int]:
        """DFS preorder labelling started at ``self.root``."""
        n = graph.n
        root = self.root if 0 <= self.root < n else 0
        label: Dict[int, int] = {}
        seen = [False] * n
        stack = [root]
        seen[root] = True
        counter = 0
        while stack:
            u = stack.pop()
            label[u] = counter
            counter += 1
            for v in reversed(graph.neighbors(u)):
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
        # Disconnected graphs are rejected in build(); defensive completion here.
        for v in range(n):
            if v not in label:
                label[v] = counter
                counter += 1
        return label
