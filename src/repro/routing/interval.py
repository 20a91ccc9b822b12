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

import functools
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.graphs.digraph import PortLabeledGraph
from repro.graphs.properties import is_tree
from repro.graphs.shortest_paths import UNREACHABLE, distance_matrix
from repro.routing.model import DELIVER, BaseRoutingScheme, RoutingFunction
from repro.routing.tables import TieBreak, check_tie_break, shortest_path_ports

__all__ = [
    "cyclic_intervals_of_set",
    "cyclic_runs",
    "IntervalRoutingFunction",
    "IntervalRoutingScheme",
    "TreeIntervalRoutingScheme",
]

Interval = Tuple[int, int]


def cyclic_runs(rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximal cyclic runs of equal values along every row of ``rows``.

    Returns ``(row, lo, hi)`` in row-major label order: run ``i`` covers
    the labels ``lo[i] .. hi[i]`` of row ``row[i]`` modulo the row length
    (wrapping when ``hi < lo``) and holds the value ``rows[row[i], lo[i]]``.
    A run starts wherever a value differs from its cyclic predecessor (one
    roll-compare over all rows) and ends right before the next start of
    its row; a row's last run wraps round to its first start.  A constant
    row has no run start and yields no run.
    """
    n = rows.shape[1]
    row, lo = np.nonzero(rows != np.roll(rows, 1, axis=1))
    first = np.diff(row, prepend=-1) != 0
    last = np.diff(row, append=-1) != 0
    hi = np.roll(lo, -1)
    hi[last] = lo[first]
    return row, lo, (hi - 1) % n


def _scan_key(lo: np.ndarray, n: int) -> np.ndarray:
    """Sort key putting the runs ``lo`` of one set in scan order.

    A scan starting right after the set's first gap meets the runs by
    increasing first label, except a run starting at 0, which it meets last
    (label ``n - 1`` then lies in the gap before it).
    """
    return (lo - 1) % n


def cyclic_intervals_of_set(labels: Sequence[int], n: int) -> List[Interval]:
    """Minimal set of cyclic intervals over ``Z_n`` covering ``labels`` exactly.

    An interval ``(lo, hi)`` denotes ``{lo, lo+1, ..., hi}`` modulo ``n``
    (wrapping when ``hi < lo``).  The returned list is minimal: its length is
    the number of maximal runs of consecutive labels on the cycle, which is
    the standard "number of intervals" measure of interval routing.  The
    runs come in scan order, starting right after the first gap.

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
    if in_set.all():
        return [(0, n - 1)]
    _, lo, hi = cyclic_runs(in_set[None, :])
    inside = in_set[lo]
    lo, hi = lo[inside], hi[inside]
    order = np.argsort(_scan_key(lo, n))
    return list(zip(lo[order].tolist(), hi[order].tolist()))


class IntervalRoutingFunction(RoutingFunction):
    """Routing function whose local decision is an interval lookup.

    The function is held as arrays.  ``by_label[x, label]`` is the port
    ``x`` uses towards the vertex carrying ``label``
    (:data:`~repro.routing.model.DELIVER` at ``x``'s own label, ``-1`` for
    a label no interval covers); :meth:`port`, the per-message hot path,
    is one lookup in its rows, kept also as plain lists.  The
    intervals of ``x`` are the maximal cyclic runs of equal ports along
    its row (:func:`cyclic_runs`), kept in label order as the slices
    ``run_ptr[x]:run_ptr[x + 1]`` of three run arrays: first label, last
    label and port.

    Parameters
    ----------
    graph:
        Underlying graph.
    labeling:
        Bijection ``vertex -> label`` in ``0 .. n-1`` chosen by the scheme.
    port_intervals:
        Either the ``(n, n)`` label-ordered port matrix ``by_label`` (held
        as is; its own-label entries must be ``DELIVER``) or a mapping
        ``port_intervals[x][p]`` of the cyclic intervals of destination
        *labels* routed from ``x`` through port ``p``, expanded once into
        that matrix.  The intervals of the ports of a vertex must partition
        the labels of the other vertices; unvalidated overlaps resolve to
        the first port listed.
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
        port_intervals: Union[Mapping[int, Mapping[int, Sequence[Interval]]], np.ndarray],
        validate: bool = True,
    ) -> None:
        super().__init__(graph)
        n = graph.n
        self._label_of: List[int] = [int(labeling.get(v, -1)) for v in range(n)]
        self._vertex_of_label: Dict[int, int] = {l: v for v, l in enumerate(self._label_of)}
        if validate and sorted(self._label_of) != list(range(n)):
            raise ValueError("labeling must be a bijection onto 0..n-1")
        if isinstance(port_intervals, np.ndarray):
            by_label = port_intervals
        else:
            by_label = self._expand(port_intervals, validate)
        if validate:
            self._check_ports(by_label)
        self._by_label = by_label
        self._port_rows: List[List[int]] = by_label.tolist()
        row, lo, hi = cyclic_runs(by_label)
        port = by_label[row, lo]
        keep = port > DELIVER
        self._run_lo, self._run_hi, self._run_port = lo[keep], hi[keep], port[keep]
        self._run_ptr = np.searchsorted(row[keep], np.arange(n + 1))

    def _expand(
        self, port_intervals: Mapping[int, Mapping[int, Sequence[Interval]]], validate: bool
    ) -> np.ndarray:
        """The label-ordered port matrix of explicit intervals, first listed winning.

        With ``validate`` a label covered by no interval, or by several, of
        its vertex raises.
        """
        n = self._graph.n
        flat = [
            (int(x), int(p), int(a), int(b))
            for x, ivs_of in port_intervals.items()
            for p, ivs in ivs_of.items()
            for a, b in ivs
        ]
        nodes, ports, los, his = np.array(flat, dtype=np.int64).reshape(-1, 4).T
        lengths = (his - los) % n + 1
        offsets = np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        keys = np.repeat(nodes * n, lengths) + (np.repeat(los, lengths) + offsets) % n
        by_label = np.full(n * n, -1, dtype=np.int64)
        covered, first = np.unique(keys, return_index=True)
        by_label[covered] = np.repeat(ports, lengths)[first]
        by_label = by_label.reshape(n, n)
        own = np.array(self._label_of, dtype=np.int64)
        if validate:
            counts = np.bincount(keys, minlength=n * n).reshape(n, n)
            expected = np.ones((n, n), dtype=np.int64)
            expected[np.arange(n), own] = 0
            wrong = counts != expected
            if wrong.any():
                x, lab = (int(i[0]) for i in np.nonzero(wrong))
                raise ValueError(
                    f"vertex {x}: label {lab} lies in {counts[x, lab]} intervals, "
                    f"expected {expected[x, lab]}"
                )
        by_label[np.arange(n), own] = DELIVER
        return by_label

    def _check_ports(self, by_label: np.ndarray) -> None:
        """Raise unless every label but a vertex's own maps to one of its ports."""
        n = self._graph.n
        degrees = np.diff(self._graph.adjacency_arrays()[0])
        own = np.zeros((n, n), dtype=bool)
        own[np.arange(n), self._label_of] = True
        valid = np.where(own, by_label == DELIVER, (by_label >= 1) & (by_label <= degrees[:, None]))
        if not valid.all():
            x, lab = (int(i[0]) for i in np.nonzero(~valid))
            raise ValueError(f"vertex {x}: invalid port {by_label[x, lab]} for label {lab}")

    # ------------------------------------------------------------------
    def label_of(self, vertex: int) -> int:
        """Label assigned to ``vertex`` by the scheme."""
        return self._label_of[vertex]

    def vertex_of_label(self, label: int) -> int:
        """Vertex carrying ``label``."""
        return self._vertex_of_label[label]

    def _runs(self, node: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        a, b = self._run_ptr[node], self._run_ptr[node + 1]
        return self._run_lo[a:b], self._run_hi[a:b], self._run_port[a:b]

    def intervals_at(self, node: int) -> Dict[int, Tuple[Interval, ...]]:
        """Mapping ``port -> intervals`` at ``node`` (a copy).

        Ports come in the order of their first destination vertex, and each
        port's intervals in scan order (see :func:`cyclic_intervals_of_set`).
        """
        n = self._graph.n
        lo, hi, port = self._runs(node)
        used, first = np.unique(self._by_label[node, self._label_of], return_index=True)
        rank = {p: r for r, p in enumerate(used[np.argsort(first)].tolist())}
        port_rank = np.array([rank[p] for p in port.tolist()], dtype=np.int64)
        order = np.lexsort((_scan_key(lo, n), port_rank))
        out: Dict[int, List[Interval]] = {}
        for p, a, b in zip(port[order].tolist(), lo[order].tolist(), hi[order].tolist()):
            out.setdefault(p, []).append((a, b))
        return {p: tuple(ivs) for p, ivs in out.items()}

    def num_intervals(self, node: int) -> int:
        """Total number of intervals stored at ``node``."""
        return int(self._run_ptr[node + 1] - self._run_ptr[node])

    def max_intervals_per_arc(self) -> int:
        """Maximum number of intervals on a single arc (the ILS compactness)."""
        nodes = np.repeat(np.arange(self._graph.n), np.diff(self._run_ptr))
        arcs = nodes * (int(self._run_port.max(initial=0)) + 1) + self._run_port
        return int(np.bincount(arcs).max(initial=0))

    def local_encoding_bits(self, node: int) -> int:
        """Bits of the scheme's own interval representation at ``node``.

        Per port: an Elias-gamma interval count plus two ``ceil(log2 n)``-bit
        endpoints per interval — the encoding whose size is ``O(deg log n)``
        on the 1-interval graph classes of Section 1.  It is the closed-form
        ``interval-table`` length of :func:`repro.memory.coder.table_coder_bits`
        over ``node``'s label-ordered port row, which
        :func:`repro.memory.requirement.memory_profile` uses for interval
        routing functions (the generic coders cannot see the scheme's vertex
        relabelling and would over-count); its encoder and decoder live in
        ``tests/oracles.py``.
        """
        return int(self._encoding_bits[node])

    @functools.cached_property
    def _encoding_bits(self) -> np.ndarray:
        """:meth:`local_encoding_bits` of every vertex, scored in one pass."""
        from repro.memory.coder import TABLE_CODERS, table_coder_bits

        degrees = np.diff(self._graph.adjacency_arrays()[0])
        return table_coder_bits(self._by_label, degrees)[TABLE_CODERS.index("interval-table")]

    # ------------------------------------------------------------------
    def initial_header(self, source: int, dest: int) -> int:
        return self._label_of[dest]

    def port(self, node: int, header: int) -> int:
        row = self._port_rows[node]
        if 0 <= header < len(row):
            port = row[header]
            if port >= 0:
                return port
        raise ValueError(f"vertex {node} has no interval containing label {header}")

    def next_node_matrix(self) -> Optional[np.ndarray]:
        """The port matrix read in destination order.

        Raises the lookup's own :class:`ValueError` for the first
        (destination-major) label no interval covers.
        """
        if type(self).port is not IntervalRoutingFunction.port:
            return None
        from repro.routing.program import next_nodes_of_ports

        by_dest = self._by_label[:, self._label_of]
        if (by_dest < 0).any():
            dest, x = (int(i[0]) for i in np.nonzero(by_dest.T < 0))
            raise ValueError(
                f"vertex {x} has no interval containing label {self._label_of[dest]}"
            )
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
        # Shortest-path ports under a DFS bijection: valid by construction.
        return IntervalRoutingFunction(graph, labeling, by_label, validate=False)

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
