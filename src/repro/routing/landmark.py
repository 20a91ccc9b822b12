"""Cowen-style landmark (pivot) routing — a universal stretch-3 scheme.

This is the classical space/stretch trade-off construction underlying the
``s >= 3`` rows of Table 1: pick a set ``L`` of *landmarks*; every vertex
``u`` stores

* the output port of a shortest path towards every landmark, and
* the output port towards every vertex of its *cluster*
  ``C(u) = { v : d(u, v) < d(v, L) }`` (vertices strictly closer to ``u``
  than to their own nearest landmark).

The address of a destination ``v`` is ``(v, l(v), e(v))`` where ``l(v)`` is
``v``'s nearest landmark and ``e(v)`` the output port used at ``l(v)`` on a
shortest path towards ``v``.  Routing a message from ``u`` to ``v``:

1. if ``v ∈ C(u)`` or ``v`` is a landmark known to ``u`` → forward on the
   stored shortest-path port (and the same holds inductively at every node
   closer to ``v``);
2. otherwise forward towards ``l(v)`` on the stored landmark port; when the
   message reaches ``l(v)`` it exits through ``e(v)``, and the node reached
   is strictly closer to ``v`` than ``d(v, l(v))``, hence ``v`` lies in its
   cluster and case 1 applies forever after.

The resulting routing path length is at most ``d(u, v) + 2 d(v, l(v)) <=
3 d(u, v)`` whenever case 2 is taken, hence stretch ≤ 3.  Memory per vertex
is ``O((|L| + |C(u)|) log n)`` bits; choosing ``|L| ≈ sqrt(n log n)``
balances the two terms at ``Õ(sqrt(n))`` in expectation on arbitrary graphs.

The scheme is *labeled* (addresses carry ``O(log n)`` extra bits); the paper
explicitly accounts for such schemes in its Table 1 comments, and the memory
report separates table bits from address bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, List, Optional, Set, Tuple

import numpy as np

from repro.graphs.digraph import PortLabeledGraph
from repro.graphs.shortest_paths import UNREACHABLE, distance_matrix
from repro.routing.model import (
    BaseRoutingScheme,
    DELIVER,
    HeaderTransitions,
    LabeledRoutingFunction,
)
from repro.routing.tables import shortest_path_ports

__all__ = [
    "LandmarkAddress",
    "LandmarkRoutingFunction",
    "RewritingLandmarkRoutingFunction",
    "CowenLandmarkScheme",
]


@dataclass(frozen=True)
class LandmarkAddress:
    """Routing address ``(dest, landmark, port_at_landmark)`` of a destination."""

    dest: int
    landmark: int
    port_at_landmark: int


class LandmarkRoutingFunction(LabeledRoutingFunction):
    """Routing function of the Cowen landmark scheme.

    The tables are held as arrays: ``ports``, ``clusters`` and ``nearest``
    as given, plus one row list per vertex, ``stored[u][v]``, the port ``u``
    stores for ``v`` (a cluster member or another landmark) or ``0``
    (:data:`~repro.routing.model.DELIVER`) when it stores none, ``u``
    itself included.  :meth:`port` reads that list and the header, nothing
    else; :meth:`cluster`, :meth:`table_entries` and
    :meth:`table_sizes` derive their views from the arrays.

    Parameters
    ----------
    graph:
        Underlying connected graph.
    landmarks:
        The landmark set (non-empty).
    ports:
        ``(n, n)`` shortest-path port matrix
        (:func:`~repro.routing.tables.shortest_path_ports`); a vertex
        stores the entries of its row for its cluster and for the other
        landmarks.
    clusters:
        ``(n, n)`` boolean matrix, ``clusters[u, v]`` iff ``v`` is in the
        cluster of ``u`` (never ``u`` itself).
    nearest:
        ``nearest[v]`` is the landmark of ``v``.
    """

    def __init__(
        self,
        graph: PortLabeledGraph,
        landmarks: FrozenSet[int],
        ports: np.ndarray,
        clusters: np.ndarray,
        nearest: np.ndarray,
    ) -> None:
        super().__init__(graph)
        self._landmarks = landmarks
        self._ports = ports
        self._clusters = clusters
        self._nearest = nearest
        self._is_landmark = np.zeros(graph.n, dtype=bool)
        self._is_landmark[sorted(landmarks)] = True
        stored = clusters | self._is_landmark
        np.fill_diagonal(stored, False)
        self._stored: List[List[int]] = np.where(stored, ports, DELIVER).tolist()
        at_landmark = ports[nearest, np.arange(graph.n)]
        self._addresses: List[LandmarkAddress] = [
            LandmarkAddress(dest=v, landmark=l, port_at_landmark=p)
            for v, (l, p) in enumerate(zip(nearest.tolist(), at_landmark.tolist()))
        ]

    # ------------------------------------------------------------------
    @property
    def landmarks(self) -> FrozenSet[int]:
        """The landmark set."""
        return self._landmarks

    def cluster(self, node: int) -> Set[int]:
        """Cluster of ``node`` (the destinations it stores a direct port for)."""
        return set(np.flatnonzero(self._clusters[node]).tolist())

    def address(self, dest: int) -> LandmarkAddress:
        """Routing address of ``dest``."""
        return self._addresses[dest]

    def table_entries(self, node: int) -> Dict[int, int]:
        """All ``target -> port`` entries stored at ``node``: the other
        landmarks first, then the rest of the cluster, each by label."""
        others = self._is_landmark.copy()
        others[node] = False
        rest = self._clusters[node] & ~others
        targets = np.concatenate((np.flatnonzero(others), np.flatnonzero(rest)))
        return dict(zip(targets.tolist(), self._ports[node, targets].tolist()))

    def table_sizes(self) -> np.ndarray:
        """Number of (target, port) entries stored at every node (int64)."""
        stored = self._clusters | self._is_landmark
        np.fill_diagonal(stored, False)
        return stored.sum(axis=1, dtype=np.int64)

    # ------------------------------------------------------------------
    def port(self, node: int, header: LandmarkAddress) -> int:
        row = self._stored[node]
        stored = row[header.dest]
        if stored or node == header.dest:
            return stored
        if node == header.landmark:
            return header.port_at_landmark
        return row[header.landmark]

    def next_node_matrix(self) -> Optional[np.ndarray]:
        """``next_hop[x, dest]`` when ``dest`` is in the cluster of ``x`` or has
        ``x`` as its landmark, else ``next_hop[x, nearest[dest]]`` (which is
        ``next_hop[x, dest]`` again when ``dest`` is itself a landmark).
        """
        cls = type(self)
        if cls.port is not LandmarkRoutingFunction.port or (
            cls.address is not LandmarkRoutingFunction.address
        ):
            return None
        from repro.routing.program import next_nodes_of_ports

        direct = self._clusters | (np.arange(self._graph.n)[:, None] == self._nearest)
        np.fill_diagonal(direct, True)
        next_hop = next_nodes_of_ports(self._graph, self._ports)
        return np.where(direct, next_hop, next_hop[:, self._nearest])


class RewritingLandmarkRoutingFunction(LandmarkRoutingFunction):
    """Two-phase landmark routing with an explicitly rewritten header.

    Same tables, same routes, different ``H``: the message starts with the
    full :class:`LandmarkAddress` (phase 1, towards the landmark) and the
    header is *rewritten to the bare destination label* (phase 2) as soon as
    the current node forwards it on a stored shortest-path port — i.e. when
    the destination is in the node's cluster, the destination is itself a
    landmark, or the node is the destination's landmark exiting through
    ``port_at_landmark``.  The Cowen invariant (every node downstream of such
    a hop is strictly closer to the destination than ``d(v, L)``) guarantees
    the bare label suffices forever after, so ``P`` stays total on phase-2
    headers.

    Forwarding decisions coincide hop for hop with
    :class:`LandmarkRoutingFunction` (the test-suite pins this
    differentially), which makes the class the reference *header-rewriting*
    workload of the header-compiled simulator: its reachable header alphabet
    is finite (``n`` addresses plus ``n`` labels) but the header genuinely
    changes mid-route, so overriding ``next_header`` drops the class off
    the next-hop lowering and ``program_kind()`` resolves to
    ``"header-state"`` through the inherited ``can_vectorize`` promise.
    """

    def port(self, node: int, header: Hashable) -> int:
        if isinstance(header, LandmarkAddress):
            return super().port(node, header)
        dest = int(header)  # type: ignore[call-overload]
        stored = self._stored[node][dest]
        if stored or node == dest:
            return stored
        raise ValueError(
            f"rewriting-landmark invariant broken: node {node} stores no port "
            f"for rewritten destination {dest}"
        )

    def next_header(self, node: int, header: Hashable) -> Hashable:
        if not isinstance(header, LandmarkAddress):
            return header
        dest = header.dest
        if self._stored[node][dest] or node == header.landmark:
            return dest
        return header

    def header_transitions(self) -> Optional[HeaderTransitions]:
        """Header ``d`` is the address of ``d``, header ``n + d`` its bare label.

        ``stored[x, d]`` marks the destinations ``x`` keeps a port for (its
        cluster and the landmarks); ``direct`` adds the destinations whose
        landmark is ``x``.  An address takes ``ports[x, d]`` and becomes the
        bare label when ``direct`` holds, else it heads for ``nearest[d]``;
        a bare label needs ``stored``.
        """
        cls = type(self)
        if (
            cls.port is not RewritingLandmarkRoutingFunction.port
            or cls.next_header is not RewritingLandmarkRoutingFunction.next_header
            or cls.initial_header is not LabeledRoutingFunction.initial_header
            or cls.address is not LandmarkRoutingFunction.address
        ):
            return None
        n = self._graph.n
        vertices = np.arange(n)
        stored = self._clusters | self._is_landmark
        np.fill_diagonal(stored, True)
        direct = stored | (vertices[:, None] == self._nearest)
        ports, nearest = self._ports, self._nearest

        def step(nodes: np.ndarray, header_ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
            bare = header_ids >= n
            dest = np.where(bare, header_ids - n, header_ids)
            lost = bare & ~stored[nodes, dest]
            if lost.any():
                i = int(np.argmax(lost))
                raise ValueError(
                    f"rewriting-landmark invariant broken: node {nodes[i]} stores no port "
                    f"for rewritten destination {dest[i]}"
                )
            rewrite = bare | direct[nodes, dest]
            port = np.where(rewrite, ports[nodes, dest], ports[nodes, nearest[dest]])
            port[nodes == dest] = DELIVER
            return port, np.where(rewrite, dest + n, header_ids)

        alphabet = tuple(self._addresses[v] for v in range(n)) + tuple(range(n))
        return HeaderTransitions(alphabet, np.broadcast_to(vertices, (n, n)), step)


class CowenLandmarkScheme(BaseRoutingScheme):
    """Universal landmark routing scheme with worst-case stretch 3.

    Parameters
    ----------
    num_landmarks:
        Number of landmarks to select; ``None`` selects
        ``ceil(sqrt(n * max(log2 n, 1)))`` (the balanced choice).
    selection:
        ``"random"`` samples landmarks uniformly; ``"degree"`` picks the
        highest-degree vertices (a common practical heuristic that shrinks
        clusters on skewed-degree graphs).
    seed:
        Seed of the random selection.
    rewriting:
        When true, build :class:`RewritingLandmarkRoutingFunction` (the
        two-phase header-rewriting formulation) instead of the
        header-constant :class:`LandmarkRoutingFunction`; routes are
        identical.
    """

    name = "cowen-landmark"
    stretch_guarantee = 3.0

    def __init__(
        self,
        num_landmarks: Optional[int] = None,
        selection: str = "random",
        seed: Optional[int] = None,
        rewriting: bool = False,
    ) -> None:
        if selection not in ("random", "degree"):
            raise ValueError("selection must be 'random' or 'degree'")
        self.num_landmarks = num_landmarks
        self.selection = selection
        self.seed = seed
        self.rewriting = rewriting

    # ------------------------------------------------------------------
    def _pick_landmarks(self, graph: PortLabeledGraph) -> FrozenSet[int]:
        n = graph.n
        k = self.num_landmarks
        if k is None:
            k = int(np.ceil(np.sqrt(n * max(np.log2(max(n, 2)), 1.0))))
        k = max(1, min(k, n))
        if self.selection == "degree":
            order = sorted(range(n), key=lambda v: (-graph.degree(v), v))
            return frozenset(order[:k])
        rng = np.random.default_rng(self.seed)
        return frozenset(int(v) for v in rng.choice(n, size=k, replace=False))

    def build(self, graph: PortLabeledGraph) -> LandmarkRoutingFunction:
        """Build the landmark routing function for a connected graph."""
        n = graph.n
        if n == 0:
            raise ValueError("cannot route on the empty graph")
        dist = distance_matrix(graph)
        if n > 1 and (dist == UNREACHABLE).any():
            raise ValueError("landmark routing requires a connected graph")
        landmarks = self._pick_landmarks(graph)
        ports = shortest_path_ports(graph, tie_break="lowest_port", dist=dist)

        landmark_list = sorted(landmarks)
        # Nearest landmark of every vertex (ties broken towards the smallest label).
        dist_to_landmarks = dist[:, landmark_list]  # shape (n, |L|)
        nearest_idx = np.argmin(dist_to_landmarks, axis=1)
        nearest = np.asarray(landmark_list)[nearest_idx]
        dist_to_nearest = dist_to_landmarks[np.arange(n), nearest_idx]
        # Clusters: C(u) = { v != u : d(u, v) < d(v, L) }.
        clusters = dist < dist_to_nearest[None, :]
        np.fill_diagonal(clusters, False)

        function_class = (
            RewritingLandmarkRoutingFunction if self.rewriting else LandmarkRoutingFunction
        )
        return function_class(graph, landmarks, ports, clusters, nearest)
