"""Port-labelled symmetric digraphs.

The routing model of Fraigniaud & Gavoille (1996) is defined on finite
connected symmetric digraphs: every edge ``{u, v}`` corresponds to the two
arcs ``(u, v)`` and ``(v, u)``, and the outgoing arcs of a vertex ``x`` are
labelled by the integers ``1 .. deg(x)`` (the *output ports* of ``x``).

Port labellings matter: the paper's complete-graph example (Section 1) shows
that the memory needed to describe a local routing function can change from
``Theta(n log n)`` bits to ``O(log n)`` bits depending only on how the ports
are labelled.  :class:`PortLabeledGraph` therefore stores an explicit,
mutable port assignment per vertex and exposes relabelling primitives used by
the routing schemes and by the adversarial-labelling experiments.

Vertices are labelled ``0 .. n-1`` internally (the paper uses ``1 .. n``;
the off-by-one is irrelevant to every statement and keeps the numpy code
simple).  Port labels follow the paper and are ``1 .. deg(x)``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = ["Arc", "DerivedState", "PortLabeledGraph"]


@dataclass(frozen=True, order=True)
class Arc:
    """A directed arc ``tail -> head`` together with its output-port label.

    ``port`` is the label, in ``1 .. deg(tail)``, of the arc among the
    outgoing arcs of ``tail``.  Two arcs compare equal iff tail, head and
    port all coincide.
    """

    tail: int
    head: int
    port: int

    def reversed_endpoints(self) -> Tuple[int, int]:
        """Return ``(head, tail)`` — the endpoints of the symmetric arc."""
        return (self.head, self.tail)


class DerivedState:
    """What is derived once per graph snapshot, memoised.

    * ``distances`` — the all-pairs distance matrix
      (:func:`repro.graphs.shortest_paths.distance_matrix`);
    * ``surviving`` — fault-set fingerprint -> surviving-graph distance
      matrix, in its narrowest signed dtype
      (:func:`repro.sim.faults.surviving_distance_matrix`);
    * ``fingerprint`` — :meth:`PortLabeledGraph.fingerprint`;
    * ``ports`` — tie-break rule -> shortest-path port matrix, in its
      narrowest unsigned dtype
      (:func:`repro.routing.tables.shortest_path_ports`);
    * ``spanners`` — stretch -> greedy spanner
      (:func:`repro.routing.spanner.greedy_spanner`), itself a graph with
      its own derived state;
    * ``demands`` — ``(model, total, seed)`` -> a named demand model's
      integer message counts, in their narrowest unsigned dtype, and the
      matrix's seed (:func:`repro.analysis.flow.graph_demand`).

    Shared by a graph and its unmutated copies; a mutation, port
    relabellings included, gives the mutated graph a fresh, empty holder.
    Readers hand out copies, never the memoised objects themselves.
    """

    __slots__ = ("distances", "surviving", "fingerprint", "ports", "spanners", "demands")

    def __init__(self) -> None:
        self.distances: Optional[np.ndarray] = None
        self.surviving: Dict[str, np.ndarray] = {}
        self.fingerprint: Optional[str] = None
        self.ports: Dict[str, np.ndarray] = {}
        self.spanners: Dict[float, "PortLabeledGraph"] = {}
        self.demands: Dict[Tuple[str, float, int], Tuple[np.ndarray, Optional[int]]] = {}


class PortLabeledGraph:
    """A finite symmetric digraph with per-vertex output-port labels.

    Parameters
    ----------
    n:
        Number of vertices; vertices are the integers ``0 .. n-1``.
    edges:
        Optional iterable of undirected edges ``(u, v)``.  Each edge adds the
        two symmetric arcs.  Self-loops and duplicate edges are rejected.

    Notes
    -----
    The port labelling is initialised in insertion order: the ``k``-th
    neighbour added to ``u`` receives port ``k``.  Use
    :meth:`set_port_labeling`, :meth:`relabel_ports`, or
    :meth:`sort_ports_by_neighbor` to install a different labelling.
    """

    def __init__(self, n: int, edges: Optional[Iterable[Tuple[int, int]]] = None) -> None:
        if n < 0:
            raise ValueError(f"number of vertices must be non-negative, got {n}")
        self._n = int(n)
        # _port_of[u][v] = port label of arc (u, v)
        self._port_of: List[Dict[int, int]] = [dict() for _ in range(self._n)]
        # _neighbor_at[u][p] = v such that arc (u, v) has port p
        self._neighbor_at: List[Dict[int, int]] = [dict() for _ in range(self._n)]
        # Lazily built caches (see adjacency_arrays and derived).
        self._adj_arrays: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._derived = DerivedState()
        if edges is not None:
            for u, v in edges:
                self.add_edge(u, v)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _check_vertex(self, u: int) -> int:
        u = int(u)
        if not 0 <= u < self._n:
            raise ValueError(f"vertex {u} out of range [0, {self._n})")
        return u

    def add_edge(self, u: int, v: int) -> None:
        """Add the undirected edge ``{u, v}`` (two symmetric arcs).

        The new arc out of ``u`` gets port ``deg(u)+1`` and symmetrically for
        ``v``.  Raises :class:`ValueError` on self-loops or duplicates.
        """
        u = self._check_vertex(u)
        v = self._check_vertex(v)
        if u == v:
            raise ValueError(f"self-loop at vertex {u} is not allowed")
        if v in self._port_of[u]:
            raise ValueError(f"edge ({u}, {v}) already present")
        pu = len(self._port_of[u]) + 1
        pv = len(self._port_of[v]) + 1
        self._port_of[u][v] = pu
        self._neighbor_at[u][pu] = v
        self._port_of[v][u] = pv
        self._neighbor_at[v][pv] = u
        self._invalidate_adjacency()

    def remove_edge(self, u: int, v: int) -> None:
        """Remove the undirected edge ``{u, v}`` (both symmetric arcs).

        Port labels must stay a bijection onto ``1 .. deg``, so at each
        endpoint the gap left by the removed arc is closed by shifting every
        higher port down by one — the *relative* order of the surviving
        ports is preserved, which keeps the mutation local to the two
        endpoints (other vertices' labellings are untouched, a property the
        churn workload's delta compiler relies on).  Raises
        :class:`ValueError` if the edge is absent.
        """
        u = self._check_vertex(u)
        v = self._check_vertex(v)
        if v not in self._port_of[u]:
            raise ValueError(f"edge ({u}, {v}) not present")
        for x, y in ((u, v), (v, u)):
            removed = self._port_of[x].pop(y)
            nbrs = self._neighbor_at[x]
            del nbrs[removed]
            for p in sorted(nbrs):
                if p > removed:
                    w = nbrs.pop(p)
                    nbrs[p - 1] = w
                    self._port_of[x][w] = p - 1
        self._invalidate_adjacency()

    def add_vertex(self) -> int:
        """Append a fresh isolated vertex and return its label."""
        self._port_of.append(dict())
        self._neighbor_at.append(dict())
        self._n += 1
        self._invalidate_adjacency()
        return self._n - 1

    def copy(self) -> "PortLabeledGraph":
        """Deep copy preserving the port labelling.

        The copy shares :attr:`derived` and the read-only
        :meth:`adjacency_arrays` of this snapshot; a mutation of either
        graph drops both from that graph only.
        """
        g = PortLabeledGraph(0)
        g._n = self._n
        g._port_of = [dict(d) for d in self._port_of]
        g._neighbor_at = [dict(d) for d in self._neighbor_at]
        g._adj_arrays = self.adjacency_arrays()
        g._derived = self._derived
        return g

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of vertices."""
        return self._n

    def __len__(self) -> int:
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return sum(len(d) for d in self._port_of) // 2

    def vertices(self) -> range:
        """The vertex set as a range ``0 .. n-1``."""
        return range(self._n)

    def degree(self, u: int) -> int:
        """Degree (= number of output ports) of ``u``."""
        return len(self._port_of[self._check_vertex(u)])

    def degrees(self) -> List[int]:
        """Degree sequence indexed by vertex."""
        return [len(d) for d in self._port_of]

    def max_degree(self) -> int:
        """Maximum degree, 0 for an empty graph."""
        return max((len(d) for d in self._port_of), default=0)

    def neighbors(self, u: int) -> List[int]:
        """Neighbours of ``u`` in port order (port 1 first)."""
        u = self._check_vertex(u)
        return [self._neighbor_at[u][p] for p in sorted(self._neighbor_at[u])]

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``{u, v}`` is present."""
        u = self._check_vertex(u)
        v = self._check_vertex(v)
        return v in self._port_of[u]

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate over undirected edges as ``(u, v)`` with ``u < v``."""
        for u in range(self._n):
            for v in self._port_of[u]:
                if u < v:
                    yield (u, v)

    def arcs(self) -> Iterator[Arc]:
        """Iterate over all directed arcs with their port labels."""
        for u in range(self._n):
            for v, p in self._port_of[u].items():
                yield Arc(u, v, p)

    def out_arcs(self, u: int) -> List[Arc]:
        """Outgoing arcs of ``u`` in port order."""
        u = self._check_vertex(u)
        return [Arc(u, self._neighbor_at[u][p], p) for p in sorted(self._neighbor_at[u])]

    # ------------------------------------------------------------------
    # cached adjacency
    # ------------------------------------------------------------------
    def _invalidate_adjacency(self) -> None:
        """Drop the caches; every mutator calls it (copies keep the old ones)."""
        self._adj_arrays = None
        self._derived = DerivedState()

    @property
    def derived(self) -> DerivedState:
        """The :class:`DerivedState` of the current snapshot."""
        return self._derived

    def adjacency_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Cached CSR-style adjacency ``(indptr, indices)`` in port order.

        ``indices[indptr[u]:indptr[u + 1]]`` lists the neighbours of ``u``
        sorted by output port, so the ``k``-th entry of the slice is the
        neighbour behind port ``k + 1``.  The arrays are built once, shared
        with unmutated copies and reused until the graph is mutated
        (edge/vertex insertion or port relabelling); they are read-only.
        Every BFS of :mod:`repro.graphs.shortest_paths` runs on them.
        """
        if self._adj_arrays is None:
            degrees = np.fromiter(
                (len(d) for d in self._port_of), count=self._n, dtype=np.int64
            )
            indptr = np.zeros(self._n + 1, dtype=np.int64)
            np.cumsum(degrees, out=indptr[1:])
            indices = np.empty(int(indptr[-1]), dtype=np.int64)
            pos = 0
            for u in range(self._n):
                nbrs = self._neighbor_at[u]
                for p in sorted(nbrs):
                    indices[pos] = nbrs[p]
                    pos += 1
            indptr.flags.writeable = False
            indices.flags.writeable = False
            self._adj_arrays = (indptr, indices)
        return self._adj_arrays

    # ------------------------------------------------------------------
    # port labelling
    # ------------------------------------------------------------------
    def port(self, u: int, v: int) -> int:
        """Port label of the arc ``(u, v)``.

        Raises :class:`KeyError` if the arc does not exist.
        """
        u = self._check_vertex(u)
        v = self._check_vertex(v)
        try:
            return self._port_of[u][v]
        except KeyError:
            raise KeyError(f"no arc ({u}, {v})") from None

    def neighbor_at_port(self, u: int, p: int) -> int:
        """Vertex reached from ``u`` through output port ``p``.

        Raises :class:`KeyError` if ``p`` is not a valid port of ``u``.
        """
        u = self._check_vertex(u)
        try:
            return self._neighbor_at[u][int(p)]
        except KeyError:
            raise KeyError(f"vertex {u} has no port {p}") from None

    def ports(self, u: int) -> List[int]:
        """Sorted list of the port labels of ``u`` (``1 .. deg(u)``)."""
        u = self._check_vertex(u)
        return sorted(self._neighbor_at[u])

    def port_map(self, u: int) -> Dict[int, int]:
        """Mapping ``port -> neighbour`` for vertex ``u`` (a copy)."""
        u = self._check_vertex(u)
        return dict(self._neighbor_at[u])

    def set_port_labeling(self, u: int, neighbor_to_port: Mapping[int, int]) -> None:
        """Install the port labelling ``neighbor -> port`` at vertex ``u``.

        The mapping must be a bijection from the neighbours of ``u`` onto
        ``{1, .., deg(u)}``; otherwise :class:`ValueError` is raised and the
        graph is left unchanged.
        """
        u = self._check_vertex(u)
        current = set(self._port_of[u])
        if set(neighbor_to_port) != current:
            raise ValueError(
                f"port labelling of vertex {u} must cover exactly its neighbours {sorted(current)}"
            )
        ports = sorted(int(p) for p in neighbor_to_port.values())
        if ports != list(range(1, len(current) + 1)):
            raise ValueError(
                f"port labels of vertex {u} must be a permutation of 1..{len(current)}, got {ports}"
            )
        self._port_of[u] = {int(v): int(p) for v, p in neighbor_to_port.items()}
        self._neighbor_at[u] = {int(p): int(v) for v, p in neighbor_to_port.items()}
        self._invalidate_adjacency()

    def relabel_ports(self, u: int, permutation: Mapping[int, int]) -> None:
        """Apply a permutation ``old_port -> new_port`` to the ports of ``u``."""
        u = self._check_vertex(u)
        old_ports = set(self._neighbor_at[u])
        if set(permutation) != old_ports or set(permutation.values()) != old_ports:
            raise ValueError(
                f"permutation must map the ports of vertex {u} ({sorted(old_ports)}) onto themselves"
            )
        new_map = {int(permutation[p]): v for p, v in self._neighbor_at[u].items()}
        self._neighbor_at[u] = new_map
        self._port_of[u] = {v: p for p, v in new_map.items()}
        self._invalidate_adjacency()

    def sort_ports_by_neighbor(self, u: Optional[int] = None) -> None:
        """Relabel ports so that smaller neighbour labels get smaller ports.

        If ``u`` is ``None`` the canonical labelling is applied to every
        vertex.  This is the "natural" labelling used by most upper-bound
        schemes (e-cube routing, interval routing on trees, ...).
        """
        targets: Sequence[int] = range(self._n) if u is None else [self._check_vertex(u)]
        for x in targets:
            ordered = sorted(self._port_of[x])
            mapping = {v: i + 1 for i, v in enumerate(ordered)}
            self.set_port_labeling(x, mapping)

    def fingerprint(self) -> str:
        """Stable hex digest of the graph *including its port labelling*.

        Two graphs have equal fingerprints exactly when they compare equal
        (:meth:`__eq__`): same vertex count, same edges, same port labels.
        Unlike :meth:`__hash__` the digest is independent of the process
        hash seed, so it is safe as an on-disk cache key
        (:mod:`repro.analysis.runner`) and as a pin in regression tests —
        a generator or registry change that silently produces a different
        instance changes the fingerprint.  Memoised in :attr:`derived`.
        """
        derived = self._derived
        if derived.fingerprint is None:
            digest = hashlib.sha256()
            digest.update(f"n={self._n}".encode())
            for u in range(self._n):
                digest.update(b"|")
                for v, p in sorted(self._port_of[u].items()):
                    digest.update(f"{v}:{p},".encode())
            derived.fingerprint = digest.hexdigest()
        return derived.fingerprint

    def check_port_consistency(self) -> None:
        """Validate internal invariants; raise :class:`AssertionError` on failure.

        Invariants: symmetry of arcs, ports of ``u`` = ``{1..deg(u)}``, and
        the two internal maps being mutually inverse.
        """
        for u in range(self._n):
            ports = sorted(self._neighbor_at[u])
            assert ports == list(range(1, len(self._port_of[u]) + 1)), (
                f"vertex {u}: ports {ports} are not 1..deg"
            )
            for v, p in self._port_of[u].items():
                assert self._neighbor_at[u][p] == v, f"inconsistent maps at vertex {u}"
                assert u in self._port_of[v], f"arc ({u},{v}) has no symmetric arc"

    # ------------------------------------------------------------------
    # dunder helpers
    # ------------------------------------------------------------------
    def __getstate__(self) -> Dict[str, object]:
        """Pickle the labelled topology only: caches and derived state rebuild."""
        state = dict(self.__dict__)
        del state["_adj_arrays"], state["_derived"]
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._adj_arrays = None
        self._derived = DerivedState()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PortLabeledGraph(n={self._n}, m={self.num_edges})"

    def __eq__(self, other: object) -> bool:
        """Equality of vertex set, edge set *and* port labellings."""
        if not isinstance(other, PortLabeledGraph):
            return NotImplemented
        return self._n == other._n and self._port_of == other._port_of

    def __hash__(self) -> int:
        items = tuple(tuple(sorted(d.items())) for d in self._port_of)
        return hash((self._n, items))
