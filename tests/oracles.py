"""Slow, obviously-correct oracles for the fast paths under ``src/repro``.

Each function here answers one question the package answers fast, the
simple way the seed reproduction answered it, so the tests (and the
old-vs-new benchmark pins, which append ``tests/`` to ``sys.path``) can
race the two:

* :func:`route`, :func:`all_pairs_routing_lengths`, :func:`stretch_factor`
  — forward one message at a time through Python-level ``I``/``P``/``H``
  calls, against :func:`repro.sim.engine.simulate_all_pairs` and
  :func:`repro.sim.engine.simulated_stretch_factor`;
* :func:`bounded_paths`, :func:`enumerated_first_arcs`,
  :func:`enumerated_forced_first_arcs` — enumerate every admissible simple
  path, against the BFS first-arc oracle of
  :func:`repro.graphs.shortest_paths.first_arcs_of_near_shortest_paths`
  and :func:`repro.constraints.verifier.forced_first_arcs`;
* :func:`canonical_form_reference` — the exact canonical form by a
  Python loop over every column order, against the batched, memoised
  :func:`repro.constraints.matrix.canonical_form`;
* :func:`product_walk_canonical_matrices` — canonicalise every
  ``p``-tuple of row-normal rows, against the orbit-pruned
  :func:`repro.constraints.enumeration.enumerate_canonical_matrices`;
* :class:`IntervalTables` (with :func:`scanned_cyclic_runs`) and
  :class:`LandmarkTables` — scheme tables as per-node dicts built one
  (node, port) or one row at a time, against the array-held
  :class:`repro.routing.interval.IntervalRoutingFunction` and
  :class:`repro.routing.landmark.LandmarkRoutingFunction`;
* :class:`RawTableCoder`, :class:`IntervalTableCoder` and
  :class:`DefaultPortCoder` (bit-writing encoders with decoders),
  :func:`coded_memory_profile` and :func:`coded_program_memory_profile` —
  every router's encodings written bit by bit, one router at a time,
  against the closed-form lengths of :mod:`repro.memory.coder` and
  :mod:`repro.memory.requirement`; :func:`encode_program_states` /
  :func:`decode_program_states` do the same for header-state slices;
* :func:`networkx_random_regular_graph` and :func:`vf2_is_hypercube` —
  networkx's pairing-model sampler and VF2 isomorphism test, against the
  in-tree :func:`repro.graphs.generators.random_regular_graph` and the
  labelling certificate of :func:`repro.graphs.properties.is_hypercube`;
  :func:`is_chordal` and :func:`is_outerplanar` check generator output,
  and :func:`to_networkx` / :func:`from_networkx` convert graphs;
* :func:`resolved_patched_soundness` — the delta soundness proof that
  resolves every pair's fate with a strict :func:`~repro.routing.verify.
  verify_program` and checks delivered hop counts against the distances,
  against the one-hop descent proof of ``apply_delta(static_check=True)``;
* :func:`row_loop_shortest_path_ports` — the shortest-path port matrix
  built one row at a time (an argmax/argmin over each row's
  ``deg(x) x n`` shortest-path mask), against the rank-wise build of
  :func:`repro.routing.tables.shortest_path_ports`;
* :func:`unique_number_new_keys` — a header-state closure level's fresh
  keys numbered through a sort (``np.unique`` with first indices and an
  inverse, an ``argsort`` and a rank scatter), against the sort-free
  :func:`repro.routing.program.number_new_keys`.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.constraints.enumeration import _validate_enumeration_parameters, normalized_rows
from repro.constraints.matrix import (
    ConstraintMatrix,
    MatrixLike,
    _as_array,
    _check_exact_limit,
    _flatten_key,
    row_normal_form,
)
from repro.graphs.digraph import Arc, PortLabeledGraph
from repro.graphs.shortest_paths import (
    UNREACHABLE,
    bfs_distances,
    distance_matrix,
    near_shortest_budget,
)
from repro.memory.encoding import BitReader, BitWriter, fixed_width
from repro.routing.model import DELIVER, RoutingFunction


# ----------------------------------------------------------------------
# per-pair routing
# ----------------------------------------------------------------------
class RoutingLoopError(RuntimeError):
    """Raised when a simulated route exceeds the allowed hop budget."""

    def __init__(self, source: int, dest: int, partial_path: List[int]) -> None:
        super().__init__(
            f"routing from {source} to {dest} did not terminate; partial path {partial_path[:20]}..."
        )
        self.source = source
        self.dest = dest
        self.partial_path = partial_path


@dataclass(frozen=True)
class RouteResult:
    """Outcome of forwarding one message.

    ``path`` is the sequence of visited vertices (source first, the node
    where delivery happened last), ``headers[i]`` the header with which
    ``path[i]`` processed the message, and ``delivered`` whether delivery
    happened at the intended destination.
    """

    path: Tuple[int, ...]
    headers: Tuple[Hashable, ...]
    delivered: bool

    @property
    def length(self) -> int:
        """Number of edges traversed."""
        return len(self.path) - 1


def route(
    rf: RoutingFunction, source: int, dest: int, max_hops: Optional[int] = None
) -> RouteResult:
    """Forward one message from ``source`` to ``dest`` hop by hop.

    Raises :class:`RoutingLoopError` once the message is still in flight
    after ``max_hops`` hops (default ``4 * n``), and :class:`ValueError`
    when the routing function emits an invalid port.
    """
    graph = rf.graph
    if source == dest:
        return RouteResult(path=(source,), headers=(None,), delivered=True)
    if max_hops is None:
        max_hops = 4 * max(graph.n, 1)
    header = rf.initial_header(source, dest)
    node = source
    path = [source]
    headers: List[Hashable] = [header]
    for _ in range(max_hops):
        port = rf.port(node, header)
        if port == DELIVER:
            return RouteResult(tuple(path), tuple(headers), delivered=(node == dest))
        try:
            nxt = graph.neighbor_at_port(node, port)
        except KeyError as exc:
            raise ValueError(
                f"routing function used invalid port {port} at vertex {node} "
                f"(degree {graph.degree(node)})"
            ) from exc
        header = rf.next_header(node, header)
        node = nxt
        path.append(node)
        headers.append(header)
    raise RoutingLoopError(source, dest, path)


def all_pairs_routing_lengths(rf: RoutingFunction, max_hops: Optional[int] = None) -> np.ndarray:
    """``d_R(x, y)`` for every ordered pair, one :func:`route` per pair.

    The diagonal is 0; a misdelivered pair raises :class:`ValueError`.
    """
    n = rf.graph.n
    lengths = np.zeros((n, n), dtype=np.int64)
    for x in range(n):
        for y in range(n):
            if x == y:
                continue
            result = route(rf, x, y, max_hops=max_hops)
            if not result.delivered:
                raise ValueError(f"message from {x} to {y} delivered at {result.path[-1]}")
            lengths[x, y] = result.length
    return lengths


def stretch_factor(
    rf: RoutingFunction,
    dist: Optional[np.ndarray] = None,
    pairs: Optional[Iterable[Tuple[int, int]]] = None,
) -> Fraction:
    """Exact ``max d_R(x, y) / d(x, y)`` over all (or the given) ordered pairs.

    Every pair is routed on its own.  ``Fraction(1)`` on graphs with fewer
    than two vertices; a pair with ``x == y``, a disconnected pair or a
    misdelivered message raises :class:`ValueError`.
    """
    graph = rf.graph
    if graph.n < 2:
        return Fraction(1)
    if dist is None:
        dist = distance_matrix(graph)
    if pairs is None:
        pairs = ((x, y) for x in range(graph.n) for y in range(graph.n) if x != y)
    worst = Fraction(0)
    for x, y in pairs:
        if x == y:
            raise ValueError("stretch is undefined for source == dest")
        d = int(dist[x, y])
        if d == UNREACHABLE:
            raise ValueError(f"vertices {x} and {y} are not connected")
        result = route(rf, x, y)
        if not result.delivered:
            raise ValueError(f"message from {x} to {y} delivered at {result.path[-1]}")
        worst = max(worst, Fraction(result.length, d))
    return worst if worst > 0 else Fraction(1)


# ----------------------------------------------------------------------
# path enumeration
# ----------------------------------------------------------------------
def bounded_paths(
    graph: PortLabeledGraph,
    source: int,
    target: int,
    max_length: int,
    simple: bool = True,
    limit: Optional[int] = None,
) -> List[List[int]]:
    """All paths from ``source`` to ``target`` of at most ``max_length`` edges.

    With ``simple=True`` (default) no vertex repeats, which loses nothing
    for stretch analysis: any walk shortens to a simple path of no greater
    length.  A distance-to-target bound prunes the depth-first search;
    ``limit`` caps the number of returned paths.
    """
    if max_length < 0:
        return []
    if source == target:
        return [[source]]
    dist_to_target = bfs_distances(graph, target)
    if dist_to_target[source] == UNREACHABLE or dist_to_target[source] > max_length:
        return []
    out: List[List[int]] = []
    path = [source]
    on_path: Set[int] = {source}
    indptr, indices = graph.adjacency_arrays()

    def _dfs(u: int, remaining: int) -> bool:
        for v in indices[indptr[u] : indptr[u + 1]]:
            v = int(v)
            if v == target:
                out.append(path + [target])
                if limit is not None and len(out) >= limit:
                    return True
                continue
            if remaining <= 1:
                continue
            if simple and v in on_path:
                continue
            d = dist_to_target[v]
            if d == UNREACHABLE or d > remaining - 1:
                continue
            path.append(v)
            on_path.add(v)
            stop = _dfs(v, remaining - 1)
            on_path.discard(v)
            path.pop()
            if stop:
                return True
        return False

    _dfs(source, max_length)
    return out


def enumerated_first_arcs(
    graph: PortLabeledGraph,
    source: int,
    target: int,
    stretch: float,
    strict: bool = False,
    dist: Optional[np.ndarray] = None,
) -> Set[Arc]:
    """First arcs of every simple path within the stretch budget, by enumeration.

    ``dist`` is an optional precomputed distance row ``d(source, .)``.
    """
    if source == target:
        raise ValueError("first arcs are undefined for source == target")
    if dist is None:
        dist = bfs_distances(graph, source)
    d = int(dist[target])
    if d == UNREACHABLE:
        return set()
    max_len = near_shortest_budget(d, stretch, strict)
    return {
        Arc(source, path[1], graph.port(source, path[1]))
        for path in bounded_paths(graph, source, target, max_len)
    }


def enumerated_forced_first_arcs(
    graph: PortLabeledGraph,
    constrained: Sequence[int],
    targets: Sequence[int],
    stretch: float,
    strict: bool = True,
) -> List[List[Optional[Arc]]]:
    """The forced first arc of every (constrained, target) pair, by enumeration."""
    grid: List[List[Optional[Arc]]] = []
    for a in constrained:
        dist = bfs_distances(graph, a)
        row: List[Optional[Arc]] = []
        for b in targets:
            arcs = set() if a == b else enumerated_first_arcs(graph, a, b, stretch, strict, dist)
            row.append(next(iter(arcs)) if len(arcs) == 1 else None)
        grid.append(row)
    return grid


# ----------------------------------------------------------------------
# matrix enumeration
# ----------------------------------------------------------------------
def canonical_form_reference(entries: MatrixLike) -> np.ndarray:
    """Exact canonical form by a plain loop over every column order.

    Unvectorised and unmemoised; produces bit-for-bit the representative
    of :func:`~repro.constraints.matrix.canonical_form`, under the same
    :data:`~repro.constraints.matrix.EXACT_LIMIT`.
    """
    arr = _as_array(entries)
    p, q = arr.shape
    _check_exact_limit(p, q)
    best: Optional[np.ndarray] = None
    best_key: Optional[Tuple[int, ...]] = None
    for col_perm in itertools.permutations(range(q)):
        # Normalise every row once for this column order, then choose the row
        # order minimising the flattened sequence: sorting the normalised rows
        # lexicographically is optimal because rows are independent blocks of
        # the row-major flattening.
        normalised = row_normal_form(arr[:, col_perm])
        row_order = sorted(range(p), key=lambda i: tuple(normalised[i]))
        candidate = normalised[row_order, :]
        key = _flatten_key(candidate)
        if best_key is None or key < best_key:
            best_key = key
            best = candidate
    assert best is not None
    return best


def product_walk_canonical_matrices(p: int, q: int, d: int) -> List[ConstraintMatrix]:
    """Canonical representatives of ``M^d_{p,q}`` by the exhaustive product walk.

    Canonicalises every ``p``-tuple of row-normal rows with the
    unmemoised :func:`canonical_form_reference` and returns the distinct
    representatives sorted by their entries.
    """
    _validate_enumeration_parameters(p, q, d)
    seen: Set[Tuple[int, ...]] = set()
    representatives: List[ConstraintMatrix] = []
    for combo in itertools.product(normalized_rows(q, d), repeat=p):
        canon = canonical_form_reference(np.array(combo, dtype=np.int64))
        key = tuple(int(x) for x in canon.reshape(-1))
        if key not in seen:
            seen.add(key)
            representatives.append(ConstraintMatrix.from_entries(canon))
    representatives.sort(key=lambda m: m.entries)
    return representatives


# ----------------------------------------------------------------------
# scheme tables as per-node dicts
# ----------------------------------------------------------------------
Interval = Tuple[int, int]


def scanned_cyclic_runs(in_set: np.ndarray) -> List[Interval]:
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


class IntervalTables:
    """Interval routing held as ``port_intervals[x][p]`` tuples of intervals.

    :meth:`build` is the universal scheme's build one (node, port) at a
    time; :meth:`port` scans the intervals of every port in turn, the first
    match winning.
    """

    def __init__(
        self, graph: PortLabeledGraph, labeling: Dict[int, int], port_intervals
    ) -> None:
        self.graph = graph
        self.label_of = dict(labeling)
        self.port_intervals: Dict[int, Dict[int, Tuple[Interval, ...]]] = {
            x: {p: tuple(ivs) for p, ivs in d.items()} for x, d in port_intervals.items()
        }

    @classmethod
    def build(cls, graph: PortLabeledGraph, scheme) -> "IntervalTables":
        """What ``scheme`` (an :class:`IntervalRoutingScheme`) builds on ``graph``."""
        from repro.routing.tables import shortest_path_ports

        n = graph.n
        labeling = scheme._dfs_labeling(graph)
        ports = shortest_path_ports(graph, tie_break=scheme.tie_break)
        by_label = np.empty_like(ports)
        by_label[:, [labeling[v] for v in range(n)]] = ports
        port_intervals = {}
        for x in range(n):
            used, first = np.unique(np.delete(ports[x], x), return_index=True)
            port_intervals[x] = {
                int(p): scanned_cyclic_runs(by_label[x] == p) for p in used[np.argsort(first)]
            }
        return cls(graph, labeling, port_intervals)

    def intervals_at(self, node: int) -> Dict[int, Tuple[Interval, ...]]:
        return dict(self.port_intervals.get(node, {}))

    def num_intervals(self, node: int) -> int:
        return sum(len(ivs) for ivs in self.port_intervals.get(node, {}).values())

    def max_intervals_per_arc(self) -> int:
        return max(
            (len(ivs) for ports in self.port_intervals.values() for ivs in ports.values()),
            default=0,
        )

    def local_encoding_bits(self, node: int) -> int:
        from repro.memory.encoding import elias_gamma_length, fixed_width

        label_width = fixed_width(max(self.graph.n - 1, 0))
        total = 0
        for port in range(1, self.graph.degree(node) + 1):
            intervals = self.port_intervals.get(node, {}).get(port, ())
            total += elias_gamma_length(len(intervals) + 1) + 2 * label_width * len(intervals)
        return total

    def port(self, node: int, label: int) -> int:
        if label == self.label_of[node]:
            return DELIVER
        n = self.graph.n
        for p, ivs in self.port_intervals.get(node, {}).items():
            for lo, hi in ivs:
                if (lo <= label <= hi) if lo <= hi else (label >= lo or label <= hi):
                    return p
        raise ValueError(f"vertex {node} has no interval containing label {label}")


class LandmarkTables:
    """Cowen landmark tables held as per-row ``target -> port`` dicts.

    Built from the scheme's arrays the way each router stores them: the
    ports of its cluster, the ports of the other landmarks, and one
    address per destination.
    """

    def __init__(self, rf) -> None:
        ports, clusters, nearest = rf._ports, rf._clusters, rf._nearest
        landmark_list = sorted(rf.landmarks)
        self.cluster_ports: Dict[int, Dict[int, int]] = {}
        self.landmark_ports: Dict[int, Dict[int, int]] = {}
        for u, row in enumerate(ports):
            members = np.flatnonzero(clusters[u]).tolist()
            self.cluster_ports[u] = dict(zip(members, row[members].tolist()))
            self.landmark_ports[u] = {l: int(row[l]) for l in landmark_list if l != u}
        self.addresses = {
            v: (v, int(l), int(ports[l, v])) for v, l in enumerate(nearest.tolist())
        }

    def table_entries(self, node: int) -> Dict[int, int]:
        entries = dict(self.landmark_ports.get(node, {}))
        entries.update(self.cluster_ports.get(node, {}))
        return entries

    def port(self, node: int, dest: int, landmark: int, port_at_landmark: int) -> int:
        """``P`` on the full address ``(dest, landmark, port_at_landmark)``."""
        if node == dest:
            return DELIVER
        direct = self.cluster_ports[node].get(dest)
        if direct is not None:
            return direct
        if dest in self.landmark_ports[node]:
            return self.landmark_ports[node][dest]
        if node == landmark:
            return port_at_landmark
        return self.landmark_ports[node][landmark]

    def bare_port(self, node: int, dest: int) -> Optional[int]:
        """``P`` on a rewritten (bare) label; ``None`` where no port is stored."""
        if node == dest:
            return DELIVER
        direct = self.cluster_ports[node].get(dest)
        if direct is not None:
            return direct
        return self.landmark_ports[node].get(dest)

    def rewrites(self, node: int, dest: int, landmark: int) -> bool:
        """Whether ``H`` rewrites the address of ``dest`` to its bare label at ``node``."""
        return (
            dest in self.cluster_ports[node]
            or dest in self.landmark_ports[node]
            or node == landmark
        )


# ----------------------------------------------------------------------
# bit-writing memory coders
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CoderResult:
    """One router's encoding: the coder's name, its length and the bits."""

    coder: str
    bits: int
    payload: List[int]


def _check_port(node: int, degree: int, port: int) -> None:
    if not 1 <= port <= degree:
        raise ValueError(f"invalid port {port} at node {node} (degree {degree})")


class RawTableCoder:
    """``port - 1`` on ``fixed_width(degree - 1)`` bits per destination, in label order."""

    name = "raw-table"

    def encode(self, node: int, n: int, degree: int, local_map: Dict[int, int]) -> CoderResult:
        width = fixed_width(max(degree - 1, 0))
        writer = BitWriter()
        for dest in (d for d in range(n) if d != node):
            _check_port(node, degree, local_map[dest])
            writer.write_uint(local_map[dest] - 1, width)
        return CoderResult(self.name, writer.bit_length, writer.to_bits())

    def decode(self, node: int, n: int, degree: int, payload: List[int]) -> Dict[int, int]:
        width = fixed_width(max(degree - 1, 0))
        reader = BitReader(payload)
        return {dest: reader.read_uint(width) + 1 for dest in range(n) if dest != node}


class IntervalTableCoder:
    """Per port in increasing order: an Elias-gamma count (plus one) of the
    cyclic intervals of its destinations, then their endpoints on
    ``ceil(log2 n)`` bits each."""

    name = "interval-table"

    def encode(self, node: int, n: int, degree: int, local_map: Dict[int, int]) -> CoderResult:
        from repro.routing.interval import cyclic_intervals_of_set

        label_width = fixed_width(max(n - 1, 0))
        by_port: Dict[int, List[int]] = {}
        for dest, port in local_map.items():
            _check_port(node, degree, port)
            by_port.setdefault(port, []).append(dest)
        writer = BitWriter()
        for port in range(1, degree + 1):
            labels = by_port.get(port, [])
            intervals = cyclic_intervals_of_set(labels, n) if labels else []
            writer.write_elias_gamma(len(intervals) + 1)
            for lo, hi in intervals:
                writer.write_uint(lo, label_width)
                writer.write_uint(hi, label_width)
        return CoderResult(self.name, writer.bit_length, writer.to_bits())

    def decode(self, node: int, n: int, degree: int, payload: List[int]) -> Dict[int, int]:
        label_width = fixed_width(max(n - 1, 0))
        reader = BitReader(payload)
        out: Dict[int, int] = {}
        for port in range(1, degree + 1):
            for _ in range(reader.read_elias_gamma() - 1):
                lo, hi = reader.read_uint(label_width), reader.read_uint(label_width)
                out.update({(lo + k) % n: port for k in range((hi - lo) % n + 1)})
        out.pop(node, None)
        return out


class DefaultPortCoder:
    """The most frequent port (lowest on a tie), an Elias-gamma exception
    count (plus one), then each exception as ``(destination, port)``."""

    name = "default-port"

    def encode(self, node: int, n: int, degree: int, local_map: Dict[int, int]) -> CoderResult:
        port_width = fixed_width(max(degree - 1, 0))
        label_width = fixed_width(max(n - 1, 0))
        counts: Dict[int, int] = {}
        for port in local_map.values():
            _check_port(node, degree, port)
            counts[port] = counts.get(port, 0) + 1
        default_port = max(counts, key=lambda p: (counts[p], -p)) if counts else 1
        exceptions = [(d, p) for d, p in sorted(local_map.items()) if p != default_port]
        writer = BitWriter()
        writer.write_uint(default_port - 1, port_width)
        writer.write_elias_gamma(len(exceptions) + 1)
        for dest, port in exceptions:
            writer.write_uint(dest, label_width)
            writer.write_uint(port - 1, port_width)
        return CoderResult(self.name, writer.bit_length, writer.to_bits())

    def decode(self, node: int, n: int, degree: int, payload: List[int]) -> Dict[int, int]:
        port_width = fixed_width(max(degree - 1, 0))
        label_width = fixed_width(max(n - 1, 0))
        reader = BitReader(payload)
        out = dict.fromkeys((d for d in range(n) if d != node), reader.read_uint(port_width) + 1)
        for _ in range(reader.read_elias_gamma() - 1):
            dest = reader.read_uint(label_width)
            out[dest] = reader.read_uint(port_width) + 1
        return out


#: The table coders, in the tie-breaking order of ``repro.memory.coder.TABLE_CODERS``.
TABLE_CODER_ORACLES = (RawTableCoder(), IntervalTableCoder(), DefaultPortCoder())


def best_coding(node: int, n: int, degree: int, local_map: Dict[int, int]) -> CoderResult:
    """The shortest table-coder encoding of a local map (first on a tie)."""
    return _best_coding(node, n, degree, tuple(sorted(local_map.items())))


@functools.lru_cache(maxsize=1024)
def _best_coding(node: int, n: int, degree: int, items: Tuple[Tuple[int, int], ...]) -> CoderResult:
    # Memoised so that both profile oracles of one cell write each row once.
    results = [coder.encode(node, n, degree, dict(items)) for coder in TABLE_CODER_ORACLES]
    return min(results, key=lambda r: r.bits)


def program_local_map(program, graph: PortLabeledGraph, node: int) -> Dict[int, int]:
    """``node``'s ``dest -> port`` map read off a next-hop program; a
    misdelivery in its row raises :class:`ValueError`."""
    from repro.routing.program import MISDELIVER

    row = program.next_node[node].tolist()
    if MISDELIVER in row[:node] + row[node + 1 :]:
        raise ValueError(f"next-hop program records a misdelivery at node {node}")
    port_of = {neighbour: port for port, neighbour in graph.port_map(node).items()}
    local_map = {d: port_of.get(nxt) for d, nxt in enumerate(row) if d != node}
    if None in local_map.values():
        raise ValueError(f"next-hop row of node {node} leaves through a non-arc")
    return local_map


def coded_memory_profile(rf: RoutingFunction, program=None):
    """:func:`repro.memory.requirement.memory_profile` one router at a time.

    Per router, the first shortest of the parametric size, the scheme's
    encoding, the entry list and the table coders' bit strings for its
    local map (off ``program`` when it is a next-hop program, else live).
    """
    from repro.memory.requirement import MemoryProfile
    from repro.routing.program import NextHopProgram

    graph, n = rf.graph, rf.graph.n
    best: List[CoderResult] = []
    for node in range(n):
        degree = graph.degree(node)
        candidates: List[CoderResult] = []
        if hasattr(rf, "parametric_description_bits"):
            candidates.append(CoderResult("parametric", rf.parametric_description_bits(), []))
        if hasattr(rf, "local_encoding_bits"):
            candidates.append(CoderResult("scheme-encoding", rf.local_encoding_bits(node), []))
        if hasattr(rf, "table_entries"):
            entry = fixed_width(max(n - 1, 0)) + fixed_width(max(degree - 1, 0))
            size = fixed_width(max(n, 1)) + len(rf.table_entries(node)) * entry
            candidates.append(CoderResult("entry-list", size, []))
        if hasattr(rf, "local_map"):
            if isinstance(program, NextHopProgram):
                local_map = program_local_map(program, graph, node)
            else:
                local_map = rf.local_map(node)
            candidates.append(best_coding(node, n, degree, local_map))
        if not candidates:
            raise TypeError(f"cannot measure memory of {type(rf).__name__}")
        best.append(min(candidates, key=lambda r: r.bits))
    bits = np.array([r.bits for r in best], dtype=np.int64)
    return MemoryProfile(bits_per_node=bits, coder_per_node=tuple(r.coder for r in best))


def encode_program_states(program, graph: PortLabeledGraph, node: int) -> List[int]:
    """The bits of ``node``'s header-state slice: an Elias-gamma state count,
    one deliver flag per state (in state order), then the output ports and
    the successor ids of the forwarding states, as two fixed-width columns."""
    state_width = fixed_width(max(program.num_states - 1, 0))
    port_width = fixed_width(max(graph.degree(node) - 1, 0))
    states = np.flatnonzero(program.node_of == node).tolist()
    writer = BitWriter()
    writer.write_elias_gamma(len(states) + 1)
    for state in states:
        writer.write_bit(int(program.deliver[state]))
    succs = [int(program.succ[s]) for s in states if not program.deliver[s]]
    for succ in succs:
        writer.write_uint(graph.port(node, int(program.node_of[succ])) - 1, port_width)
    for succ in succs:
        writer.write_uint(succ, state_width)
    return writer.to_bits()


def decode_program_states(
    payload: List[int], degree: int, num_states: int
) -> Tuple[List[bool], List[int], List[int]]:
    """``(deliver flags, ports, successor ids)`` of an :func:`encode_program_states` slice."""
    state_width = fixed_width(max(num_states - 1, 0))
    port_width = fixed_width(max(degree - 1, 0))
    reader = BitReader(payload)
    flags = [bool(reader.read_bit()) for _ in range(reader.read_elias_gamma() - 1)]
    ports = [reader.read_uint(port_width) + 1 for _ in range(flags.count(False))]
    succs = [reader.read_uint(state_width) for _ in range(flags.count(False))]
    return flags, ports, succs


def coded_program_memory_profile(program, graph: PortLabeledGraph):
    """:func:`repro.memory.requirement.program_memory_profile` one router at a
    time: next-hop rows through :func:`best_coding`, header-state slices
    through :func:`encode_program_states`."""
    from repro.memory.requirement import MemoryProfile
    from repro.routing.program import HeaderStateProgram, NextHopProgram

    nodes = range(graph.n)
    if isinstance(program, NextHopProgram):
        best = [
            best_coding(x, graph.n, graph.degree(x), program_local_map(program, graph, x))
            for x in nodes
        ]
    elif isinstance(program, HeaderStateProgram):
        best = [
            CoderResult("program-states", len(encode_program_states(program, graph, x)), [])
            for x in nodes
        ]
    else:
        raise TypeError(f"no compiled artifact to measure: {type(program).__name__}")
    bits = np.array([r.bits for r in best], dtype=np.int64)
    return MemoryProfile(bits_per_node=bits, coder_per_node=tuple(r.coder for r in best))


# ----------------------------------------------------------------------
# networkx-backed graph oracles
# ----------------------------------------------------------------------
# networkx is a test extra only; it is imported inside each oracle so
# that importing this module (as the benchmarks do) never needs it.
def to_networkx(graph: PortLabeledGraph):
    """An undirected ``networkx.Graph`` with the same vertices and edges."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(graph.n))
    g.add_edges_from(graph.edges())
    return g


def from_networkx(nx_graph) -> PortLabeledGraph:
    """A :class:`PortLabeledGraph` of a networkx graph, self-loops dropped.

    Nodes are relabelled ``0 .. n-1`` in the iteration order of
    ``nx_graph.nodes``; ports follow the edge iteration order.
    """
    index = {node: i for i, node in enumerate(nx_graph.nodes)}
    return PortLabeledGraph(
        len(index), [(index[u], index[v]) for u, v in nx_graph.edges if u != v]
    )


def networkx_random_regular_graph(n: int, degree: int, seed: int) -> PortLabeledGraph:
    """``nx.random_regular_graph`` at ``seed + attempt`` until connected.

    The sampler :func:`repro.graphs.generators.random_regular_graph`
    ports, raced seed for seed.
    """
    import networkx as nx

    for attempt in range(50):
        g = nx.random_regular_graph(degree, n, seed=seed + attempt)
        if nx.is_connected(g):
            graph = from_networkx(g)
            graph.sort_ports_by_neighbor()
            return graph
    raise RuntimeError("failed to sample a connected regular graph after 50 attempts")


def vf2_is_hypercube(graph: PortLabeledGraph) -> bool:
    """VF2 isomorphism test against ``Q_d``, for the O(n d) certificate of
    :func:`repro.graphs.properties.is_hypercube`."""
    import networkx as nx

    n = graph.n
    if n == 0 or n & (n - 1):
        return False
    dim = n.bit_length() - 1
    cube = nx.hypercube_graph(dim) if dim else nx.empty_graph(1)  # Q_0 is one vertex
    return bool(nx.is_isomorphic(to_networkx(graph), cube))


def is_chordal(graph: PortLabeledGraph) -> bool:
    """Chordality via networkx (maximum cardinality search)."""
    import networkx as nx

    return graph.n == 0 or bool(nx.is_chordal(to_networkx(graph)))


def is_outerplanar(graph: PortLabeledGraph) -> bool:
    """Outerplanarity: ``G`` plus a universal apex vertex is planar.

    The edge bound ``m <= 2n - 3`` is a fast negative filter.
    """
    import networkx as nx

    n = graph.n
    if n <= 3:
        return True
    if graph.num_edges > 2 * n - 3:
        return False
    g = to_networkx(graph)
    g.add_edges_from((n, v) for v in range(n))
    planar, _ = nx.check_planarity(g)
    return bool(planar)


# ----------------------------------------------------------------------
# shortest-path port matrix
# ----------------------------------------------------------------------
def row_loop_shortest_path_ports(
    graph: PortLabeledGraph, tie_break: str = "lowest_port", dist: Optional[np.ndarray] = None
) -> np.ndarray:
    """``ports[x, dest]`` of one shortest-path routing, one row at a time.

    Among the port-ordered neighbours ``nbrs`` of ``x`` the shortest-path
    ones satisfy ``dist[nbrs, dest] == dist[x, dest] - 1``; the rule is an
    argmax (``lowest_port``), a reversed argmax (``highest_port``) or an
    argmin over the neighbour labels (``lowest_neighbor``) of that boolean
    ``(deg(x), n)`` matrix.  The diagonal and unreachable destinations
    hold 0; the result is int64.
    """
    if dist is None:
        dist = distance_matrix(graph)
    n = graph.n
    ports = np.zeros((n, n), dtype=np.int64)
    indptr, indices = graph.adjacency_arrays()
    for x in range(n):
        dests = np.nonzero(dist[x] > 0)[0]
        if not dests.size:
            continue
        nbrs = indices[indptr[x] : indptr[x + 1]]  # port order: port k+1 = nbrs[k]
        on_shortest = dist[nbrs] == dist[x] - 1
        if tie_break == "lowest_port":
            pick = on_shortest.argmax(axis=0)
        elif tie_break == "highest_port":
            pick = nbrs.size - 1 - on_shortest[::-1].argmax(axis=0)
        else:
            pick = np.where(on_shortest, nbrs[:, None], n).argmin(axis=0)
        ports[x, dests] = pick[dests] + 1
    return ports


# ----------------------------------------------------------------------
# header-state discovery
# ----------------------------------------------------------------------
def unique_number_new_keys(
    state_of: np.ndarray, keys: np.ndarray, count: int
) -> Tuple[np.ndarray, np.ndarray]:
    """State ids of ``keys`` and the keys it numbered, through a sort.

    The same contract as :func:`repro.routing.program.number_new_keys`:
    keys not yet in the dense table ``state_of`` (``-1``) are numbered from
    ``count`` in first-occurrence order, and recorded in place.
    """
    ids = state_of[keys]
    fresh = np.flatnonzero(ids < 0)
    new_keys, first, inverse = np.unique(keys[fresh], return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    ids[fresh] = count + rank[inverse]
    new_keys = new_keys[order]
    state_of[new_keys] = count + np.arange(new_keys.size)
    return ids, new_keys


# ----------------------------------------------------------------------
# delta soundness
# ----------------------------------------------------------------------
def resolved_patched_soundness(patched, dist_after: np.ndarray) -> None:
    """Prove a delta-patched table program sound by resolving every fate.

    Every off-diagonal pair must deliver in exactly ``dist_after`` hops;
    a semantic issue of :func:`~repro.routing.verify.verify_program`'s
    report (and any structural corruption) raises first.  Raises
    :class:`~repro.routing.verify.ProgramVerificationError` naming the
    first offending pair.
    """
    from repro.routing.verify import (
        VERDICT_DELIVERED,
        VERDICT_INFEASIBLE,
        VERDICT_NAMES,
        ProgramVerificationError,
        verify_program,
    )

    report = verify_program(patched)
    if report.issues:
        raise ProgramVerificationError(
            "delta-patched program failed the resolved soundness proof: "
            + "; ".join(report.issues)
        )
    allowed = [VERDICT_DELIVERED, VERDICT_INFEASIBLE]
    bad = ~np.isin(report.outcome, allowed)
    wrong_hops = (report.outcome == VERDICT_DELIVERED) & (report.hops != dist_after)
    for mask, what in ((bad, "fate"), (wrong_hops, "hops")):
        if mask.any():
            xs, ys = np.nonzero(mask)
            x, y = int(xs[0]), int(ys[0])
            detail = (
                VERDICT_NAMES[int(report.outcome[x, y])]
                if what == "fate"
                else f"delivered in {int(report.hops[x, y])} hops at distance "
                f"{int(dist_after[x, y])}"
            )
            raise ProgramVerificationError(
                f"delta-patched program failed the resolved soundness proof: "
                f"pair {x} -> {y} is {detail}"
            )
