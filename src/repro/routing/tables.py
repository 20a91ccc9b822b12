"""Shortest-path routing tables — the universal ``O(n log n)``-bit scheme.

The baseline universal routing scheme of the paper: every router stores, for
every destination, the output port of one shortest path towards it.  Encoded
naively this costs ``(n - 1) * ceil(log2 deg(x))`` bits at a router ``x``
(about ``n log n`` bits in the worst case), and Theorem 1 shows that for any
stretch factor below 2 this cannot be asymptotically improved on some
networks.

The scheme is parameterised by the tie-breaking rule used when several
shortest paths exist, because different rules produce tables of different
compressibility (e.g. the interval coder of :mod:`repro.memory.coder`
benefits from the ``lowest_port`` rule on ring-like graphs).

Each rule is stated once, as an order of preference over every router's
neighbours, and a port is the first shortest-path neighbour in that order.
Two shapes read it, each the faster on its own workload: a fresh matrix is
built rank by rank, one vectorised step per preference rank over whole
rows of a narrow (usually int8) copy of the distances, and a delta's dirty
coordinates are evaluated per entry, one step per rank.
"""

from __future__ import annotations

from typing import Literal, Optional, Tuple, get_args

import numpy as np

from repro.graphs.digraph import PortLabeledGraph
from repro.graphs.shortest_paths import UNREACHABLE, distance_matrix
from repro.routing.model import BaseRoutingScheme, TableRoutingFunction

__all__ = ["ShortestPathTableScheme", "TIE_BREAKS", "shortest_path_ports"]

TieBreak = Literal["lowest_neighbor", "lowest_port", "highest_port"]

TIE_BREAKS = get_args(TieBreak)


def check_tie_break(tie_break: str) -> TieBreak:
    """Return ``tie_break`` if it names a rule of :data:`TIE_BREAKS`, else raise."""
    if tie_break not in TIE_BREAKS:
        raise ValueError(f"tie_break must be one of {TIE_BREAKS}, got {tie_break!r}")
    return tie_break  # type: ignore[return-value]


def shortest_path_ports(
    graph: PortLabeledGraph,
    tie_break: TieBreak = "lowest_port",
    dist: Optional[np.ndarray] = None,
    dirty: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> np.ndarray:
    """Port matrix ``ports[x, dest]`` of one shortest-path routing.

    ``ports[x, dest]`` is the port at ``x`` of the shortest-path neighbour
    towards ``dest`` picked by ``tie_break`` (lowest port, highest port or
    lowest neighbour label); the diagonal and unreachable destinations hold
    ``0`` (:data:`~repro.routing.model.DELIVER`).  Given ``dirty``, the
    coordinate arrays ``(xs, dests)`` of some entries, only those entries
    are computed and returned, as a 1-D int64 array aligned with the
    coordinates (``ports[xs, dests]`` of the full matrix): the patch step
    of :func:`repro.routing.program.apply_delta`, of which a fresh build
    is the all-dirty case.

    Without ``dirty``, and with no ``dist`` or the graph's own memoised
    distances, the matrix is derived once per graph snapshot and
    tie-break: it is memoised on
    :attr:`~repro.graphs.digraph.PortLabeledGraph.derived` in the narrowest
    unsigned dtype that holds the graph's ports, and every call returns a
    fresh int64 copy.  ``dist`` must be ``graph``'s distance matrix (the
    memoised one or a copy).

    Both shapes keep each destination's first shortest-path neighbour in
    the rule's order of preference (an entry with none, impossible on the
    graph's own distances, answers ``0``).  A fresh build makes one
    vectorised step per preference rank over a narrow copy of the
    distances (the narrowest signed dtype holding ``UNREACHABLE - 1`` and
    the diameter): rows sorted by descending degree make the rows owning
    a rank-``k`` preference a prefix, and step ``k`` compares their
    rank-``k`` neighbours' whole distance rows with ``dist[x] - 1``.  Rows
    go in blocks of about ``_BLOCK_ENTRIES / n``, so the per-rank scratch
    stays bounded.  Dirty coordinates are evaluated per entry instead, so
    a patch costs its entries' degrees, not its rows' ``deg(x) * n``.
    """
    check_tie_break(tie_break)
    if dist is None:
        dist = distance_matrix(graph)
    if dirty is not None:
        return _dirty_entry_ports(graph, tie_break, dist, dirty)
    derived = graph.derived
    if dist is not derived.distances:
        return _shortest_path_ports(graph, tie_break, dist).astype(np.int64)
    ports = derived.ports.get(tie_break)
    if ports is None:
        ports = derived.ports[tie_break] = _shortest_path_ports(graph, tie_break, dist)
    return ports.astype(np.int64)


#: Rows per fresh-build block times ``n``: bounds each per-rank scratch
#: array (a gather, its comparison and its gain) to about this many bytes.
_BLOCK_ENTRIES = 1 << 18


def _preference_order(
    graph: PortLabeledGraph, tie_break: TieBreak
) -> Tuple[np.ndarray, np.ndarray]:
    """Every row's neighbours and their ports in the rule's order of preference.

    The one statement of the tie-break rules, laid out like the CSR
    adjacency: slot ``indptr[x] + k`` holds the rank-``k`` preference of
    ``x``.  ``lowest_port`` is the CSR order itself, ``highest_port``
    reverses each row, ``lowest_neighbor`` sorts each row by label.
    """
    indptr, indices = graph.adjacency_arrays()
    deg = np.diff(indptr)
    row_start = np.repeat(indptr[:-1], deg)
    slot = np.arange(indices.size)
    if tie_break == "highest_port":
        slot = 2 * row_start + np.repeat(deg, deg) - 1 - slot
    elif tie_break == "lowest_neighbor":
        slot = np.lexsort((indices, row_start))
    return indices[slot], slot - row_start + 1


def _shortest_path_ports(
    graph: PortLabeledGraph, tie_break: TieBreak, dist: np.ndarray
) -> np.ndarray:
    """The whole port matrix, in the narrowest unsigned dtype of the ports."""
    n = graph.n
    indptr = graph.adjacency_arrays()[0]
    deg = np.diff(indptr)
    ports = np.zeros((n, n), dtype=np.min_scalar_type(int(deg.max(initial=0))))
    narrow = dist.astype(np.min_scalar_type(-int(dist.max(initial=0)) - 1))
    pref_nbr, pref_port = _preference_order(graph, tie_break)
    pref_port = pref_port.astype(ports.dtype)
    by_deg = np.argsort(-deg, kind="stable")
    block = max(1, _BLOCK_ENTRIES // max(n, 1))
    for start in range(0, n, block):
        rows = by_deg[start : start + block]
        width = int(deg[rows[0]])
        if not width:
            break  # the remaining rows are isolated vertices: no port to pick
        want = narrow[rows] - 1
        best = np.zeros((rows.size, n), dtype=ports.dtype)
        owners = np.searchsorted(-deg[rows], -np.arange(width), side="left")  # deg > k
        first = indptr[rows]
        for k, count in enumerate(owners.tolist()):
            slots = first[:count] + k
            hit = narrow[pref_nbr[slots]] == want[:count]
            hit &= best[:count] == 0
            best[:count] += hit.view(np.uint8) * pref_port[slots, None]
        ports[rows] = best
    return ports


def _dirty_entry_ports(
    graph: PortLabeledGraph,
    tie_break: TieBreak,
    dist: np.ndarray,
    dirty: Tuple[np.ndarray, np.ndarray],
) -> np.ndarray:
    """The tie-break evaluated per dirty entry, one vectorised step per port rank.

    Entries are ordered by descending degree, so the entries owning a
    preference of rank ``k`` are a prefix.  Step ``k`` tests the rank-``k``
    neighbour of every entry still open and retires the entries it hits.
    """
    n = graph.n
    xs, ds = dirty
    ports = np.zeros(xs.size, dtype=np.int64)
    want = dist[xs, ds] - 1
    entries = np.flatnonzero(want >= 0)  # the diagonal and unreachable destinations stay 0
    if not entries.size:
        return ports
    indptr = graph.adjacency_arrays()[0]
    deg = np.diff(indptr)[xs[entries]]
    by_deg = np.argsort(-deg, kind="stable")
    entries, deg = entries[by_deg], deg[by_deg]
    xs, ds, want = xs[entries], ds[entries], want[entries]
    first = indptr[xs]
    ranks = np.searchsorted(-deg, -np.arange(int(deg[0])), side="left")  # entries with deg > k
    pref_nbr, pref_port = _preference_order(graph, tie_break)
    pick = np.zeros(xs.size, dtype=np.int64)
    open_ = np.arange(xs.size)
    for k, count in enumerate(ranks.tolist()):
        open_ = open_[: np.searchsorted(open_, count)]
        slots = first[open_] + k
        hit = np.take(dist, pref_nbr[slots] * n + ds[open_]) == want[open_]
        pick[open_[hit]] = pref_port[slots[hit]]
        open_ = open_[~hit]
        if not open_.size:
            break
    ports[entries] = pick
    return ports


class ShortestPathTableScheme(BaseRoutingScheme):
    """Universal shortest-path routing scheme based on full routing tables.

    Parameters
    ----------
    tie_break:
        Rule used to pick a next hop when several shortest paths exist; one
        of :data:`TIE_BREAKS` (anything else raises :class:`ValueError`).

    Notes
    -----
    ``stretch_guarantee`` is 1: the produced routing functions always route
    along shortest paths.
    """

    name = "routing-tables"
    stretch_guarantee = 1.0

    def __init__(self, tie_break: TieBreak = "lowest_port") -> None:
        self.tie_break: TieBreak = check_tie_break(tie_break)

    def build(self, graph: PortLabeledGraph) -> TableRoutingFunction:
        """Build the shortest-path table routing function for ``graph``.

        Raises :class:`ValueError` on disconnected graphs (routing functions
        are only defined on connected networks in the paper's model).
        """
        dist = distance_matrix(graph)
        if graph.n > 1 and (dist == UNREACHABLE).any():
            raise ValueError("routing tables require a connected graph")
        ports = shortest_path_ports(graph, tie_break=self.tie_break, dist=dist)
        return TableRoutingFunction(graph, ports, validate=False)
