"""Differential tests of the vectorised shortest-path port primitive and lowerings.

Two fast paths are pinned byte for byte against slow oracles that live in
the tests:

* :func:`repro.routing.tables.shortest_path_ports` (every table, landmark
  and interval build, and the patch step of ``apply_delta``) against the
  per-entry Python loop :func:`conftest.build_next_hop_matrix`, for all
  three tie-breaks, full and at dirty coordinates, on the small and medium
  registry families and on hypothesis graphs;
* each class-owned ``next_node_matrix`` lowering against the per-pair
  ``P`` loop of the live routing function.

The malformed-function errors of the vectorised lowerings and the eager
``tie_break`` validation are checked here too.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import _corpus, build_next_hop_matrix, connected_graphs, profile_settings
from repro.graphs import generators
from repro.graphs.digraph import PortLabeledGraph
from repro.graphs.shortest_paths import distance_matrix
from repro.routing.interval import IntervalRoutingFunction, IntervalRoutingScheme
from repro.routing.model import DELIVER, SchemeInapplicableError, TableRoutingFunction
from repro.routing.program import MISDELIVER, incremental_distance_matrix, lower_next_hop
from repro.routing.tables import TIE_BREAKS, ShortestPathTableScheme, shortest_path_ports
from repro.sim.registry import family_names, scheme_registry

_SETTINGS = profile_settings(25)

#: Registry schemes whose live functions lower through a class-owned matrix.
VECTORISED_SCHEMES = (
    "tables-lowest-port",
    "tables-lowest-neighbor",
    "tables-highest-port",
    "interval",
    "tree-interval",
    "complete-adversarial",
    "landmark-sqrt",
    "landmark-degree",
    "spanner3-landmark",
    "spanner5-landmark",
)


def oracle_ports(graph, tie_break):
    """The oracle's next hops as ports: ``0`` on the diagonal and when unreachable."""
    next_hop = build_next_hop_matrix(graph, tie_break=tie_break)
    ports = np.zeros((graph.n, graph.n), dtype=np.int64)
    for x in range(graph.n):
        for dest in range(graph.n):
            if x != dest and next_hop[x, dest] >= 0:
                ports[x, dest] = graph.port(x, int(next_hop[x, dest]))
    return ports


def per_pair_next_nodes(rf):
    """``P`` evaluated once per pair on the live function (the lowering oracle)."""
    graph = rf.graph
    n = graph.n
    out = np.empty((n, n), dtype=np.int64)
    for dest in range(n):
        header = rf.initial_header((dest + 1) % n, dest)
        for x in range(n):
            port = rf.port(x, header)
            if port == DELIVER:
                out[x, dest] = dest if x == dest else MISDELIVER
            else:
                out[x, dest] = graph.neighbor_at_port(x, port)
    return out


def _assert_primitive_matches_oracle(graph, tie_break, seed):
    expected = oracle_ports(graph, tie_break)
    full = shortest_path_ports(graph, tie_break=tie_break)
    assert full.dtype == expected.dtype
    assert full.tobytes() == expected.tobytes()
    xs, ds = np.nonzero(np.random.default_rng(seed).random((graph.n, graph.n)) < 0.3)
    patched = shortest_path_ports(graph, tie_break, distance_matrix(graph), dirty=(xs, ds))
    assert patched.tobytes() == expected[xs, ds].tobytes()


# ----------------------------------------------------------------------
# the port primitive against the per-entry Python loop
# ----------------------------------------------------------------------
@pytest.mark.parametrize("size", ["small", "medium"])
@pytest.mark.parametrize("family", sorted(family_names()))
@pytest.mark.parametrize("tie_break", TIE_BREAKS)
def test_primitive_matches_python_oracle_on_registry(size, family, tie_break):
    _assert_primitive_matches_oracle(_corpus(size)[family], tie_break, seed=len(family))


@_SETTINGS
@given(graph=connected_graphs(max_n=24), tie_break=st.sampled_from(TIE_BREAKS),
       seed=st.integers(0, 2**16))
def test_primitive_matches_python_oracle_on_hypothesis_graphs(graph, tie_break, seed):
    _assert_primitive_matches_oracle(graph, tie_break, seed)


@pytest.mark.parametrize("tie_break", TIE_BREAKS)
def test_primitive_leaves_unreachable_entries_at_deliver(tie_break):
    graph = PortLabeledGraph(5, [(0, 1), (1, 2), (3, 4)])
    ports = shortest_path_ports(graph, tie_break=tie_break)
    assert ports.tobytes() == oracle_ports(graph, tie_break).tobytes()
    assert ports[0, 3] == DELIVER and ports[3, 0] == DELIVER


def test_primitive_rejects_unknown_tie_break():
    with pytest.raises(ValueError, match="tie_break"):
        shortest_path_ports(generators.cycle_graph(4), tie_break="lowest-port")


# ----------------------------------------------------------------------
# class-owned lowerings against the per-pair P loop
# ----------------------------------------------------------------------
@pytest.mark.parametrize("size", ["small", "medium"])
@pytest.mark.parametrize("scheme_name", VECTORISED_SCHEMES)
def test_vectorised_lowering_matches_per_pair_loop(size, scheme_name):
    scheme = scheme_registry(seed=3)[scheme_name]
    for family, graph in _corpus(size).items():
        try:
            rf = scheme.build(graph.copy())
        except ValueError:
            continue  # inapplicable cell
        matrix = rf.next_node_matrix()
        assert matrix is not None, f"{scheme_name} on {family} fell back to the P loop"
        program = lower_next_hop(rf)
        expected = per_pair_next_nodes(rf).astype(program.next_node.dtype)
        assert program.next_node.tobytes() == expected.tobytes(), (scheme_name, family)


def _overriding(rf, method):
    """``rf`` re-classed under a subclass whose ``method`` delegates to the parent."""
    base = type(rf)

    def delegate(self, *args):
        return getattr(base, method)(self, *args)

    rf.__class__ = type("_Delegating", (base,), {method: delegate})
    return rf


@pytest.mark.parametrize(
    "scheme_name, method",
    [
        ("tables-highest-port", "port"),
        ("tables-highest-port", "port_to"),
        ("interval", "port"),
        ("landmark-sqrt", "port"),
        ("landmark-sqrt", "address"),
        ("spanner3-landmark", "port"),
        ("spanner3-landmark", "address"),
    ],
)
def test_override_falls_back_to_the_per_pair_loop(scheme_name, method):
    # A subclass overriding what the class-owned matrix reads (port(), the
    # table lookup or the address) loses the matrix; the P loop fallback
    # then lowers to the very same program.
    graph = _corpus("medium")["grid"]
    scheme = scheme_registry(seed=3)[scheme_name]
    vectorised = lower_next_hop(scheme.build(graph.copy()))
    overridden = _overriding(scheme.build(graph.copy()), method)
    assert overridden.next_node_matrix() is None
    assert lower_next_hop(overridden).to_bytes() == vectorised.to_bytes()


def test_single_vertex_programs():
    graph = PortLabeledGraph(1)
    for rf in (
        ShortestPathTableScheme().build(graph.copy()),
        IntervalRoutingScheme().build(graph.copy()),
    ):
        assert lower_next_hop(rf).next_node.tolist() == [[0]]


def test_table_port_matrix_and_dict_tables_lower_identically():
    graph = _corpus("small")["petersen"]
    rf = ShortestPathTableScheme(tie_break="highest_port").build(graph.copy())
    as_dicts = TableRoutingFunction(graph, {x: rf.local_map(x) for x in range(graph.n)})
    assert lower_next_hop(as_dicts).to_bytes() == lower_next_hop(rf).to_bytes()
    assert as_dicts.local_map(3) == rf.local_map(3)


# ----------------------------------------------------------------------
# malformed functions keep their lowering errors
# ----------------------------------------------------------------------
def _path3_tables():
    return {0: {1: 1, 2: 1}, 1: {0: 1, 2: 2}, 2: {0: 1, 1: 1}}


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda t: t.__setitem__(0, {0: 1, 2: 1}), "self-entry"),
        (lambda t: t[1].pop(2), "has 1 entries, expected 2"),
        (lambda t: t.pop(2), "has 0 entries, expected 2"),
        (lambda t: t[2].__setitem__(1, 4), "invalid port 4 at vertex 2"),
    ],
)
def test_malformed_unvalidated_tables_raise_on_lowering(edit, message):
    graph = generators.path_graph(3)
    tables = _path3_tables()
    edit(tables)
    rf = TableRoutingFunction(graph, tables, validate=False)
    with pytest.raises(ValueError, match=message):
        lower_next_hop(rf)
    with pytest.raises(ValueError):
        TableRoutingFunction(graph, tables)


def test_interval_uncovered_label_raises_the_lookup_error():
    graph = generators.path_graph(3)
    labeling = {0: 0, 1: 1, 2: 2}
    intervals = {0: {1: [(1, 1)]}, 1: {1: [(0, 0)], 2: [(2, 2)]}, 2: {1: [(0, 1)]}}
    rf = IntervalRoutingFunction(graph, labeling, intervals, validate=False)
    with pytest.raises(ValueError, match="vertex 0 has no interval containing label 2"):
        lower_next_hop(rf)
    with pytest.raises(ValueError, match="vertex 0 has no interval containing label 2"):
        per_pair_next_nodes(rf)


def test_interval_invalid_port_raises_on_lowering():
    graph = generators.path_graph(3)
    labeling = {0: 0, 1: 1, 2: 2}
    intervals = {0: {3: [(1, 2)]}, 1: {1: [(0, 0)], 2: [(2, 2)]}, 2: {1: [(0, 1)]}}
    rf = IntervalRoutingFunction(graph, labeling, intervals, validate=False)
    with pytest.raises(ValueError, match="invalid port 3 at vertex 0"):
        lower_next_hop(rf)


def test_interval_first_matching_interval_wins():
    # Overlapping intervals (only possible unvalidated): the lookup returns
    # the first port listed, and so does the vectorised expansion.
    graph = generators.cycle_graph(4)
    labeling = {v: v for v in range(4)}
    intervals = {
        x: {1: [((x + 1) % 4, (x + 2) % 4)], 2: [((x + 2) % 4, (x + 3) % 4)]} for x in range(4)
    }
    rf = IntervalRoutingFunction(graph, labeling, intervals, validate=False)
    expected = per_pair_next_nodes(rf).astype(lower_next_hop(rf).next_node.dtype)
    assert lower_next_hop(rf).next_node.tobytes() == expected.tobytes()


# ----------------------------------------------------------------------
# tie_break is validated at construction, so no sweep skips a typo
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "make",
    [
        lambda: ShortestPathTableScheme(tie_break="lowest-port"),
        lambda: IntervalRoutingScheme(tie_break="lowest-port"),
        lambda: IntervalRoutingScheme(root=2, tie_break="random"),
    ],
)
def test_misspelled_tie_break_raises_at_construction(make):
    with pytest.raises(ValueError, match="tie_break must be one of") as info:
        make()
    # A plain ValueError, never the sweep-skipping SchemeInapplicableError.
    assert not isinstance(info.value, SchemeInapplicableError)


def test_registry_sweep_skips_no_table_or_interval_cell(tmp_path):
    from repro.analysis.runner import ShardedRunner

    registry = scheme_registry(seed=0)
    schemes = {name: registry[name] for name in VECTORISED_SCHEMES[:4]}
    runner = ShardedRunner(cache_dir=str(tmp_path), processes=1)
    results, skipped, _ = runner.program_sweep(schemes=schemes, families=_corpus("small"))
    assert skipped == []
    assert len(results) == len(schemes) * len(_corpus("small"))


# ----------------------------------------------------------------------
# the exact removal criterion of incremental_distance_matrix
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dim", [4, 6, 8])
def test_hypercube_edge_removal_rebuilds_two_columns(dim):
    graph = generators.hypercube(dim)
    after = graph.copy()
    after.remove_edge(0, 1)
    dist, rounds, recomputed = incremental_distance_matrix(
        after, distance_matrix(graph), added=[], removed=[(0, 1)]
    )
    assert recomputed == 2
    assert rounds == 0
    assert dist.tobytes() == distance_matrix(after).tobytes()


@pytest.mark.parametrize("family", sorted(family_names()))
def test_every_single_edge_removal_is_exact(family):
    # Every non-bridge removal on a small registry graph, checked against a
    # full recompute: the exact criterion may rebuild fewer columns than the
    # |d(u, t) - d(v, t)| == 1 frontier, never a wrong one.
    graph = _corpus("small")[family]
    dist = distance_matrix(graph)
    for u, v in sorted(graph.edges()):
        after = graph.copy()
        after.remove_edge(u, v)
        fresh = distance_matrix(after)
        got, _, recomputed = incremental_distance_matrix(after, dist, [], [(u, v)])
        assert got.tobytes() == fresh.tobytes(), (family, u, v)
        frontier = (np.abs(dist[u] - dist[v]) == 1).sum()
        assert recomputed <= frontier
