"""Unit tests for shortest-path routing tables."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.graphs import generators
from repro.graphs.digraph import PortLabeledGraph
from repro.graphs.shortest_paths import distance_matrix
from conftest import build_next_hop_matrix, profile_settings
from oracles import all_pairs_routing_lengths, row_loop_shortest_path_ports, stretch_factor
from repro.routing.tables import ShortestPathTableScheme, shortest_path_ports
from repro.sim.registry import graph_families


def next_hop_matrix(graph, tie_break="lowest_port", dist=None):
    """Next hops of the library primitive, in the oracle's format.

    The neighbour behind every port of :func:`shortest_path_ports`, ``x``
    on the diagonal and ``-1`` for unreachable destinations.
    """
    ports = shortest_path_ports(graph, tie_break=tie_break, dist=dist)
    indptr, indices = graph.adjacency_arrays()
    hops = np.where(ports > 0, indices[np.maximum(indptr[:-1, None] + ports - 1, 0)], -1)
    np.fill_diagonal(hops, np.arange(graph.n))
    return hops


class TestPortMatrixMemo:
    def test_derived_once_per_graph_and_tie_break(self):
        graph = generators.hypercube(5)
        first = shortest_path_ports(graph, "lowest_port")
        memo = graph.derived.ports["lowest_port"]
        assert memo.dtype == np.uint8
        assert shortest_path_ports(graph.copy(), "lowest_port") is not first
        assert graph.derived.ports["lowest_port"] is memo  # the copy hit it
        shortest_path_ports(graph, "highest_port")
        assert set(graph.derived.ports) == {"lowest_port", "highest_port"}

    def test_every_caller_gets_a_fresh_int64_copy(self):
        graph = generators.grid_2d(4, 5)
        ports = shortest_path_ports(graph)
        assert ports.dtype == np.int64
        expected = ports.copy()
        ports[:] = 7
        assert np.array_equal(shortest_path_ports(graph), expected)
        assert np.array_equal(graph.derived.ports["lowest_port"], expected)

    def test_dirty_and_foreign_distances_stay_unmemoised(self):
        graph = generators.torus_2d(4, 4)
        dist = distance_matrix(graph)
        entries = (np.array([0]), np.array([5]))
        patched = shortest_path_ports(graph, "lowest_port", dist, dirty=entries)
        assert patched.shape == (1,) and patched[0] > 0
        shortest_path_ports(graph, "lowest_port", np.array(dist))
        assert graph.derived.ports == {}
        shortest_path_ports(graph, "lowest_port", dist)  # the graph's own: memoised
        assert set(graph.derived.ports) == {"lowest_port"}


class TestNextHopMatrix:
    def test_next_hops_decrease_distance(self):
        g = generators.random_connected_graph(20, extra_edge_prob=0.1, seed=3)
        dist = distance_matrix(g)
        next_hop = next_hop_matrix(g, dist=dist)
        for x in g.vertices():
            for dest in g.vertices():
                if x == dest:
                    assert next_hop[x, dest] == x
                else:
                    nh = int(next_hop[x, dest])
                    assert g.has_edge(x, nh)
                    assert dist[nh, dest] == dist[x, dest] - 1

    def test_diagonal_is_identity(self):
        g = generators.cycle_graph(5)
        next_hop = next_hop_matrix(g)
        assert (np.diag(next_hop) == np.arange(5)).all()

    def test_disconnected_marked_minus_one(self):
        g = PortLabeledGraph(4, [(0, 1), (2, 3)])
        next_hop = next_hop_matrix(g)
        assert next_hop[0, 2] == -1

    def test_tie_break_lowest_neighbor(self):
        g = generators.cycle_graph(4)
        next_hop = next_hop_matrix(g, tie_break="lowest_neighbor")
        # From 0 to 2 both neighbours 1 and 3 are on shortest paths.
        assert next_hop[0, 2] == 1

    def test_tie_break_rules_differ(self):
        g = generators.complete_bipartite_graph(2, 3)
        low = next_hop_matrix(g, tie_break="lowest_port")
        high = next_hop_matrix(g, tie_break="highest_port")
        assert (low != high).any()


class TestShortestPathTableScheme:
    def test_stretch_is_one_on_families(self):
        graphs = [
            generators.petersen_graph(),
            generators.grid_2d(3, 4),
            generators.hypercube(3),
            generators.random_connected_graph(15, seed=2),
        ]
        scheme = ShortestPathTableScheme()
        for g in graphs:
            rf = scheme.build(g)
            assert stretch_factor(rf) == Fraction(1)

    def test_routing_lengths_equal_distances(self, small_random_graph):
        rf = ShortestPathTableScheme().build(small_random_graph)
        assert (all_pairs_routing_lengths(rf) == distance_matrix(small_random_graph)).all()

    def test_ports_are_valid(self, small_random_graph):
        rf = ShortestPathTableScheme().build(small_random_graph)
        for x in small_random_graph.vertices():
            table = rf.local_map(x)
            assert set(table) == set(small_random_graph.vertices()) - {x}
            for port in table.values():
                assert 1 <= port <= small_random_graph.degree(x)

    def test_rejects_disconnected_graph(self):
        g = PortLabeledGraph(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            ShortestPathTableScheme().build(g)

    def test_single_vertex_graph(self):
        g = PortLabeledGraph(1)
        rf = ShortestPathTableScheme().build(g)
        assert rf.local_map(0) == {}

    def test_tie_break_changes_tables_not_stretch(self):
        g = generators.torus_2d(4, 4)
        rf_low = ShortestPathTableScheme(tie_break="lowest_port").build(g)
        rf_high = ShortestPathTableScheme(tie_break="highest_port").build(g)
        assert stretch_factor(rf_low) == Fraction(1)
        assert stretch_factor(rf_high) == Fraction(1)
        differs = any(rf_low.local_map(x) != rf_high.local_map(x) for x in g.vertices())
        assert differs


TIE_BREAKS = ("lowest_neighbor", "lowest_port", "highest_port")


class TestTieBreakDeterminism:
    """Same graph + same rule must yield the same tables, every time, everywhere.

    The guarantee matters because the simulator compiles tables into
    next-hop matrices once: a non-deterministic tie-break would make the
    compiled and legacy paths diverge between runs.
    """

    @pytest.mark.parametrize("rule", TIE_BREAKS)
    def test_next_hop_matrix_identical_across_runs(self, rule):
        g = generators.random_connected_graph(24, extra_edge_prob=0.15, seed=9)
        first = next_hop_matrix(g, tie_break=rule)
        assert np.array_equal(first, next_hop_matrix(g, tie_break=rule))

    @pytest.mark.parametrize("rule", TIE_BREAKS)
    def test_next_hop_matrix_identical_across_graph_rebuilds(self, rule):
        # A freshly regenerated instance (same generator seed) must compile
        # to the very same matrix: no dependence on dict iteration order or
        # object identity.
        g1 = generators.random_connected_graph(24, extra_edge_prob=0.15, seed=9)
        g2 = generators.random_connected_graph(24, extra_edge_prob=0.15, seed=9)
        assert np.array_equal(
            next_hop_matrix(g1, tie_break=rule), next_hop_matrix(g2, tie_break=rule)
        )

    @pytest.mark.parametrize("rule", TIE_BREAKS)
    def test_scheme_tables_match_next_hop_matrix(self, rule, small_corpus_graph):
        g = small_corpus_graph
        rf = ShortestPathTableScheme(tie_break=rule).build(g)
        next_hop = build_next_hop_matrix(g, tie_break=rule)
        for x in g.vertices():
            for dest, port in rf.local_map(x).items():
                assert g.neighbor_at_port(x, port) == next_hop[x, dest]

    @pytest.mark.parametrize("rule", TIE_BREAKS)
    def test_simulator_and_legacy_paths_agree_per_rule(self, rule, small_corpus_graph):
        from repro.routing.program import lower_next_hop
        from repro.sim import simulate_all_pairs

        g = small_corpus_graph
        rf_a = ShortestPathTableScheme(tie_break=rule).build(g)
        rf_b = ShortestPathTableScheme(tie_break=rule).build(g.copy())
        # Two independent builds compile to identical next-hop matrices...
        assert np.array_equal(lower_next_hop(rf_a).next_node, lower_next_hop(rf_b).next_node)
        # ...and the batched and per-pair simulations of either coincide.
        result = simulate_all_pairs(rf_a)
        assert np.array_equal(result.report.require_all_delivered(), all_pairs_routing_lengths(rf_b))

    def test_rules_pick_documented_neighbors(self):
        # On C4, 0 -> 2 has the two tied neighbours 1 (port 1) and 3 (port 2)
        # under the canonical labelling.
        g = generators.cycle_graph(4)
        assert next_hop_matrix(g, tie_break="lowest_neighbor")[0, 2] == 1
        assert next_hop_matrix(g, tie_break="lowest_port")[0, 2] == 1
        assert next_hop_matrix(g, tie_break="highest_port")[0, 2] == 3


# ----------------------------------------------------------------------
# the dirty-entry path raced against the whole-row build
# ----------------------------------------------------------------------
REGISTRY_GRAPHS = {
    f"{size}/{name}": graph
    for size in ("small", "medium")
    for name, graph in graph_families(size=size, seed=0).items()
}

MASK_KINDS = ("empty", "entry", "entries", "rows", "all", "diagonal", "random")


@st.composite
def dirty_masks(draw, n):
    """A boolean ``(n, n)`` dirty mask of one of :data:`MASK_KINDS`."""
    kind = draw(st.sampled_from(MASK_KINDS), label="mask")
    vertex = st.integers(min_value=0, max_value=n - 1)
    mask = np.zeros((n, n), dtype=bool)
    if kind == "entry":
        mask[draw(vertex), draw(vertex)] = True
    elif kind == "entries":
        for x, d in draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=12)):
            mask[x, d] = True
    elif kind == "rows":
        mask[draw(st.lists(vertex, min_size=1, max_size=4))] = True
    elif kind == "all":
        mask[:] = True
    elif kind in ("diagonal", "random"):
        seed = draw(st.integers(min_value=0, max_value=10**6))
        mask = np.random.default_rng(seed).random((n, n)) < 0.2
        if kind == "diagonal":
            np.fill_diagonal(mask, True)
    return mask


def _shuffled_ports(graph, seed):
    """A copy of ``graph`` with every vertex's ports permuted at random."""
    rng = np.random.default_rng(seed)
    shuffled = graph.copy()
    for x in shuffled.vertices():
        ports = list(range(1, shuffled.degree(x) + 1))
        shuffled.relabel_ports(x, dict(zip(ports, (int(p) for p in rng.permutation(ports)))))
    return shuffled


@profile_settings(base_examples=80)
@given(data=st.data())
def test_dirty_entries_race_the_whole_row_build(data):
    # The entry-wise patch path must give every dirty entry the port of
    # the whole-row build, in the order the coordinates list them (0 on
    # the diagonal and at unreachable destinations).  Both shapes of the
    # package read one preference order, so the row build raced here is
    # the per-row loop of the oracles, which states each rule on its own.
    graph = REGISTRY_GRAPHS[data.draw(st.sampled_from(sorted(REGISTRY_GRAPHS)), label="graph")]
    if data.draw(st.booleans(), label="shuffle ports"):
        graph = _shuffled_ports(graph, data.draw(st.integers(min_value=0, max_value=10**6)))
    tie_break = data.draw(st.sampled_from(TIE_BREAKS), label="tie_break")
    mask = data.draw(dirty_masks(graph.n))
    dist = distance_matrix(graph)
    full = row_loop_shortest_path_ports(graph, tie_break, dist)
    xs, ds = np.nonzero(mask)
    if data.draw(st.booleans(), label="reverse order"):
        xs, ds = xs[::-1], ds[::-1]
    patched = shortest_path_ports(graph, tie_break, dist, dirty=(xs, ds))
    assert patched.dtype == np.int64 and patched.shape == xs.shape
    assert np.array_equal(patched, np.where(dist[xs, ds] > 0, full[xs, ds], 0))


@pytest.mark.parametrize("rule", TIE_BREAKS)
def test_dirty_entries_skip_unreachable_destinations(rule):
    graph = PortLabeledGraph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5)])
    dist = distance_matrix(graph)
    xs, ds = np.nonzero(np.ones((graph.n, graph.n), dtype=bool))
    patched = shortest_path_ports(graph, rule, dist, dirty=(xs, ds)).reshape(graph.n, graph.n)
    assert np.array_equal(patched, shortest_path_ports(graph, rule))
    assert not patched[:3, 3:].any() and not patched[3:, :3].any()


# ----------------------------------------------------------------------
# the rank-wise build raced against the per-row loop
# ----------------------------------------------------------------------
@st.composite
def port_race_graphs(draw):
    """A registry graph, a small arbitrary graph, a long path or a big star."""
    kind = draw(st.sampled_from(("registry", "arbitrary", "path", "star")), label="kind")
    if kind == "registry":
        graph = REGISTRY_GRAPHS[draw(st.sampled_from(sorted(REGISTRY_GRAPHS)), label="graph")]
    elif kind == "arbitrary":
        # n = 0 and n = 1, disconnected graphs and isolated vertices.
        n = draw(st.integers(min_value=0, max_value=9), label="n")
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        graph = PortLabeledGraph(n, [pair for pair, kept in zip(pairs, keep) if kept])
    elif kind == "path":
        # Diameter 127 still fits the int8 distance copy; 128 and up need int16.
        graph = generators.path_graph(draw(st.integers(min_value=128, max_value=160), label="n"))
    else:
        # A centre of degree >= 128: ports past int8, and past uint8 from 256.
        graph = generators.star_graph(draw(st.integers(min_value=129, max_value=300), label="n"))
    if draw(st.booleans(), label="shuffle ports"):
        graph = _shuffled_ports(graph, draw(st.integers(min_value=0, max_value=10**6)))
    return graph


@profile_settings(base_examples=80)
@given(data=st.data())
def test_rank_wise_build_races_the_row_loop(data):
    # The fresh build must equal the per-row argmax/argmin oracle entry for
    # entry, on the graph's own distances (the memoised path, whose memo is
    # the narrowest unsigned port dtype) and on foreign copies of them (the
    # unmemoised path).
    graph = data.draw(port_race_graphs())
    tie_break = data.draw(st.sampled_from(TIE_BREAKS), label="tie_break")
    foreign = data.draw(st.sampled_from((None, np.int64, np.int32, np.int16)), label="foreign")
    dist = distance_matrix(graph)
    expected = row_loop_shortest_path_ports(graph, tie_break, dist)
    if foreign is None:
        ports = shortest_path_ports(graph, tie_break)
        memo = graph.derived.ports[tie_break]
        assert memo.dtype == np.min_scalar_type(int(expected.max(initial=0)))
    else:
        ports = shortest_path_ports(graph, tie_break, dist.astype(foreign))
    assert ports.dtype == np.int64 and ports.shape == (graph.n, graph.n)
    assert np.array_equal(ports, expected)
