"""Unit tests for BFS distances, path enumeration and near-shortest first arcs."""

from __future__ import annotations

import numpy as np
import pytest

from oracles import bounded_paths
from repro.graphs import generators
from repro.graphs.digraph import PortLabeledGraph
from repro.graphs.shortest_paths import (
    UNREACHABLE,
    all_shortest_paths,
    bfs_distances,
    bfs_parents,
    distance_matrix,
    eccentricities,
    first_arcs_of_near_shortest_paths,
    shortest_path,
    shortest_path_dag,
)


class TestBFS:
    def test_distances_on_path(self):
        g = generators.path_graph(5)
        dist = bfs_distances(g, 0)
        assert list(dist) == [0, 1, 2, 3, 4]

    def test_distances_on_cycle(self):
        g = generators.cycle_graph(6)
        dist = bfs_distances(g, 0)
        assert list(dist) == [0, 1, 2, 3, 2, 1]

    def test_unreachable_marked(self):
        g = PortLabeledGraph(4, [(0, 1), (2, 3)])
        dist = bfs_distances(g, 0)
        assert dist[2] == UNREACHABLE and dist[3] == UNREACHABLE

    def test_parents_form_shortest_path_tree(self):
        g = generators.grid_2d(3, 4)
        dist, parent = bfs_parents(g, 0)
        for v in g.vertices():
            if v == 0:
                assert parent[v] == 0
            else:
                assert dist[parent[v]] == dist[v] - 1
                assert g.has_edge(int(parent[v]), v)


class TestDistanceMatrix:
    @pytest.mark.parametrize(
        "graph",
        [
            generators.hypercube(7),
            generators.torus_2d(8, 8),
            generators.grid_2d(9, 11),
            generators.cycle_graph(130),
            generators.random_connected_graph(100, extra_edge_prob=0.05, seed=5),
            PortLabeledGraph(70, [(v, v + 1) for v in range(69) if v != 40]),
        ],
        ids=["hypercube7", "torus8x8", "grid9x11", "cycle130", "random100", "split-path70"],
    )
    def test_multi_word_graphs_match_stacked_bfs_oracle(self, graph):
        # Graphs of >= 64 vertices pack their sources into several words;
        # the one-BFS-per-source stack is the oracle: byte-equal values and
        # dtype, -1 when unreachable.
        oracle = np.vstack([bfs_distances(graph, s) for s in range(graph.n)])
        d = distance_matrix(graph)
        assert d.dtype == oracle.dtype
        assert d.tobytes() == oracle.tobytes()

    @pytest.mark.parametrize(
        "graph",
        [
            PortLabeledGraph(1),
            generators.petersen_graph(),
            generators.hypercube(5),
            generators.grid_2d(7, 9),
            generators.random_tree(40, seed=3),
            generators.random_connected_graph(63, extra_edge_prob=0.1, seed=8),
            PortLabeledGraph(12, [(v, v + 1) for v in range(11) if v not in (3, 7)]),
        ],
        ids=["single", "petersen", "hypercube5", "grid7x9", "tree40", "random63", "split-path12"],
    )
    def test_single_word_graphs_match_stacked_bfs_oracle(self, graph):
        # Below 64 vertices every source fits one word; the
        # one-BFS-per-source stack is the oracle.
        oracle = np.vstack([bfs_distances(graph, s) for s in range(graph.n)])
        d = distance_matrix(graph)
        assert d.dtype == oracle.dtype
        assert d.tobytes() == oracle.tobytes()

    def test_symmetric_and_zero_diagonal(self):
        g = generators.petersen_graph()
        d = distance_matrix(g)
        assert np.array_equal(d, d.T)
        assert np.array_equal(np.diag(d), np.zeros(g.n, dtype=np.int64))

    def test_empty_graph(self):
        g = PortLabeledGraph(0)
        assert distance_matrix(g).shape == (0, 0)

    def test_petersen_has_diameter_two(self):
        d = distance_matrix(generators.petersen_graph())
        assert d.max() == 2

    def test_eccentricities_on_path(self):
        g = generators.path_graph(5)
        ecc = eccentricities(g)
        assert list(ecc) == [4, 3, 2, 3, 4]

    def test_eccentricities_reject_disconnected(self):
        g = PortLabeledGraph(3, [(0, 1)])
        with pytest.raises(ValueError):
            eccentricities(g)


class TestPathExtraction:
    def test_shortest_path_endpoints_and_length(self):
        g = generators.grid_2d(4, 4)
        d = distance_matrix(g)
        path = shortest_path(g, 0, 15)
        assert path[0] == 0 and path[-1] == 15
        assert len(path) - 1 == d[0, 15]
        for u, v in zip(path, path[1:]):
            assert g.has_edge(u, v)

    def test_shortest_path_same_vertex(self):
        g = generators.path_graph(3)
        assert shortest_path(g, 1, 1) == [1]

    def test_shortest_path_unreachable_returns_none(self):
        g = PortLabeledGraph(3, [(0, 1)])
        assert shortest_path(g, 0, 2) is None

    def test_all_shortest_paths_on_cycle(self):
        g = generators.cycle_graph(6)
        paths = all_shortest_paths(g, 0, 3)
        assert len(paths) == 2
        assert all(len(p) == 4 for p in paths)

    def test_all_shortest_paths_unique_on_tree(self, small_tree):
        for target in range(1, small_tree.n):
            paths = all_shortest_paths(small_tree, 0, target)
            assert len(paths) == 1

    def test_all_shortest_paths_limit(self):
        g = generators.hypercube(4)
        paths = all_shortest_paths(g, 0, 15, limit=3)
        assert len(paths) == 3

    def test_all_shortest_paths_source_equals_target(self):
        g = generators.cycle_graph(4)
        assert all_shortest_paths(g, 2, 2) == [[2]]

    def test_shortest_path_dag_predecessors(self):
        g = generators.cycle_graph(6)
        preds = shortest_path_dag(g, 0)
        assert sorted(preds[3]) == [2, 4]
        assert preds[0] == []


class TestBoundedPaths:
    def test_exact_budget_on_cycle(self):
        g = generators.cycle_graph(6)
        # Distance 0-2 is 2; within budget 4 there is the short way (length 2)
        # and the long way (length 4).
        short_only = bounded_paths(g, 0, 2, 3)
        both = bounded_paths(g, 0, 2, 4)
        assert len(short_only) == 1
        assert len(both) == 2

    def test_budget_below_distance_returns_nothing(self):
        g = generators.path_graph(5)
        assert bounded_paths(g, 0, 4, 3) == []

    def test_source_equals_target(self):
        g = generators.path_graph(3)
        assert bounded_paths(g, 1, 1, 2) == [[1]]

    def test_negative_budget(self):
        g = generators.path_graph(3)
        assert bounded_paths(g, 0, 2, -1) == []

    def test_paths_are_simple(self):
        g = generators.complete_graph(5)
        for path in bounded_paths(g, 0, 4, 3):
            assert len(path) == len(set(path))

    def test_limit_caps_enumeration(self):
        g = generators.complete_graph(6)
        paths = bounded_paths(g, 0, 5, 3, limit=4)
        assert len(paths) == 4

    def test_counts_on_complete_graph(self):
        # K_5: paths 0 -> 4 of length <= 2: the edge plus one per intermediate vertex.
        g = generators.complete_graph(5)
        paths = bounded_paths(g, 0, 4, 2)
        assert len(paths) == 1 + 3


class TestFirstArcs:
    def test_unique_shortest_path_forces_single_arc(self):
        g = generators.petersen_graph()
        arcs = first_arcs_of_near_shortest_paths(g, 0, 7, stretch=1.0, strict=False)
        assert len(arcs) == 1

    def test_multiple_shortest_paths_give_multiple_arcs(self):
        g = generators.cycle_graph(4)
        arcs = first_arcs_of_near_shortest_paths(g, 0, 2, stretch=1.0, strict=False)
        assert len(arcs) == 2

    def test_strict_budget_excludes_exact_multiple(self):
        g = generators.cycle_graph(6)
        # d(0, 2) = 2; the long way has length 4 = 2 * d, so it is admitted by
        # the non-strict bound and excluded by the strict one.
        loose = first_arcs_of_near_shortest_paths(g, 0, 2, stretch=2.0, strict=False)
        strict = first_arcs_of_near_shortest_paths(g, 0, 2, stretch=2.0, strict=True)
        assert len(loose) == 2
        assert len(strict) == 1

    def test_ports_match_graph_labelling(self):
        g = generators.path_graph(4)
        arcs = first_arcs_of_near_shortest_paths(g, 0, 3, stretch=1.0, strict=False)
        (arc,) = arcs
        assert arc.tail == 0 and arc.head == 1
        assert arc.port == g.port(0, 1)

    def test_same_vertex_rejected(self):
        g = generators.path_graph(3)
        with pytest.raises(ValueError):
            first_arcs_of_near_shortest_paths(g, 1, 1, stretch=1.0)

    def test_unreachable_target_gives_empty_set(self):
        g = PortLabeledGraph(3, [(0, 1)])
        assert first_arcs_of_near_shortest_paths(g, 0, 2, stretch=2.0) == set()
