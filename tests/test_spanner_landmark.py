"""Unit tests for spanners, landmark routing and the spanner+landmark composition.

Family-agnostic properties (spanner stretch, landmark delivery/stretch,
cluster membership) run over the shared graph corpus of ``conftest.py`` —
one seeded instance per generator family — instead of hand-picked random
graphs; only size- or shape-specific claims keep dedicated instances.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from oracles import route, stretch_factor
from repro.graphs import generators, properties
from repro.memory.requirement import address_bits, memory_profile
from repro.routing.hierarchical import HierarchicalSpannerScheme
from repro.routing.landmark import CowenLandmarkScheme
from repro.routing.spanner import greedy_spanner, spanner_stretch
from repro.routing.tables import ShortestPathTableScheme


class TestGreedySpanner:
    def test_stretch_respected_on_corpus(self, small_corpus_graph):
        for t in (1.0, 3.0, 5.0):
            h = greedy_spanner(small_corpus_graph, t)
            assert spanner_stretch(small_corpus_graph, h) <= t

    def test_built_once_per_graph_and_stretch(self, small_corpus_graph):
        g = small_corpus_graph
        h = greedy_spanner(g, 3.0)
        memo = g.derived.spanners[3.0]
        again = greedy_spanner(g.copy(), 3.0)
        assert again == h and again is not h and again is not memo
        assert again.derived is h.derived is memo.derived
        h.remove_edge(*next(h.edges()))  # a caller's copy never reaches the memo
        assert greedy_spanner(g, 3.0) == memo != h

    def test_ports_follow_neighbour_order(self, small_corpus_graph):
        h = greedy_spanner(small_corpus_graph, 3.0)
        canonical = h.copy()
        canonical.sort_ports_by_neighbor()
        assert h == canonical

    def test_stretch_one_keeps_all_edges(self, petersen):
        h = greedy_spanner(petersen, 1.0)
        assert sorted(h.edges()) == sorted(petersen.edges())

    def test_spanner_is_subgraph_and_connected_on_corpus(self, small_corpus_graph):
        h = greedy_spanner(small_corpus_graph, 3.0)
        for u, v in h.edges():
            assert small_corpus_graph.has_edge(u, v)
        assert properties.is_connected(h)

    def test_spanner_sparser_on_dense_graphs(self):
        g = generators.complete_graph(20)
        h = greedy_spanner(g, 3.0)
        assert h.num_edges < g.num_edges

    def test_girth_exceeds_stretch_plus_one(self):
        g = generators.complete_graph(12)
        h = greedy_spanner(g, 3.0)
        girth = properties.girth(h)
        assert girth is None or girth > 4

    def test_tree_is_its_own_spanner(self, small_tree):
        h = greedy_spanner(small_tree, 3.0)
        assert sorted(h.edges()) == sorted(small_tree.edges())

    def test_invalid_stretch_rejected(self):
        with pytest.raises(ValueError):
            greedy_spanner(generators.cycle_graph(4), 0.5)

    def test_spanner_stretch_rejects_mismatched_graphs(self):
        with pytest.raises(ValueError):
            spanner_stretch(generators.cycle_graph(4), generators.cycle_graph(5))

    def test_spanner_stretch_inf_when_disconnecting(self):
        from repro.graphs.digraph import PortLabeledGraph

        g = generators.cycle_graph(4)
        h = PortLabeledGraph(4, [(0, 1), (1, 2)])
        assert spanner_stretch(g, h) == float("inf")


class TestCowenLandmark:
    def test_delivery_and_stretch_at_most_three_on_corpus(self, small_corpus_graph):
        # stretch_factor raises unless every pair is delivered, so this
        # subsumes the old per-family delivery tests.
        rf = CowenLandmarkScheme(seed=1).build(small_corpus_graph)
        assert stretch_factor(rf) <= Fraction(3)

    def test_landmark_count_respected(self):
        g = generators.random_connected_graph(30, seed=3)
        rf = CowenLandmarkScheme(num_landmarks=5, seed=1).build(g)
        assert len(rf.landmarks) == 5

    def test_degree_selection_picks_high_degree_vertices(self):
        g = generators.star_graph(12)
        rf = CowenLandmarkScheme(num_landmarks=1, selection="degree").build(g)
        assert rf.landmarks == frozenset({0})

    def test_invalid_selection_rejected(self):
        with pytest.raises(ValueError):
            CowenLandmarkScheme(selection="magic")

    def test_cluster_members_are_closer_than_their_landmark(self, small_corpus_graph):
        from repro.graphs.shortest_paths import distance_matrix

        g = small_corpus_graph
        rf = CowenLandmarkScheme(num_landmarks=4, seed=2).build(g)
        dist = distance_matrix(g)
        for u in g.vertices():
            for v in rf.cluster(u):
                d_to_landmark = min(dist[v, l] for l in rf.landmarks)
                assert dist[u, v] < d_to_landmark

    def test_addresses_reference_nearest_landmark(self, small_corpus_graph):
        from repro.graphs.shortest_paths import distance_matrix

        g = small_corpus_graph
        rf = CowenLandmarkScheme(num_landmarks=3, seed=5).build(g)
        dist = distance_matrix(g)
        for v in g.vertices():
            addr = rf.address(v)
            assert addr.dest == v
            assert dist[v, addr.landmark] == min(dist[v, l] for l in rf.landmarks)

    def test_single_vertex_graph(self):
        from repro.graphs.digraph import PortLabeledGraph

        rf = CowenLandmarkScheme().build(PortLabeledGraph(1))
        assert rf.table_sizes().tolist() == [0]

    def test_rejects_disconnected(self):
        from repro.graphs.digraph import PortLabeledGraph

        with pytest.raises(ValueError):
            CowenLandmarkScheme().build(PortLabeledGraph(4, [(0, 1), (2, 3)]))

    def test_memory_smaller_than_tables_on_larger_graph(self):
        g = generators.random_connected_graph(70, extra_edge_prob=0.1, seed=11)
        landmark_profile = memory_profile(CowenLandmarkScheme(seed=1).build(g))
        table_profile = memory_profile(ShortestPathTableScheme().build(g))
        assert landmark_profile.global_ < table_profile.global_

    def test_address_bits_reported(self):
        g = generators.grid_2d(4, 4)
        rf = CowenLandmarkScheme(seed=0).build(g)
        table_rf = ShortestPathTableScheme().build(g)
        assert address_bits(rf) > address_bits(table_rf)


class TestHierarchicalSpannerScheme:
    def test_stretch_within_guarantee_on_corpus(self, small_corpus_graph):
        scheme = HierarchicalSpannerScheme(spanner_stretch=3.0, seed=1)
        rf = scheme.build(small_corpus_graph)
        assert float(stretch_factor(rf)) <= scheme.stretch_guarantee + 1e-9

    def test_routes_only_use_spanner_edges(self, small_corpus_graph):
        import numpy as np

        g = small_corpus_graph
        rf = HierarchicalSpannerScheme(spanner_stretch=3.0, seed=2).build(g)
        rng = np.random.default_rng(9)
        for _ in range(6):
            source, dest = (int(v) for v in rng.choice(g.n, size=2, replace=False))
            result = route(rf, source, dest)
            assert result.delivered
            for u, v in zip(result.path, result.path[1:]):
                assert rf.spanner.has_edge(u, v)

    def test_table_entries_use_network_ports(self, small_corpus_graph):
        g = small_corpus_graph
        rf = HierarchicalSpannerScheme(spanner_stretch=3.0, seed=3).build(g)
        for x in g.vertices():
            for target, port in rf.table_entries(x).items():
                assert 1 <= port <= g.degree(x)

    def test_stretch_one_spanner_equals_plain_cowen_guarantee(self):
        scheme = HierarchicalSpannerScheme(spanner_stretch=1.0)
        assert scheme.stretch_guarantee == 3.0

    def test_invalid_spanner_stretch_rejected(self):
        with pytest.raises(ValueError):
            HierarchicalSpannerScheme(spanner_stretch=0.9)
