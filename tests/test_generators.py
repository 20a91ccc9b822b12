"""Unit tests for the graph generators."""

from __future__ import annotations

import pytest

from repro.graphs import generators, properties


class TestBasicFamilies:
    def test_path_graph(self):
        g = generators.path_graph(6)
        assert g.n == 6 and g.num_edges == 5
        assert properties.is_tree(g)

    def test_path_graph_single_vertex(self):
        assert generators.path_graph(1).n == 1

    def test_path_graph_rejects_zero(self):
        with pytest.raises(ValueError):
            generators.path_graph(0)

    def test_cycle_graph(self):
        g = generators.cycle_graph(7)
        assert g.num_edges == 7
        assert properties.is_cycle(g)

    def test_cycle_rejects_small(self):
        with pytest.raises(ValueError):
            generators.cycle_graph(2)

    def test_star_graph(self):
        g = generators.star_graph(8)
        assert g.degree(0) == 7
        assert properties.is_tree(g)

    def test_complete_graph(self):
        g = generators.complete_graph(6)
        assert g.num_edges == 15
        assert properties.is_complete(g)
        assert properties.diameter(g) == 1

    def test_complete_bipartite(self):
        g = generators.complete_bipartite_graph(3, 4)
        assert g.n == 7 and g.num_edges == 12
        bip, _ = properties.is_bipartite(g)
        assert bip

    def test_complete_bipartite_rejects_empty_part(self):
        with pytest.raises(ValueError):
            generators.complete_bipartite_graph(0, 3)


class TestHypercube:
    def test_sizes(self):
        for dim in range(5):
            g = generators.hypercube(dim)
            assert g.n == 2 ** dim
            assert g.num_edges == dim * 2 ** (dim - 1) if dim else g.num_edges == 0

    def test_canonical_port_labelling(self):
        g = generators.hypercube(4)
        for u in g.vertices():
            for k in range(1, 5):
                assert g.neighbor_at_port(u, k) == u ^ (1 << (k - 1))

    def test_recognised_by_predicate(self):
        assert properties.is_hypercube(generators.hypercube(3))

    def test_diameter_equals_dimension(self):
        assert properties.diameter(generators.hypercube(4)) == 4

    def test_negative_dimension_rejected(self):
        with pytest.raises(ValueError):
            generators.hypercube(-1)


class TestGridTorusPetersen:
    def test_grid_structure(self):
        g = generators.grid_2d(3, 5)
        assert g.n == 15
        assert g.num_edges == 3 * 4 + 5 * 2
        assert properties.diameter(g) == 2 + 4

    def test_grid_rejects_zero(self):
        with pytest.raises(ValueError):
            generators.grid_2d(0, 3)

    def test_torus_is_regular(self):
        g = generators.torus_2d(4, 5)
        assert all(g.degree(v) == 4 for v in g.vertices())

    def test_torus_rejects_small_side(self):
        with pytest.raises(ValueError):
            generators.torus_2d(2, 5)

    def test_petersen_invariants(self):
        g = generators.petersen_graph()
        assert g.n == 10 and g.num_edges == 15
        assert all(g.degree(v) == 3 for v in g.vertices())
        assert properties.girth(g) == 5
        assert properties.diameter(g) == 2


class TestTrees:
    def test_binary_tree(self):
        g = generators.binary_tree(3)
        assert g.n == 15
        assert properties.is_tree(g)

    def test_random_tree_is_tree(self):
        for seed in range(5):
            g = generators.random_tree(20, seed=seed)
            assert properties.is_tree(g)

    def test_random_tree_small_sizes(self):
        assert generators.random_tree(1).n == 1
        assert generators.random_tree(2).num_edges == 1
        assert properties.is_tree(generators.random_tree(3, seed=0))

    def test_random_tree_deterministic_with_seed(self):
        a = generators.random_tree(15, seed=3)
        b = generators.random_tree(15, seed=3)
        assert sorted(a.edges()) == sorted(b.edges())

    def test_caterpillar(self):
        g = generators.caterpillar_tree(4, 2)
        assert g.n == 12
        assert properties.is_tree(g)

    def test_caterpillar_rejects_bad_args(self):
        with pytest.raises(ValueError):
            generators.caterpillar_tree(0, 2)


class TestStructuredClasses:
    def test_outerplanar_is_outerplanar(self):
        for seed in range(3):
            g = generators.outerplanar_graph(12, extra_chords=5, seed=seed)
            assert properties.is_connected(g)
            assert properties.is_outerplanar(g)

    def test_outerplanar_rejects_tiny(self):
        with pytest.raises(ValueError):
            generators.outerplanar_graph(2)

    def test_interval_graph_from_intervals(self):
        g = generators.interval_graph_from_intervals([(0, 1), (0.5, 2), (3, 4)])
        assert g.has_edge(0, 1)
        assert not g.has_edge(0, 2)
        assert not g.has_edge(1, 2)

    def test_interval_graph_rejects_negative_length(self):
        with pytest.raises(ValueError):
            generators.interval_graph_from_intervals([(1, 0)])

    def test_random_interval_graph_is_chordal(self):
        g = generators.random_interval_graph(15, seed=2)
        assert properties.is_chordal(g)

    def test_unit_circular_arc_graph(self):
        g = generators.unit_circular_arc_graph(12, arc_fraction=0.4, seed=1)
        assert g.n == 12

    def test_unit_circular_arc_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            generators.unit_circular_arc_graph(5, arc_fraction=1.5)

    def test_random_chordal_graph_is_chordal_and_connected(self):
        for seed in range(3):
            g = generators.random_chordal_graph(15, extra_edges=2, seed=seed)
            assert properties.is_connected(g)
            assert properties.is_chordal(g)


class TestRandomFamilies:
    def test_random_connected_graph_is_connected(self):
        for seed in range(4):
            g = generators.random_connected_graph(25, extra_edge_prob=0.05, seed=seed)
            assert properties.is_connected(g)

    def test_random_connected_graph_prob_validation(self):
        with pytest.raises(ValueError):
            generators.random_connected_graph(10, extra_edge_prob=1.5)

    def test_random_regular_graph(self):
        g = generators.random_regular_graph(12, 3, seed=1)
        assert all(g.degree(v) == 3 for v in g.vertices())
        assert properties.is_connected(g)

    def test_random_regular_graph_rejects_odd_product(self):
        with pytest.raises(ValueError):
            generators.random_regular_graph(5, 3)

    def test_expander_is_connected_small_diameter(self):
        g = generators.butterfly_like_expander(32, seed=0)
        assert properties.is_connected(g)
        assert properties.diameter(g) <= 10

    def test_expander_rejects_tiny(self):
        with pytest.raises(ValueError):
            generators.butterfly_like_expander(3)

    def test_all_generators_have_canonical_port_range(self):
        graphs = [
            generators.cycle_graph(5),
            generators.grid_2d(3, 3),
            generators.random_tree(10, seed=1),
            generators.random_connected_graph(10, seed=1),
            generators.outerplanar_graph(8, 2, seed=1),
        ]
        for g in graphs:
            g.check_port_consistency()
