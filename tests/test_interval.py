"""Unit tests for interval routing (cyclic intervals, trees, universal scheme)."""

from __future__ import annotations

from fractions import Fraction

import pytest

from oracles import all_pairs_routing_lengths, stretch_factor
from repro.graphs import generators
from repro.graphs.shortest_paths import distance_matrix
from repro.routing.interval import (
    IntervalRoutingFunction,
    IntervalRoutingScheme,
    TreeIntervalRoutingScheme,
    cyclic_intervals_of_set,
)


class TestCyclicIntervals:
    def test_empty_set(self):
        assert cyclic_intervals_of_set([], 5) == []

    def test_full_set(self):
        assert cyclic_intervals_of_set(range(6), 6) == [(0, 5)]

    def test_contiguous_block(self):
        assert cyclic_intervals_of_set([2, 3, 4], 8) == [(2, 4)]

    def test_wrapping_block(self):
        ivs = cyclic_intervals_of_set([6, 7, 0, 1], 8)
        assert ivs == [(6, 1)]

    def test_two_blocks(self):
        ivs = cyclic_intervals_of_set([0, 1, 4, 5], 8)
        assert sorted(ivs) == [(0, 1), (4, 5)]

    def test_singletons(self):
        ivs = cyclic_intervals_of_set([1, 3, 5], 7)
        assert len(ivs) == 3

    def test_minimality_counts_cyclic_runs(self):
        # [0, 2, 3, 6] in Z_7 has two cyclic runs: {6, 0} (wrapping) and {2, 3}.
        labels = [0, 2, 3, 6]
        ivs = cyclic_intervals_of_set(labels, 7)
        assert len(ivs) == 2
        assert set(ivs) == {(6, 0), (2, 3)}

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            cyclic_intervals_of_set([1, 1], 4)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            cyclic_intervals_of_set([4], 4)

    def test_covers_exactly_input(self):
        labels = [0, 3, 4, 5, 9]
        n = 12
        ivs = cyclic_intervals_of_set(labels, n)
        covered = set()
        for lo, hi in ivs:
            k = lo
            while True:
                covered.add(k)
                if k == hi:
                    break
                k = (k + 1) % n
        assert covered == set(labels)


class TestTreeIntervalRouting:
    def test_one_interval_per_arc(self, small_tree):
        rf = TreeIntervalRoutingScheme().build(small_tree)
        assert rf.max_intervals_per_arc() == 1

    def test_shortest_paths_on_trees(self, small_tree):
        rf = TreeIntervalRoutingScheme().build(small_tree)
        assert stretch_factor(rf) == Fraction(1)
        assert (all_pairs_routing_lengths(rf) == distance_matrix(small_tree)).all()

    def test_various_roots(self):
        tree = generators.binary_tree(3)
        for root in (0, 3, 14):
            rf = TreeIntervalRoutingScheme(root=root).build(tree)
            assert stretch_factor(rf) == Fraction(1)

    def test_rejects_non_tree(self):
        with pytest.raises(ValueError):
            TreeIntervalRoutingScheme().build(generators.cycle_graph(5))

    def test_rejects_bad_root(self):
        with pytest.raises(ValueError):
            TreeIntervalRoutingScheme(root=99).build(generators.random_tree(5, seed=0))

    def test_path_graph_intervals(self):
        rf = TreeIntervalRoutingScheme().build(generators.path_graph(6))
        assert stretch_factor(rf) == Fraction(1)
        # A path vertex has at most 2 arcs, hence at most 2 intervals.
        assert all(rf.num_intervals(v) <= 2 for v in range(6))

    def test_star_graph(self):
        rf = TreeIntervalRoutingScheme().build(generators.star_graph(7))
        assert stretch_factor(rf) == Fraction(1)


class TestUniversalIntervalRouting:
    def test_shortest_paths_on_arbitrary_graphs(self):
        graphs = [
            generators.petersen_graph(),
            generators.grid_2d(3, 4),
            generators.random_connected_graph(14, extra_edge_prob=0.2, seed=9),
            generators.outerplanar_graph(10, 4, seed=1),
        ]
        for g in graphs:
            rf = IntervalRoutingScheme().build(g)
            assert stretch_factor(rf) == Fraction(1)

    def test_local_map_matches_interval_lookup(self, small_random_graph):
        rf = IntervalRoutingScheme().build(small_random_graph)
        for x in small_random_graph.vertices():
            local = rf.local_map(x)
            for dest, port in local.items():
                assert 1 <= port <= small_random_graph.degree(x)

    def test_labeling_is_bijection(self, grid_4x4):
        rf = IntervalRoutingScheme().build(grid_4x4)
        labels = [rf.label_of(v) for v in grid_4x4.vertices()]
        assert sorted(labels) == list(range(grid_4x4.n))
        for v in grid_4x4.vertices():
            assert rf.vertex_of_label(rf.label_of(v)) == v

    def test_few_intervals_on_ring(self):
        rf = IntervalRoutingScheme().build(generators.cycle_graph(12))
        assert rf.max_intervals_per_arc() <= 2

    def test_rejects_disconnected(self):
        from repro.graphs.digraph import PortLabeledGraph

        with pytest.raises(ValueError):
            IntervalRoutingScheme().build(PortLabeledGraph(4, [(0, 1), (2, 3)]))

    def test_missing_label_raises(self):
        g = generators.cycle_graph(4)
        rf = IntervalRoutingScheme().build(g)
        with pytest.raises(ValueError):
            # Port lookup for the node's own label is a DELIVER, but a label
            # outside 0..n-1 cannot be covered by any interval.
            rf.port(0, 99)


class TestIntervalRoutingFunctionValidation:
    def test_overlapping_intervals_rejected(self):
        g = generators.path_graph(3)
        labeling = {0: 0, 1: 1, 2: 2}
        bad = {
            0: {1: [(1, 2), (2, 2)]},
            1: {1: [(0, 0)], 2: [(2, 2)]},
            2: {1: [(0, 1)]},
        }
        with pytest.raises(ValueError):
            IntervalRoutingFunction(g, labeling, bad)

    def test_uncovered_label_rejected(self):
        g = generators.path_graph(3)
        labeling = {0: 0, 1: 1, 2: 2}
        bad = {
            0: {1: [(1, 1)]},  # label 2 is never covered
            1: {1: [(0, 0)], 2: [(2, 2)]},
            2: {1: [(0, 1)]},
        }
        with pytest.raises(ValueError):
            IntervalRoutingFunction(g, labeling, bad)

    def test_non_bijective_labeling_rejected(self):
        g = generators.path_graph(3)
        with pytest.raises(ValueError):
            IntervalRoutingFunction(g, {0: 0, 1: 0, 2: 2}, {})

    def test_explicit_intervals_round_trip(self, small_tree):
        rf = TreeIntervalRoutingScheme().build(small_tree)
        labeling = {v: rf.label_of(v) for v in small_tree.vertices()}
        again = IntervalRoutingFunction(
            small_tree, labeling, {x: rf.intervals_at(x) for x in small_tree.vertices()}
        )
        for x in small_tree.vertices():
            assert again.intervals_at(x) == rf.intervals_at(x)

    def test_adjacent_intervals_of_one_port_are_one_run(self):
        # Explicit intervals expand into the port matrix, whose maximal
        # cyclic runs are what the function stores and counts.
        g = generators.path_graph(4)
        labeling = {v: v for v in range(4)}
        intervals = {
            0: {1: [(1, 2), (3, 3)]},
            1: {1: [(0, 0)], 2: [(2, 3)]},
            2: {1: [(0, 1)], 2: [(3, 3)]},
            3: {1: [(0, 2)]},
        }
        rf = IntervalRoutingFunction(g, labeling, intervals)
        assert rf.intervals_at(0) == {1: ((1, 3),)}
        assert rf.num_intervals(0) == 1

    def test_interval_counts(self, small_tree):
        rf = TreeIntervalRoutingScheme().build(small_tree)
        total = sum(rf.num_intervals(v) for v in small_tree.vertices())
        assert total == 2 * small_tree.num_edges
