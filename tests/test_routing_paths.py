"""Unit tests for the per-pair router and stretch oracle of ``tests/oracles.py``.

Graph instances come from the shared corpus fixtures of ``conftest.py``
(one seeded instance per generator family) instead of ad-hoc per-test
construction; only graphs whose exact shape the assertion depends on
(specific path lengths on a known grid, a ring with known stretch) are
still built inline or through dedicated fixtures.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from oracles import RoutingLoopError, all_pairs_routing_lengths, route, stretch_factor
from repro.graphs import generators
from repro.routing.model import DELIVER, DestinationBasedRoutingFunction
from repro.routing.tables import ShortestPathTableScheme


class _ClockwiseRingFunction(DestinationBasedRoutingFunction):
    """Always route clockwise on a cycle: a correct but stretched function."""

    def port_to(self, node: int, dest: int) -> int:
        nxt = (node + 1) % self._graph.n
        return self._graph.port(node, nxt)


class _LoopingFunction(DestinationBasedRoutingFunction):
    """Bounce forever between vertices 0 and 1 (never delivers)."""

    def port_to(self, node: int, dest: int) -> int:
        target = 1 if node == 0 else 0
        return self._graph.port(node, target)


class _WrongDeliveryFunction(DestinationBasedRoutingFunction):
    """Deliver immediately at the source regardless of the destination."""

    def port(self, node, header):
        return DELIVER

    def port_to(self, node: int, dest: int) -> int:  # pragma: no cover - unused
        return 1


class TestRouteSimulation:
    def test_route_follows_tables_on_grid(self):
        g = generators.grid_2d(3, 3)
        rf = ShortestPathTableScheme().build(g)
        result = route(rf, 0, 8)
        assert result.delivered
        assert result.path[0] == 0 and result.path[-1] == 8
        assert result.length == 4

    def test_route_source_equals_dest(self):
        g = generators.cycle_graph(4)
        rf = ShortestPathTableScheme().build(g)
        result = route(rf, 2, 2)
        assert result.delivered and result.length == 0

    def test_routing_loop_detected(self):
        g = generators.complete_graph(4)
        rf = _LoopingFunction(g)
        with pytest.raises(RoutingLoopError):
            route(rf, 0, 3)

    def test_loop_error_carries_context(self):
        g = generators.complete_graph(3)
        rf = _LoopingFunction(g)
        try:
            route(rf, 0, 2)
        except RoutingLoopError as exc:
            assert exc.source == 0 and exc.dest == 2
            assert len(exc.partial_path) > 1

    def test_headers_recorded(self):
        g = generators.path_graph(4)
        rf = ShortestPathTableScheme().build(g)
        result = route(rf, 0, 3)
        assert all(h == 3 for h in result.headers)

    def test_invalid_port_raises(self):
        g = generators.path_graph(3)

        class _BadPort(DestinationBasedRoutingFunction):
            def port_to(self, node, dest):
                return 7

        with pytest.raises(ValueError):
            route(_BadPort(g), 0, 2)


class TestStretch:
    def test_tables_have_stretch_one_on_corpus(self, small_corpus_graph):
        rf = ShortestPathTableScheme().build(small_corpus_graph)
        assert stretch_factor(rf) == Fraction(1)

    def test_clockwise_ring_stretch(self, cycle_8):
        rf = _ClockwiseRingFunction(cycle_8)
        # Worst pair: one step counter-clockwise costs 7 hops clockwise.
        assert stretch_factor(rf) == Fraction(7, 1)

    def test_stretch_of_pair_exact_fraction(self, cycle_8):
        rf = _ClockwiseRingFunction(cycle_8)
        assert stretch_factor(rf, pairs=[(0, 6)]) == Fraction(6, 2)

    def test_stretch_of_pair_rejects_same_vertex(self):
        g = generators.cycle_graph(4)
        rf = ShortestPathTableScheme().build(g)
        with pytest.raises(ValueError):
            stretch_factor(rf, pairs=[(1, 1)])

    def test_stretch_over_selected_pairs(self, cycle_8):
        rf = _ClockwiseRingFunction(cycle_8)
        assert stretch_factor(rf, pairs=[(0, 1), (0, 2)]) == Fraction(1)

    def test_all_pairs_routing_lengths_match_distances_for_tables(self, small_corpus_graph):
        from repro.graphs.shortest_paths import distance_matrix

        rf = ShortestPathTableScheme().build(small_corpus_graph)
        lengths = all_pairs_routing_lengths(rf)
        assert (lengths == distance_matrix(small_corpus_graph)).all()

    def test_misdelivery_detected(self):
        g = generators.path_graph(3)
        rf = _WrongDeliveryFunction(g)
        with pytest.raises(ValueError):
            all_pairs_routing_lengths(rf)
