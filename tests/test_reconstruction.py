"""Unit tests for the executable reconstruction argument of Theorem 1."""

from __future__ import annotations

import pytest

from repro.constraints.builder import build_constraint_graph
from repro.constraints.lower_bound import worst_case_network
from repro.constraints.matrix import EXACT_LIMIT, ConstraintMatrix, canonical_form_greedy
from repro.constraints.reconstruction import (
    decode_witness,
    encode_witness,
    query_constrained_ports,
    reconstruct_matrix,
    verify_reconstruction,
)
from repro.routing.interval import IntervalRoutingScheme
from repro.routing.model import TableRoutingFunction
from repro.routing.tables import ShortestPathTableScheme, shortest_path_ports


class TestWitness:
    def test_query_records_first_ports(self):
        m = ConstraintMatrix.random(3, 4, 3, seed=1)
        cg = build_constraint_graph(m)
        rf = ShortestPathTableScheme().build(cg.graph)
        witness = query_constrained_ports(rf, cg.constrained, cg.targets)
        assert witness.ports == cg.matrix.entries

    def test_encode_decode_roundtrip(self):
        m = ConstraintMatrix.random(4, 5, 3, seed=2)
        cg = build_constraint_graph(m, pad_to_order=40)
        rf = ShortestPathTableScheme().build(cg.graph)
        witness = query_constrained_ports(rf, cg.constrained, cg.targets)
        assert decode_witness(encode_witness(witness)) == witness

    def test_witness_bits_scale_with_pq(self):
        small = ConstraintMatrix.random(2, 3, 2, seed=3)
        large = ConstraintMatrix.random(4, 8, 3, seed=3)
        cg_small = build_constraint_graph(small)
        cg_large = build_constraint_graph(large)
        w_small = query_constrained_ports(
            ShortestPathTableScheme().build(cg_small.graph), cg_small.constrained, cg_small.targets
        )
        w_large = query_constrained_ports(
            ShortestPathTableScheme().build(cg_large.graph), cg_large.constrained, cg_large.targets
        )
        assert len(encode_witness(w_large)) > len(encode_witness(w_small))


class TestReconstruction:
    def test_reconstruction_from_tables(self):
        m = ConstraintMatrix.random(3, 5, 3, seed=4)
        cg = build_constraint_graph(m)
        rf = ShortestPathTableScheme().build(cg.graph)
        witness = query_constrained_ports(rf, cg.constrained, cg.targets)
        assert reconstruct_matrix(witness).entries == cg.matrix.canonical().entries

    def test_reconstruction_from_interval_routing(self):
        # A different stretch-1 universal scheme must yield the same matrix.
        m = ConstraintMatrix.random(3, 4, 3, seed=5)
        cg = build_constraint_graph(m)
        rf = IntervalRoutingScheme().build(cg.graph)
        witness = query_constrained_ports(rf, cg.constrained, cg.targets)
        assert reconstruct_matrix(witness).entries == cg.matrix.canonical().entries

    def test_reconstruction_invariant_under_port_relabelling(self):
        # Relabel the ports of a constrained vertex: the routing function's
        # answers change but the canonical matrix does not.
        m = ConstraintMatrix.from_entries([[1, 2, 3], [1, 2, 1]])
        cg = build_constraint_graph(m)
        reference = cg.matrix.canonical().entries

        a0 = cg.constrained[0]
        ports = cg.graph.ports(a0)
        cg.graph.relabel_ports(a0, {p: ports[(i + 1) % len(ports)] for i, p in enumerate(ports)})
        rf = ShortestPathTableScheme().build(cg.graph)
        witness = query_constrained_ports(rf, cg.constrained, cg.targets)
        assert reconstruct_matrix(witness).entries == reference

    def test_verify_reconstruction_end_to_end(self):
        m = ConstraintMatrix.random(4, 6, 3, seed=6)
        cg = build_constraint_graph(m, pad_to_order=50)
        rf = ShortestPathTableScheme().build(cg.graph)
        assert verify_reconstruction(cg, rf, check_route_validity=True)

    def test_route_validity_check_returns_false_on_a_livelock(self):
        cg = build_constraint_graph(ConstraintMatrix.random(2, 3, 2, seed=1))
        graph = cg.graph
        ports = shortest_path_ports(graph, "lowest_port").copy()
        # Middle vertex 2 sends target 6 back to constrained vertex 0, which
        # forwards it to 2 again: the first-hop answers are untouched, so
        # only the route check can see the livelock.
        ports[2, 6] = graph.port(2, 0)
        rf = TableRoutingFunction(graph, ports)
        assert verify_reconstruction(cg, rf)
        assert verify_reconstruction(cg, rf, check_route_validity=True) is False

    def test_verify_reconstruction_on_theorem1_instance(self):
        cg = worst_case_network(90, 0.5, seed=7)
        rf = ShortestPathTableScheme().build(cg.graph)
        assert verify_reconstruction(cg, rf)

    def test_verify_rejects_foreign_graph(self):
        m = ConstraintMatrix.random(2, 3, 2, seed=8)
        cg = build_constraint_graph(m)
        other = build_constraint_graph(ConstraintMatrix.random(2, 3, 2, seed=9))
        rf = ShortestPathTableScheme().build(other.graph)
        with pytest.raises(ValueError):
            verify_reconstruction(cg, rf)

    def test_beyond_the_exact_limit_reconstructs_the_greedy_representative(self):
        m = ConstraintMatrix.random(2, EXACT_LIMIT + 1, 2, seed=10)
        cg = build_constraint_graph(m)
        rf = ShortestPathTableScheme().build(cg.graph)
        witness = query_constrained_ports(rf, cg.constrained, cg.targets)
        greedy = canonical_form_greedy(witness.ports)
        assert reconstruct_matrix(witness).entries == ConstraintMatrix.from_entries(greedy).entries
        assert verify_reconstruction(cg, rf)
