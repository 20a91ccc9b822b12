"""Unit tests for e-cube routing and the complete-graph labellings (Section 1 examples)."""

from __future__ import annotations

from fractions import Fraction

import pytest

from oracles import all_pairs_routing_lengths, stretch_factor
from repro.graphs import generators
from repro.memory.requirement import memory_profile
from repro.routing.complete import AdversarialCompleteGraphScheme, ModularCompleteGraphScheme
from repro.routing.ecube import ECubeRoutingScheme
from repro.graphs.shortest_paths import distance_matrix


class TestECube:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_shortest_paths(self, dim):
        g = generators.hypercube(dim)
        rf = ECubeRoutingScheme().build(g)
        assert stretch_factor(rf) == Fraction(1)

    def test_routing_lengths_are_hamming_distances(self):
        g = generators.hypercube(4)
        rf = ECubeRoutingScheme().build(g)
        lengths = all_pairs_routing_lengths(rf)
        for u in g.vertices():
            for v in g.vertices():
                assert lengths[u, v] == bin(u ^ v).count("1")

    def test_parametric_memory_is_logarithmic(self):
        for dim in (3, 5, 7):
            g = generators.hypercube(dim)
            rf = ECubeRoutingScheme().build(g)
            assert rf.parametric_description_bits() == dim

    def test_memory_profile_uses_parametric_description(self):
        g = generators.hypercube(4)
        rf = ECubeRoutingScheme().build(g)
        profile = memory_profile(rf)
        assert profile.local == 4
        assert all(name == "parametric" for name in profile.coder_per_node)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            ECubeRoutingScheme().build(generators.cycle_graph(6))

    def test_rejects_non_hypercube_of_right_size(self):
        with pytest.raises(ValueError):
            ECubeRoutingScheme().build(generators.cycle_graph(8))

    def test_rejects_non_canonical_port_labelling(self):
        g = generators.hypercube(3)
        # Swap two ports of vertex 0: the closed-form rule no longer matches.
        g.relabel_ports(0, {1: 2, 2: 1, 3: 3})
        with pytest.raises(ValueError):
            ECubeRoutingScheme().build(g)

    def test_port_to_rejects_self(self):
        g = generators.hypercube(3)
        rf = ECubeRoutingScheme().build(g)
        with pytest.raises(ValueError):
            rf.port_to(3, 3)


class TestCompleteGraphSchemes:
    def test_modular_scheme_routes_directly(self):
        g = generators.complete_graph(9)
        rf = ModularCompleteGraphScheme().build(g)
        assert stretch_factor(rf) == Fraction(1)
        assert (all_pairs_routing_lengths(rf) == distance_matrix(g)).all()

    def test_modular_port_rule_matches_labels(self):
        g = generators.complete_graph(7)
        ModularCompleteGraphScheme().build(g)
        for x in g.vertices():
            for v in g.vertices():
                if v != x:
                    assert g.port(x, v) == (v - x) % 7

    def test_modular_memory_is_logarithmic(self):
        g = generators.complete_graph(32)
        rf = ModularCompleteGraphScheme().build(g)
        profile = memory_profile(rf)
        assert profile.local <= 6

    def test_adversarial_scheme_routes_directly(self):
        g = generators.complete_graph(8)
        rf = AdversarialCompleteGraphScheme(seed=1).build(g)
        assert stretch_factor(rf) == Fraction(1)

    def test_adversarial_memory_much_larger_than_modular(self):
        n = 32
        good = memory_profile(ModularCompleteGraphScheme().build(generators.complete_graph(n)))
        bad = memory_profile(
            AdversarialCompleteGraphScheme(seed=3).build(generators.complete_graph(n))
        )
        assert bad.local > 10 * good.local

    def test_adversarial_is_deterministic_with_seed(self):
        g1 = generators.complete_graph(8)
        g2 = generators.complete_graph(8)
        AdversarialCompleteGraphScheme(seed=5).build(g1)
        AdversarialCompleteGraphScheme(seed=5).build(g2)
        assert g1 == g2

    def test_schemes_reject_non_complete_graphs(self):
        with pytest.raises(ValueError):
            ModularCompleteGraphScheme().build(generators.cycle_graph(5))
        with pytest.raises(ValueError):
            AdversarialCompleteGraphScheme().build(generators.path_graph(4))
