"""Unit tests for memory profiles and the closed-form Table 1 bounds."""

from __future__ import annotations

import math

import pytest

from oracles import RawTableCoder, coded_memory_profile, coded_program_memory_profile
from repro.analysis.runner import scheme_fingerprint
from repro.graphs import generators
from repro.memory import bounds
from repro.memory.coder import TABLE_CODERS
from repro.memory.requirement import address_bits, memory_profile, program_memory_profile
from repro.routing.ecube import ECubeRoutingScheme
from repro.routing.landmark import CowenLandmarkScheme
from repro.routing.program import MISDELIVER, GenericProgram, compile_or_interpret
from repro.routing.tables import ShortestPathTableScheme
from repro.routing.interval import TreeIntervalRoutingScheme
from repro.sim.faults import FaultSet, apply_faults
from repro.sim.registry import graph_families, scheme_registry


class TestMemoryProfile:
    def test_profile_shapes(self, small_random_graph):
        rf = ShortestPathTableScheme().build(small_random_graph)
        profile = memory_profile(rf)
        assert profile.bits_per_node.shape == (small_random_graph.n,)
        assert len(profile.coder_per_node) == small_random_graph.n
        assert profile.local == profile.bits_per_node.max()
        assert profile.global_ == profile.bits_per_node.sum()
        assert profile.mean == pytest.approx(profile.global_ / small_random_graph.n)

    def test_top_nodes_sorted(self, small_random_graph):
        rf = ShortestPathTableScheme().build(small_random_graph)
        profile = memory_profile(rf)
        top = profile.top_nodes(3)
        assert len(top) == 3
        assert top[0][1] >= top[1][1] >= top[2][1]

    def test_table_profile_names_table_coders(self, grid_4x4):
        profile = memory_profile(ShortestPathTableScheme().build(grid_4x4))
        assert (profile.bits_per_node > 0).all()
        assert set(profile.coder_per_node) <= set(TABLE_CODERS)

    def test_ecube_profile_is_parametric_and_beats_raw_table(self):
        g = generators.hypercube(4)
        rf = ECubeRoutingScheme().build(g)
        profile = memory_profile(rf)
        assert set(profile.coder_per_node) == {"parametric"}
        for x in g.vertices():
            raw = RawTableCoder().encode(x, g.n, g.degree(x), rf.local_map(x))
            assert profile.bits_per_node[x] < raw.bits

    def test_landmark_profile_uses_entry_lists(self):
        g = generators.random_connected_graph(40, extra_edge_prob=0.1, seed=4)
        rf = CowenLandmarkScheme(seed=2).build(g)
        profile = memory_profile(rf)
        assert set(profile.coder_per_node) == {"entry-list"}

    def test_unmeasurable_function_rejected(self):
        from repro.routing.model import RoutingFunction

        class _Opaque(RoutingFunction):
            def initial_header(self, source, dest):
                return dest

            def port(self, node, header):
                return 0

        g = generators.path_graph(3)
        with pytest.raises(TypeError):
            memory_profile(_Opaque(g))

    def test_tree_interval_routing_is_cheap(self, small_tree):
        interval_profile = memory_profile(TreeIntervalRoutingScheme().build(small_tree))
        table_profile = memory_profile(ShortestPathTableScheme().build(small_tree))
        assert interval_profile.global_ <= table_profile.global_


def _assert_same_profile(got, want):
    assert got.bits_per_node.dtype == want.bits_per_node.dtype
    assert got.bits_per_node.tobytes() == want.bits_per_node.tobytes()
    assert got.coder_per_node == want.coder_per_node


@pytest.fixture(scope="session")
def raced_cells():
    """``(scheme fp, graph fp) -> built`` for every cell raced this session.

    The registry grids overlap (seeds share families and seed-free
    schemes), so each distinct cell is raced once, by the first test that
    meets it.
    """
    return {}


def _assert_profiles_match_oracle(schemes, families, raced):
    """Both profiles of every cell equal the bit-writing oracles'."""
    grid = []
    for scheme in schemes.values():
        for graph in families.values():
            cell = (scheme_fingerprint(scheme), graph.fingerprint())
            grid.append(cell)
            if cell in raced:
                continue
            try:
                rf = scheme.build(graph.copy())
            except ValueError:
                raced[cell] = False
                continue
            program = compile_or_interpret(rf)
            _assert_same_profile(
                memory_profile(rf, program=program), coded_memory_profile(rf, program=program)
            )
            if not isinstance(program, GenericProgram):
                _assert_same_profile(
                    program_memory_profile(program, rf.graph),
                    coded_program_memory_profile(program, rf.graph),
                )
            raced[cell] = True
    assert any(raced[cell] for cell in grid)


class TestProfilesMatchOracle:
    @pytest.mark.parametrize("seed", [0, 11])
    @pytest.mark.parametrize("size", ["small", "medium"])
    def test_every_registry_cell(self, size, seed, raced_cells):
        _assert_profiles_match_oracle(
            scheme_registry(seed=seed), graph_families(size, seed=seed), raced_cells
        )

    def test_n256_grid(self, raced_cells):
        # The n = 256 grid of the pipeline benchmark: three families, six schemes.
        names = (
            "tables-lowest-port",
            "tables-highest-port",
            "landmark-sqrt",
            "landmark-rewriting",
            "interval",
            "spanner3-landmark",
        )
        registry = scheme_registry(seed=0)
        families = {
            "hypercube": generators.hypercube(8),
            "torus": generators.torus_2d(16, 16),
            "random-sparse": generators.random_connected_graph(256, extra_edge_prob=0.01, seed=0),
        }
        _assert_profiles_match_oracle(
            {name: registry[name] for name in names}, families, raced_cells
        )

    def test_profile_without_program_compiles_one(self, grid_4x4):
        rf = ShortestPathTableScheme().build(grid_4x4)
        _assert_same_profile(memory_profile(rf), coded_memory_profile(rf))
        _assert_same_profile(memory_profile(rf), memory_profile(rf, program=rf.compile_program()))


class TestBrokenArtifactsRejected:
    def test_misdelivery_row_raises(self, grid_4x4):
        rf = ShortestPathTableScheme().build(grid_4x4)
        next_node = rf.compile_program().next_node.copy()
        next_node[5, 9] = MISDELIVER
        broken = rf.compile_program().with_next_node(next_node)
        with pytest.raises(ValueError, match="misdelivery at node 5 for destination 9"):
            program_memory_profile(broken, grid_4x4)
        with pytest.raises(ValueError, match="misdelivery at node 5 for destination 9"):
            memory_profile(rf, program=broken)

    def test_masked_drop_raises(self, grid_4x4):
        rf = ShortestPathTableScheme().build(grid_4x4)
        masked = apply_faults(rf.compile_program(), grid_4x4, FaultSet.from_edges([(0, 1)]))
        with pytest.raises(ValueError, match="no table row"):
            program_memory_profile(masked, grid_4x4)
        with pytest.raises(ValueError, match="no table row"):
            memory_profile(rf, program=masked)
        rewriting = scheme_registry(seed=0)["landmark-rewriting"].build(grid_4x4.copy())
        masked = apply_faults(
            rewriting.compile_program(), rewriting.graph, FaultSet.from_edges([(0, 1)])
        )
        with pytest.raises(ValueError, match="no state slice"):
            program_memory_profile(masked, rewriting.graph)

    def test_generic_program_raises_type_error(self, grid_4x4):
        rf = ShortestPathTableScheme().build(grid_4x4)
        with pytest.raises(TypeError, match="opt-out"):
            memory_profile(rf, program=GenericProgram(num_vertices=grid_4x4.n))


class TestAddressBits:
    def test_plain_tables_use_log_n(self, grid_4x4):
        rf = ShortestPathTableScheme().build(grid_4x4)
        assert address_bits(rf) == 4

    def test_landmark_addresses_cost_more(self):
        g = generators.grid_2d(4, 4)
        rf = CowenLandmarkScheme(seed=0).build(g)
        assert address_bits(rf) > 4


class TestBoundFormulas:
    def test_routing_table_bounds_monotone(self):
        values = [bounds.routing_table_local_upper(n) for n in (8, 16, 32, 64)]
        assert values == sorted(values)
        assert bounds.routing_table_global_upper(16) == 16 * bounds.routing_table_local_upper(16)

    def test_trivial_sizes(self):
        assert bounds.routing_table_local_upper(1) == 0.0
        assert bounds.hypercube_local_upper(2) == 1
        assert bounds.complete_graph_adversarial_local(2) == 0.0
        assert bounds.shortest_path_local_lower(3) == 0.0

    def test_adversarial_complete_graph_is_log_factorial(self):
        n = 16
        assert bounds.complete_graph_adversarial_local(n) == pytest.approx(
            math.log2(math.factorial(n - 1)), rel=1e-9
        )

    def test_theorem1_closed_form_shape(self):
        # Larger eps -> more constrained routers -> smaller per-router bound.
        n = 4096
        assert bounds.stretch_below_2_local_lower(n, 0.25) > bounds.stretch_below_2_local_lower(n, 0.75)
        assert bounds.stretch_below_2_local_lower(n, 1.5) == 0.0

    def test_global_lower_bounds_grow_quadratically(self):
        assert bounds.stretch_below_2_global_lower(200) == pytest.approx(4 * bounds.stretch_below_2_global_lower(100))

    def test_peleg_upfal_decreases_with_stretch(self):
        n = 1000
        assert bounds.peleg_upfal_global_lower(n, 1) > bounds.peleg_upfal_global_lower(n, 5)
        assert bounds.peleg_upfal_global_lower(n, 5) > bounds.peleg_upfal_global_lower(n, 20)

    def test_large_stretch_upper_decreases_with_stretch(self):
        n = 1000
        assert bounds.large_stretch_global_upper(n, 3) >= bounds.large_stretch_global_upper(n, 9)

    def test_landmark_upper_between_log_and_table(self):
        n = 4096
        assert bounds.hypercube_local_upper(n) < bounds.landmark_scheme_local_upper(n)
        assert bounds.landmark_scheme_local_upper(n) < bounds.routing_table_local_upper(n)

    def test_table1_rows_cover_all_stretches(self):
        rows = bounds.table1_rows()
        assert rows[0].stretch_range == (1.0, 1.0)
        assert rows[-1].stretch_range[1] == float("inf")
        # Ranges (after the s=1 row) tile [1, inf) without gaps.
        for earlier, later in zip(rows[1:], rows[2:]):
            assert earlier.stretch_range[1] == later.stretch_range[0]

    def test_table1_rows_lower_below_upper(self):
        n = 2048
        for row in bounds.table1_rows():
            assert row.local_lower(n) <= row.local_upper(n) * 1.01
            assert row.global_lower(n) <= row.global_upper(n) * 1.01
