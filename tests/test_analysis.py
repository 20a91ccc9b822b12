"""Unit tests for the experiment drivers (Table 1 and E2–E8 runners)."""

from __future__ import annotations

from repro.analysis.experiments import (
    eq2_enumeration_experiment,
    figure1_experiment,
    lemma1_experiment,
    lemma2_experiment,
    special_graphs_experiment,
    stretch_tradeoff_experiment,
    theorem1_experiment,
)
from repro.analysis.runner import ShardedRunner
from repro.analysis.table1 import format_table1, measure_scheme
from repro.graphs import generators
from repro.routing.tables import ShortestPathTableScheme


def _table1(graphs, **kwargs):
    """Table 1 rows measured by a serial in-memory runner."""
    rows, _ = ShardedRunner(processes=1).table1_report(graphs, **kwargs)
    return rows


class TestTable1Driver:
    def test_measure_scheme_fields(self):
        g = generators.grid_2d(3, 4)
        m = measure_scheme(ShortestPathTableScheme(), g, graph_name="grid")
        assert m.scheme == "routing-tables"
        assert m.graph_name == "grid"
        assert m.n == 12
        assert m.stretch == 1.0
        assert m.local_bits > 0 and m.global_bits >= m.local_bits

    def test_table1_report_groups_by_stretch(self):
        graphs = [
            ("grid", generators.grid_2d(3, 4)),
            ("random", generators.random_connected_graph(16, extra_edge_prob=0.15, seed=1)),
        ]
        rows = _table1(graphs)
        assert len(rows) == 6
        # Stretch-1 schemes land in the first (s = 1) row.
        stretch_one_row = rows[0]
        assert any(m.scheme == "routing-tables" for m in stretch_one_row.measurements)
        # Every measurement lands in exactly one row.
        total = sum(len(r.measurements) for r in rows)
        assert total >= 4

    def test_partial_schemes_are_skipped_not_fatal(self):
        from repro.routing.ecube import ECubeRoutingScheme

        rows = _table1(
            [("ring", generators.cycle_graph(8))],
            schemes=[ShortestPathTableScheme(), ECubeRoutingScheme()],
        )
        assert any(m.scheme == "routing-tables" for row in rows for m in row.measurements)

    def test_format_table1_renders_all_rows(self):
        rows = _table1([("grid", generators.grid_2d(3, 3))])
        text = format_table1(rows)
        assert "stretch range" in text
        assert "s = 1" in text
        assert "routing-tables" in text

    def test_reference_n_defaults_to_largest_graph(self):
        rows = _table1([("grid", generators.grid_2d(3, 3))], reference_n=None)
        explicit = _table1([("grid", generators.grid_2d(3, 3))], reference_n=9)
        assert rows[0].local_upper_bound == explicit[0].local_upper_bound


class TestExperimentRunners:
    def test_figure1_experiment(self):
        result = figure1_experiment()
        assert result["verified_at_shortest_path"]
        assert result["verified_below_stretch_1_5"]
        assert len(result["rows"]) == 5

    def test_eq2_enumeration_experiment(self):
        result = eq2_enumeration_experiment()
        assert result["count"] == 7
        assert result["count"] >= result["lemma1_bound"]
        assert len(result["representatives"]) == 7

    def test_lemma1_experiment(self):
        rows = lemma1_experiment(cases=[(2, 2, 2), (2, 3, 3)])
        assert len(rows) == 2
        assert all(row["bound_holds"] == 1.0 for row in rows)

    def test_lemma2_experiment(self):
        rows = lemma2_experiment(cases=[(2, 3, 2), (3, 4, 3)])
        assert all(row["within_bound"] for row in rows)
        assert all(row["is_constraint_matrix_below_stretch_2"] for row in rows)

    def test_theorem1_experiment_small(self):
        rows = theorem1_experiment(sizes=[64, 128], eps_values=[0.5], build_instances_up_to=128)
        assert len(rows) == 2
        for row in rows:
            assert row["lower_bound_per_router_bits"] >= 0
            assert row["reconstruction_ok"]
            assert row["measured_constrained_total_bits"] > 0

    def test_theorem1_experiment_skips_large_instances(self):
        rows = theorem1_experiment(sizes=[512], eps_values=[0.5], build_instances_up_to=100)
        assert "measured_constrained_total_bits" not in rows[0]

    def test_special_graphs_experiment(self):
        # Reduced grids keep the unit test fast; the full extended defaults
        # (hypercube dim 9, K_128, 255-vertex trees) are the benchmark's job
        # (bench_special_graphs.py, through the sharded runner cache).
        rows = special_graphs_experiment(
            hypercube_dims=(3, 4, 5),
            complete_sizes=(8, 16, 32),
            tree_sizes=(15, 31, 63),
            outerplanar_sizes=(16, 32),
        )
        families = {row["family"] for row in rows}
        assert families == {"hypercube", "complete", "tree", "outerplanar"}
        assert all(row["stretch"] == 1.0 for row in rows)
        hyper = [r for r in rows if r["family"] == "hypercube"]
        assert all(r["local_bits"] <= r["bound_bits"] for r in hyper)
        modular = [r for r in rows if r["scheme"] == "modular-labeling"]
        adversarial = [r for r in rows if r["scheme"] == "adversarial-labeling"]
        for good, bad in zip(modular, adversarial):
            assert bad["local_bits"] > good["local_bits"]

    def test_stretch_tradeoff_experiment(self):
        rows = stretch_tradeoff_experiment(n=80, seed=2)
        by_name = {row["scheme"]: row for row in rows}
        assert by_name["tables"]["stretch"] == 1.0
        assert by_name["landmark-sqrt"]["stretch"] <= 3.0
        assert by_name["spanner3+landmark"]["stretch"] <= 9.0
        # The trade-off: beyond the small-n crossover (~64 vertices) the
        # stretched schemes store less in total than tables.
        assert by_name["landmark-sqrt"]["global_bits"] < by_name["tables"]["global_bits"]
