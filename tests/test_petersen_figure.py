"""Unit tests for the Figure 1 reproduction (Petersen-graph matrix of constraints)."""

from __future__ import annotations

from repro.constraints.petersen import (
    CONSTRAINED_VERTICES,
    TARGET_VERTICES,
    petersen_constraint_matrix,
)
from repro.constraints.verifier import verify_constraint_matrix
from repro.graphs import generators
from repro.graphs.shortest_paths import all_shortest_paths


class TestPetersenFigure:
    def test_matrix_shape_is_five_by_five(self):
        figure = petersen_constraint_matrix()
        assert figure.matrix.shape == (5, 5)

    def test_roles_partition_the_vertices(self):
        figure = petersen_constraint_matrix()
        assert set(figure.constrained) | set(figure.targets) == set(range(10))
        assert set(figure.constrained).isdisjoint(figure.targets)

    def test_verified_at_shortest_path_stretch(self):
        figure = petersen_constraint_matrix()
        assert figure.report.ok

    def test_every_pair_has_unique_shortest_path(self):
        g = generators.petersen_graph()
        for a in CONSTRAINED_VERTICES:
            for b in TARGET_VERTICES:
                assert len(all_shortest_paths(g, a, b)) == 1

    def test_entries_are_valid_ports(self):
        figure = petersen_constraint_matrix()
        for i, a in enumerate(figure.constrained):
            for value in figure.matrix.entries[i]:
                assert 1 <= value <= figure.graph.degree(a) == 3

    def test_matrix_remains_forced_below_three_halves(self):
        figure = petersen_constraint_matrix()
        report = verify_constraint_matrix(
            figure.graph,
            figure.matrix,
            figure.constrained,
            figure.targets,
            stretch=1.5,
            strict=True,
            use_existing_ports=True,
        )
        assert report.ok

    def test_matrix_not_forced_at_stretch_two(self):
        # At stretch 2 the budget for distance-2 pairs admits length-4 walks,
        # of which the Petersen graph has several: the figure's matrix is a
        # *shortest-path* matrix of constraints only.
        figure = petersen_constraint_matrix()
        report = verify_constraint_matrix(
            figure.graph,
            figure.matrix,
            figure.constrained,
            figure.targets,
            stretch=2.0,
            strict=False,
            use_existing_ports=True,
        )
        assert not report.ok

    def test_rows_as_strings(self):
        figure = petersen_constraint_matrix()
        rows = figure.rows_as_strings()
        assert len(rows) == 5
        assert all(len(row.split()) == 5 for row in rows)

    def test_adjacent_pairs_forced_arc_is_the_edge(self):
        figure = petersen_constraint_matrix()
        g = figure.graph
        for i, a in enumerate(figure.constrained):
            for j, b in enumerate(figure.targets):
                if g.has_edge(a, b):
                    arc = figure.report.forced_arcs[i][j]
                    assert arc.head == b

    def test_deterministic(self):
        first = petersen_constraint_matrix()
        second = petersen_constraint_matrix()
        # Structural comparison: extraction must be bit-for-bit deterministic,
        # not merely produce equivalent matrices.
        assert first.matrix.entries == second.matrix.entries
