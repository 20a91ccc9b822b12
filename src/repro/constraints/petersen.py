"""Figure 1: a shortest-path matrix of constraints on the Petersen graph.

The paper illustrates Definition 1 with a 5x5 matrix of constraints of the
Petersen graph: constrained vertices ``a_1..a_5``, target vertices
``b_1..b_5`` and, for every pair, a forced first arc — e.g. "every shortest
path from ``a_1`` to ``b_1`` has to start with the arc ``(a_1, b_1)``".

The Petersen graph makes this possible because it has girth 5: any two
vertices at distance 2 have a *unique* common neighbour (two would close a
4-cycle) and any two adjacent vertices are joined by a unique shortest path
(the edge), so *every* pair of distinct vertices has a unique shortest path
and therefore a forced first arc.  Consequently any partition of the ten
vertices into five constrained and five target vertices yields a matrix of
constraints at stretch 1 — and in fact at every stretch below 3/2, because
the second-shortest route between vertices at distance 2 has length 4 > 3
and between adjacent vertices has length 5 (girth) minus... > 2.

The figure's exact vertex/port labelling cannot be recovered from the
scanned text, so the reproduction fixes the natural roles (outer 5-cycle =
constrained, inner pentagram = targets) and reports the matrix induced by
the canonical port labelling; EXPERIMENTS.md records that the matrix is
equivalent — in the paper's own Definition 2 sense — to any other choice of
labelling, which is all the figure is meant to demonstrate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.constraints.matrix import ConstraintMatrix
from repro.constraints.verifier import VerificationReport, extract_constraint_matrix, verify_constraint_matrix
from repro.graphs.digraph import PortLabeledGraph
from repro.graphs.generators import petersen_graph

__all__ = ["PetersenFigure", "petersen_constraint_matrix"]

#: Roles used by the reproduction: outer cycle are the constrained vertices
#: ``a_1..a_5``, inner pentagram vertices are the targets ``b_1..b_5``.
CONSTRAINED_VERTICES: Tuple[int, ...] = (0, 1, 2, 3, 4)
TARGET_VERTICES: Tuple[int, ...] = (5, 6, 7, 8, 9)


@dataclass(frozen=True)
class PetersenFigure:
    """The reproduced Figure 1: graph, roles, matrix and verification report."""

    graph: PortLabeledGraph
    matrix: ConstraintMatrix
    constrained: Tuple[int, ...]
    targets: Tuple[int, ...]
    report: VerificationReport

    def rows_as_strings(self) -> List[str]:
        """The matrix rendered one row per string (for the example script)."""
        return [" ".join(str(v) for v in row) for row in self.matrix.entries]


def petersen_constraint_matrix(stretch: float = 1.0, strict: bool = False) -> PetersenFigure:
    """Compute and verify the Petersen-graph matrix of constraints.

    Parameters
    ----------
    stretch, strict:
        Stretch budget used both to extract and to verify the matrix.  The
        default ``stretch=1.0, strict=False`` is shortest-path routing, the
        setting of the paper's figure.

    Raises
    ------
    RuntimeError
        If extraction or verification fails (it cannot, on the Petersen
        graph, for stretch below 3/2 — the test-suite checks this).
    """
    graph = petersen_graph()
    matrix = extract_constraint_matrix(
        graph, CONSTRAINED_VERTICES, TARGET_VERTICES, stretch=stretch, strict=strict
    )
    if matrix is None:
        raise RuntimeError("the Petersen graph pairs are not all forced at this stretch")
    report = verify_constraint_matrix(
        graph,
        matrix,
        CONSTRAINED_VERTICES,
        TARGET_VERTICES,
        stretch=stretch,
        strict=strict,
        use_existing_ports=True,
    )
    if not report.ok:
        raise RuntimeError(f"verification failed: {report.failures}")
    return PetersenFigure(
        graph=graph,
        matrix=matrix,
        constrained=CONSTRAINED_VERTICES,
        targets=TARGET_VERTICES,
        report=report,
    )
