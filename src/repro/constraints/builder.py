"""Generalized graphs of constraints (Section 3, Lemma 2).

Lemma 2: for every matrix ``M in M^d_{p,q}`` there exists a graph ``G`` of
order at most ``p (d + 1) + q`` such that ``M`` is a matrix of constraints of
``G`` for every stretch factor below 2.  The construction has three levels:

* level ``A`` — the ``p`` constrained vertices ``a_1 .. a_p``;
* level ``C`` — middle vertices ``c_{i,k}`` (``1 <= i <= p``,
  ``1 <= k <= d``), keeping only those actually used;
* level ``B`` — the ``q`` target vertices ``b_1 .. b_q``;

with edges ``{a_i, c_{i,k}}`` whenever value ``k`` appears in row ``i`` and
``{b_j, c_{i,k}}`` whenever ``m_ij = k``, and the port of the arc
``(a_i, c_{i,k})`` set to ``k``.  Then the unique path of length 2 from
``a_i`` to ``b_j`` goes through ``c_{i, m_ij}`` while every other path has
length at least 4, so any routing function of stretch below 2 must leave
``a_i`` through port ``m_ij``.

:func:`build_constraint_graph` implements exactly this construction (plus
the optional padding path used in the proof of Theorem 1 to reach a
prescribed order ``n``) and returns a :class:`ConstraintGraph` bundle with
the vertex roles and the matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.constraints.matrix import ConstraintMatrix
from repro.graphs.digraph import PortLabeledGraph

__all__ = ["ConstraintGraph", "build_constraint_graph", "lemma2_order_bound"]


def lemma2_order_bound(p: int, q: int, d: int) -> int:
    """Lemma 2's bound ``p (d + 1) + q`` on the order of the constraint graph."""
    if p < 1 or q < 1 or d < 1:
        raise ValueError("p, q and d must be positive")
    return p * (d + 1) + q


@dataclass(frozen=True)
class ConstraintGraph:
    """A graph of constraints together with its vertex roles.

    Attributes
    ----------
    graph:
        The constructed :class:`~repro.graphs.digraph.PortLabeledGraph`.
    matrix:
        The (row-normalised) constraint matrix the graph realises.
    constrained:
        ``constrained[i]`` is the vertex playing the role of ``a_{i+1}``.
    targets:
        ``targets[j]`` is the vertex playing the role of ``b_{j+1}``.
    middle:
        Mapping ``(i, k) -> vertex`` for the level-C vertices that exist.
    padding:
        Vertices of the optional padding path, in order of attachment.
    """

    graph: PortLabeledGraph
    matrix: ConstraintMatrix
    constrained: Tuple[int, ...]
    targets: Tuple[int, ...]
    middle: Dict[Tuple[int, int], int] = field(default_factory=dict)
    padding: Tuple[int, ...] = ()

    @property
    def order(self) -> int:
        """Number of vertices of the constructed graph."""
        return self.graph.n

    def middle_vertex(self, row: int, value: int) -> int:
        """The vertex ``c_{row+1, value}`` (0-based row index)."""
        return self.middle[(row, value)]

    def forced_first_arc(self, row: int, col: int) -> Tuple[int, int]:
        """The arc every stretch<2 routing must use from ``a_{row+1}`` to ``b_{col+1}``."""
        value = self.matrix.entries[row][col]
        return (self.constrained[row], self.middle[(row, value)])

    def verify(
        self,
        stretch: float = 2.0,
        strict: bool = True,
        use_existing_ports: bool = True,
    ):
        """Check Lemma 2's guarantee on this instance.

        Runs :func:`repro.constraints.verifier.verify_constraint_matrix` on
        the bundled graph/matrix/roles with the construction's native budget
        (stretch strictly below 2) and returns the
        :class:`~repro.constraints.verifier.VerificationReport`.
        """
        from repro.constraints.verifier import verify_constraint_matrix

        return verify_constraint_matrix(
            self.graph,
            self.matrix,
            self.constrained,
            self.targets,
            stretch=stretch,
            strict=strict,
            use_existing_ports=use_existing_ports,
        )


def build_constraint_graph(
    matrix: ConstraintMatrix,
    pad_to_order: Optional[int] = None,
) -> ConstraintGraph:
    """Build the Lemma 2 graph of constraints of ``matrix``.

    Parameters
    ----------
    matrix:
        The constraint matrix.  Rows are put in row-normal form first (the
        construction labels the ports of ``a_i`` with the entry values, so
        the values of a row must be exactly ``1 .. deg(a_i)``); normalising
        does not change the equivalence class.
    pad_to_order:
        When given, a path of extra vertices is attached to a level-C vertex
        (never a constrained or target vertex, exactly as in the proof of
        Theorem 1) so that the final graph has exactly this many vertices.
        Must be at least the unpadded order.

    Returns
    -------
    ConstraintGraph
        The graph with its vertex roles; vertex numbering is
        ``a_1..a_p``, then the used ``c_{i,k}`` in row-major order, then
        ``b_1..b_q``, then the padding path.
    """
    matrix = matrix.normalized()
    p, q = matrix.shape
    entries = matrix.entries

    # Which (row, value) middle vertices exist.
    used_values: List[List[int]] = [sorted(set(row)) for row in entries]
    middle_index: Dict[Tuple[int, int], int] = {}
    next_vertex = p
    for i in range(p):
        for value in used_values[i]:
            middle_index[(i, value)] = next_vertex
            next_vertex += 1
    target_index = [next_vertex + j for j in range(q)]
    total = next_vertex + q

    graph = PortLabeledGraph(total)
    # Edges A - C, then C - B.
    for i in range(p):
        for value in used_values[i]:
            graph.add_edge(i, middle_index[(i, value)])
    for i in range(p):
        for j in range(q):
            value = entries[i][j]
            c = middle_index[(i, value)]
            b = target_index[j]
            if not graph.has_edge(c, b):
                graph.add_edge(c, b)

    # Port labelling of the constrained vertices: arc (a_i, c_{i,k}) gets port k.
    # Row-normal form guarantees the used values of row i are exactly 1..deg(a_i).
    for i in range(p):
        mapping = {middle_index[(i, value)]: value for value in used_values[i]}
        graph.set_port_labeling(i, mapping)

    padding: List[int] = []
    if pad_to_order is not None:
        if pad_to_order < total:
            raise ValueError(
                f"cannot pad to order {pad_to_order}: the construction already has {total} vertices"
            )
        # Attach the path to a level-C vertex (there is always at least one).
        anchor = middle_index[(0, entries[0][0])]
        previous = anchor
        for _ in range(pad_to_order - total):
            fresh = graph.add_vertex()
            graph.add_edge(previous, fresh)
            padding.append(fresh)
            previous = fresh

    return ConstraintGraph(
        graph=graph,
        matrix=matrix,
        constrained=tuple(range(p)),
        targets=tuple(target_index),
        middle=middle_index,
        padding=tuple(padding),
    )
