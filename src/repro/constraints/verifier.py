"""Verification that a matrix is a matrix of constraints of a graph.

Definition 1 quantifies over *every* routing function of stretch at most
``s``; operationally, the entry ``m_ij`` is forced exactly when all the
paths from ``a_i`` to ``b_j`` of length within the stretch budget start with
one and the same arc (then any routing function respecting the budget has no
choice).  The verifier therefore:

1. computes, for every constrained/target pair, the set of first arcs of
   admissible paths (:func:`repro.graphs.shortest_paths.first_arcs_of_near_shortest_paths`);
2. checks that each set is a singleton;
3. checks that the forced arcs are consistent with the matrix entries —
   either against the graph's current port labelling, or by exhibiting a
   port labelling of the constrained vertices realising the entries (the
   per-row maps ``phi_i`` of Definition 1 must send distinct values to
   distinct arcs and values may not exceed the vertex degree).

It also provides :func:`extract_constraint_matrix`, the reverse direction:
given a graph, candidate constrained and target sets and a stretch bound,
build the (unique) matrix of constraints under the current port labelling if
one exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.constraints.matrix import ConstraintMatrix
from repro.graphs.digraph import Arc, PortLabeledGraph
from repro.graphs.shortest_paths import (
    bfs_distances,
    first_arcs_of_near_shortest_paths,
)

__all__ = [
    "VerificationReport",
    "forced_first_arcs",
    "verify_constraint_matrix",
    "extract_constraint_matrix",
]


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a matrix-of-constraints verification.

    ``ok`` is the overall verdict; ``failures`` lists human-readable reasons
    (empty when ``ok``); ``forced_arcs[i][j]`` is the forced first arc of
    pair ``(a_i, b_j)`` when it exists, ``None`` otherwise.
    """

    ok: bool
    failures: Tuple[str, ...]
    forced_arcs: Tuple[Tuple[Optional[Arc], ...], ...]


def forced_first_arcs(
    graph: PortLabeledGraph,
    constrained: Sequence[int],
    targets: Sequence[int],
    stretch: float,
    strict: bool = True,
) -> List[List[Optional[Arc]]]:
    """Forced first arc of every (constrained, target) pair, or ``None`` if not forced.

    A pair's first arc is *forced* when every path within the stretch budget
    (strictly below ``stretch`` times the distance when ``strict`` is true,
    matching the paper's "stretch factor < 2") starts with the same arc.

    The arc sets come from the BFS oracle of
    :func:`~repro.graphs.shortest_paths.first_arcs_of_near_shortest_paths`:
    one BFS per *target* is shared across all constrained sources, so the
    whole ``p x q`` grid costs ``q`` sweeps (plus rare per-pair exclusion
    sweeps) instead of an exponential path enumeration per pair.
    """
    grid: List[List[Optional[Arc]]] = [[None] * len(targets) for _ in constrained]
    for j, b in enumerate(targets):
        dist_to_b = bfs_distances(graph, b)
        for i, a in enumerate(constrained):
            if a == b:
                continue
            arcs = first_arcs_of_near_shortest_paths(
                graph, a, b, stretch, strict=strict, dist_to_target=dist_to_b
            )
            grid[i][j] = next(iter(arcs)) if len(arcs) == 1 else None
    return grid


def verify_constraint_matrix(
    graph: PortLabeledGraph,
    matrix: ConstraintMatrix,
    constrained: Sequence[int],
    targets: Sequence[int],
    stretch: float = 2.0,
    strict: bool = True,
    use_existing_ports: bool = True,
) -> VerificationReport:
    """Verify that ``matrix`` is a matrix of constraints of ``graph`` at the given stretch.

    Parameters
    ----------
    constrained, targets:
        The vertices playing the roles of ``a_1..a_p`` and ``b_1..b_q`` (in
        row / column order).
    stretch, strict:
        Stretch budget; ``strict=True`` admits paths of length strictly
        below ``stretch * d`` (the paper's ``s < 2``), ``strict=False``
        admits ``<=``.
    use_existing_ports:
        When true, entry ``m_ij`` must equal the port label of the forced
        arc under the graph's current labelling.  When false, the check only
        requires that *some* port labelling of the constrained vertices
        realises the entries: per row, distinct entry values must correspond
        to distinct forced arcs and no value may exceed the vertex degree.
    """
    p, q = matrix.shape
    failures: List[str] = []
    if len(constrained) != p:
        failures.append(f"matrix has {p} rows but {len(constrained)} constrained vertices were given")
    if len(targets) != q:
        failures.append(f"matrix has {q} columns but {len(targets)} target vertices were given")
    if failures:
        return VerificationReport(False, tuple(failures), ())

    arcs = forced_first_arcs(graph, constrained, targets, stretch, strict=strict)
    entries = matrix.entries
    for i, a in enumerate(constrained):
        value_to_arc: Dict[int, Arc] = {}
        degree = graph.degree(a)
        for j, b in enumerate(targets):
            arc = arcs[i][j]
            value = entries[i][j]
            if arc is None:
                failures.append(
                    f"pair (a{i + 1}={a}, b{j + 1}={b}): the first arc is not forced at stretch "
                    f"{'<' if strict else '<='} {stretch}"
                )
                continue
            if use_existing_ports and arc.port != value:
                failures.append(
                    f"pair (a{i + 1}={a}, b{j + 1}={b}): forced arc uses port {arc.port} "
                    f"but the matrix entry is {value}"
                )
            if value > degree:
                failures.append(
                    f"row {i + 1}: entry {value} exceeds the degree {degree} of vertex {a}"
                )
            seen = value_to_arc.get(value)
            if seen is None:
                value_to_arc[value] = arc
            elif seen != arc:
                failures.append(
                    f"row {i + 1}: entry value {value} is forced to two different arcs "
                    f"({seen.head} and {arc.head}), so no per-row map phi_{i + 1} exists"
                )
        # Distinct values must map to distinct arcs (port labels are injective).
        heads = {}
        for value, arc in value_to_arc.items():
            if arc.head in heads and heads[arc.head] != value:
                failures.append(
                    f"row {i + 1}: values {heads[arc.head]} and {value} both force the arc towards "
                    f"{arc.head}; no port labelling can realise both"
                )
            heads[arc.head] = value

    return VerificationReport(
        ok=not failures,
        failures=tuple(failures),
        forced_arcs=tuple(tuple(row) for row in arcs),
    )


def extract_constraint_matrix(
    graph: PortLabeledGraph,
    constrained: Sequence[int],
    targets: Sequence[int],
    stretch: float = 2.0,
    strict: bool = True,
) -> Optional[ConstraintMatrix]:
    """Matrix of constraints induced by the current port labelling, if every pair is forced.

    Returns ``None`` when some pair admits two admissible first arcs (the
    matrix then does not exist for these roles at this stretch).
    """
    arcs = forced_first_arcs(graph, constrained, targets, stretch, strict=strict)
    entries: List[List[int]] = []
    for row in arcs:
        out_row: List[int] = []
        for arc in row:
            if arc is None:
                return None
            out_row.append(arc.port)
        entries.append(out_row)
    return ConstraintMatrix.from_entries(entries)
