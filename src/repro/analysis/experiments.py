"""Runners for the non-tabular experiments (E2–E8).

Each function returns a plain dictionary of results; the benchmark modules
call these runners inside ``pytest-benchmark`` fixtures (so the regeneration
cost is itself measured) and print the resulting rows, and EXPERIMENTS.md
records paper-claim versus measured values.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.constraints.builder import build_constraint_graph, lemma2_order_bound
from repro.constraints.enumeration import (
    count_equivalence_classes,
    enumerate_canonical_matrices,
    lemma1_lower_bound,
    lemma1_lower_bound_log2,
)
from repro.constraints.lower_bound import theorem1_bound, worst_case_network
from repro.constraints.matrix import ConstraintMatrix
from repro.constraints.petersen import petersen_constraint_matrix
from repro.constraints.reconstruction import verify_reconstruction
from repro.constraints.verifier import verify_constraint_matrix
from repro.analysis.table1 import SchemeMeasurement, measure_scheme
from repro.graphs import generators
from repro.graphs.shortest_paths import distance_matrix
from repro.memory.requirement import memory_profile
from repro.memory import bounds as bound_formulas
from repro.routing.complete import AdversarialCompleteGraphScheme, ModularCompleteGraphScheme
from repro.routing.ecube import ECubeRoutingScheme
from repro.routing.hierarchical import HierarchicalSpannerScheme
from repro.routing.interval import IntervalRoutingScheme, TreeIntervalRoutingScheme
from repro.routing.landmark import CowenLandmarkScheme
from repro.routing.tables import ShortestPathTableScheme

__all__ = [
    "figure1_experiment",
    "eq2_enumeration_experiment",
    "lemma1_experiment",
    "lemma2_experiment",
    "theorem1_experiment",
    "special_graphs_experiment",
    "stretch_tradeoff_experiment",
]


# ----------------------------------------------------------------------
# E2 — Figure 1
# ----------------------------------------------------------------------
def figure1_experiment(stretch: float = 1.0) -> Dict[str, object]:
    """Reproduce Figure 1: the Petersen-graph matrix of constraints.

    Returns the matrix rows, the verification verdict and whether the matrix
    stays forced at every stretch strictly below 3/2 (the structural reason
    the figure works).
    """
    figure = petersen_constraint_matrix(stretch=stretch, strict=False)
    near = verify_constraint_matrix(
        figure.graph,
        figure.matrix,
        figure.constrained,
        figure.targets,
        stretch=1.5,
        strict=True,
        use_existing_ports=True,
    )
    return {
        "matrix": figure.matrix.entries,
        "rows": figure.rows_as_strings(),
        "verified_at_shortest_path": figure.report.ok,
        "verified_below_stretch_1_5": near.ok,
        "constrained": figure.constrained,
        "targets": figure.targets,
    }


# ----------------------------------------------------------------------
# E3 — Equation (2): enumeration of the small canonical set
# ----------------------------------------------------------------------
def eq2_enumeration_experiment(p: int = 2, q: int = 3, d: int = 3) -> Dict[str, object]:
    """Enumerate the canonical representatives of ``M^d_{p,q}`` (default: the paper's example).

    Returns the representatives, the exact count and the Lemma 1 bound so
    the bench prints both ("the bound is a lower bound and the enumeration
    meets it from above").
    """
    reps = enumerate_canonical_matrices(p, q, d)
    return {
        "p": p,
        "q": q,
        "d": d,
        "count": len(reps),
        "lemma1_bound": float(lemma1_lower_bound(p, q, d)),
        "representatives": [rep.entries for rep in reps],
    }


# ----------------------------------------------------------------------
# E4 — Lemma 1 counting
# ----------------------------------------------------------------------
def lemma1_experiment(
    cases: Optional[Sequence[Tuple[int, int, int]]] = None,
) -> List[Dict[str, float]]:
    """Exact class counts versus the Lemma 1 bound for a sweep of small (p, q, d).

    The grid ends at ``(3, 4, 3)`` and ``(2, 6, 3)`` — one size step beyond
    the seed's ``(3, 3, 3)`` ceiling, reachable thanks to the orbit-pruned
    enumeration engine.
    """
    if cases is None:
        cases = [
            (1, 2, 2),
            (2, 2, 2),
            (2, 2, 3),
            (2, 3, 2),
            (2, 3, 3),
            (3, 2, 2),
            (3, 3, 2),
            (2, 4, 2),
            (3, 3, 3),
            (3, 4, 3),
            (2, 6, 3),
        ]
    rows: List[Dict[str, float]] = []
    for p, q, d in cases:
        exact = count_equivalence_classes(p, q, d)
        bound = float(lemma1_lower_bound(p, q, d))
        rows.append(
            {
                "p": p,
                "q": q,
                "d": d,
                "exact_classes": exact,
                "lemma1_bound": bound,
                "bound_holds": float(exact >= bound),
                "log2_exact": math.log2(exact) if exact > 0 else 0.0,
                "log2_bound": lemma1_lower_bound_log2(p, q, d),
            }
        )
    return rows


# ----------------------------------------------------------------------
# E5 — Lemma 2 construction
# ----------------------------------------------------------------------
def lemma2_experiment(
    cases: Optional[Sequence[Tuple[int, int, int]]] = None, seed: int = 11
) -> List[Dict[str, object]]:
    """Build graphs of constraints for sampled matrices and verify Lemma 2's guarantees."""
    if cases is None:
        cases = [(2, 3, 3), (3, 4, 3), (4, 5, 4), (5, 8, 5), (6, 10, 6)]
    rows: List[Dict[str, object]] = []
    for idx, (p, q, d) in enumerate(cases):
        matrix = ConstraintMatrix.random(p, q, d, seed=seed + idx)
        cg = build_constraint_graph(matrix)
        report = verify_constraint_matrix(
            cg.graph,
            cg.matrix,
            cg.constrained,
            cg.targets,
            stretch=2.0,
            strict=True,
            use_existing_ports=True,
        )
        rows.append(
            {
                "p": p,
                "q": q,
                "d": d,
                "order": cg.order,
                "order_bound": lemma2_order_bound(p, q, d),
                "within_bound": cg.order <= lemma2_order_bound(p, q, d),
                "is_constraint_matrix_below_stretch_2": report.ok,
            }
        )
    return rows


# ----------------------------------------------------------------------
# E6 — Theorem 1
# ----------------------------------------------------------------------
def theorem1_experiment(
    sizes: Optional[Sequence[int]] = None,
    eps_values: Optional[Sequence[float]] = None,
    build_instances_up_to: int = 400,
    seed: int = 3,
    time_verification: bool = False,
) -> List[Dict[str, object]]:
    """Theorem 1 bound accounting (all sizes) plus end-to-end instances (small sizes).

    For every ``(n, eps)`` the closed-form accounting is evaluated; for the
    sizes up to ``build_instances_up_to`` the worst-case network is actually
    built, shortest-path tables are installed on it, the constrained
    routers' measured table encodings are summed and the reconstruction
    argument is executed for real.

    With ``time_verification=True`` every built instance is additionally
    verified as a matrix of constraints at stretch < 2, adding
    ``verify_ok`` / ``verify_bfs_s`` columns.
    """
    if sizes is None:
        sizes = [64, 128, 256, 512, 1024, 2048, 4096, 8192]
    if eps_values is None:
        eps_values = [0.25, 0.5, 0.75]
    rows: List[Dict[str, object]] = []
    for n in sizes:
        for eps in eps_values:
            bound = theorem1_bound(n, eps)
            row: Dict[str, object] = {
                "n": n,
                "eps": eps,
                "p": bound.parameters.p,
                "q": bound.parameters.q,
                "d": bound.parameters.d,
                "lower_bound_total_bits": bound.total_constrained_bits,
                "lower_bound_per_router_bits": bound.per_router_bits,
                "asymptotic_per_router_bits": bound.asymptotic_per_router_bits,
                "routing_table_upper_bits": bound_formulas.routing_table_local_upper(n),
            }
            if n <= build_instances_up_to:
                cg = worst_case_network(n, eps, seed=seed)
                rf = ShortestPathTableScheme().build(cg.graph)
                profile = memory_profile(rf)
                constrained_bits = int(profile.bits_per_node[list(cg.constrained)].sum())
                row["measured_constrained_total_bits"] = constrained_bits
                row["measured_max_constrained_bits"] = int(
                    profile.bits_per_node[list(cg.constrained)].max()
                )
                row["reconstruction_ok"] = verify_reconstruction(cg, rf)
                if time_verification:
                    start = time.perf_counter()
                    report = cg.verify()
                    row["verify_bfs_s"] = time.perf_counter() - start
                    row["verify_ok"] = report.ok
            rows.append(row)
    return rows


# ----------------------------------------------------------------------
# E7 — special graph families of Section 1
# ----------------------------------------------------------------------
def _cached_cell(runner, kind: str, scheme, graph) -> SchemeMeasurement:
    """Measure ``scheme`` on a copy of ``graph``, through the runner cache when present.

    Built on a copy since the complete-graph schemes relabel ports in place
    and the cached row is keyed by the pre-build fingerprint.
    """

    def compute() -> SchemeMeasurement:
        return measure_scheme(scheme, graph.copy(), dist=distance_matrix(graph))

    if runner is None:
        return compute()
    return runner.cached_row(kind, scheme, graph, compute)


def _measured_cell(
    runner, kind: str, scheme, graph, bound_bits: float
) -> Dict[str, object]:
    """Build + profile + simulate one E7 cell, optionally through the runner cache.

    Only the *measured* quantities enter the cache; ``bound_bits`` is a
    closed-form input outside the ``(graph, scheme)`` cache key and is
    re-attached on every call, so editing a bound formula in
    :mod:`repro.memory.bounds` takes effect immediately instead of being
    shadowed by stale cached rows.
    """
    cell = _cached_cell(runner, kind, scheme, graph)
    return {"local_bits": cell.local_bits, "bound_bits": bound_bits, "stretch": cell.stretch}


def special_graphs_experiment(
    seed: int = 5,
    runner=None,
    hypercube_dims: Sequence[int] = (3, 4, 5, 6, 7, 8, 9),
    complete_sizes: Sequence[int] = (8, 16, 32, 64, 96, 128),
    tree_sizes: Sequence[int] = (15, 31, 63, 127, 255),
    outerplanar_sizes: Sequence[int] = (16, 32, 64, 96),
) -> List[Dict[str, object]]:
    """Hypercube, complete graph (good/adversarial) and tree measurements (Section 1 examples).

    Default grids extend one size step beyond PR 2 (hypercube dimension 9,
    ``K_128``, 255-vertex trees, 96-vertex outerplanar graphs) — paid for
    by the batched simulator plus, when a
    :class:`~repro.analysis.runner.ShardedRunner` is passed as ``runner``,
    the on-disk cell cache that makes re-runs incremental.
    """
    rows: List[Dict[str, object]] = []

    for dim in hypercube_dims:
        graph = generators.hypercube(dim)
        cell = _measured_cell(
            runner,
            "e7-hypercube",
            ECubeRoutingScheme(),
            graph,
            bound_formulas.hypercube_local_upper(graph.n),
        )
        rows.append({"family": "hypercube", "n": graph.n, "scheme": "ecube", **cell})

    for n in complete_sizes:
        good_cell = _measured_cell(
            runner,
            "e7-complete",
            ModularCompleteGraphScheme(),
            generators.complete_graph(n),
            bound_formulas.complete_graph_good_local(n),
        )
        adversarial_cell = _measured_cell(
            runner,
            "e7-complete",
            AdversarialCompleteGraphScheme(seed=seed),
            generators.complete_graph(n),
            bound_formulas.complete_graph_adversarial_local(n),
        )
        rows.append(
            {"family": "complete", "n": n, "scheme": "modular-labeling", **good_cell}
        )
        rows.append(
            {
                "family": "complete",
                "n": n,
                "scheme": "adversarial-labeling",
                **adversarial_cell,
            }
        )

    for n in tree_sizes:
        tree = generators.random_tree(n, seed=seed)
        cell = _measured_cell(
            runner,
            "e7-tree",
            TreeIntervalRoutingScheme(),
            tree,
            bound_formulas.interval_tree_local_upper(n, tree.max_degree()),
        )
        rows.append({"family": "tree", "n": n, "scheme": "1-interval", **cell})

    for n in outerplanar_sizes:
        outer = generators.outerplanar_graph(n, extra_chords=n // 2, seed=seed)
        cell = _measured_cell(
            runner,
            "e7-outerplanar",
            IntervalRoutingScheme(),
            outer,
            bound_formulas.interval_tree_local_upper(n, outer.max_degree()),
        )
        rows.append({"family": "outerplanar", "n": n, "scheme": "interval", **cell})
    return rows


# ----------------------------------------------------------------------
# E8 — space / stretch trade-off frontier
# ----------------------------------------------------------------------
def stretch_tradeoff_experiment(
    n: int = 64, extra_edge_prob: float = 0.08, seed: int = 13, runner=None
) -> List[Dict[str, object]]:
    """Measured (stretch, max local bits) frontier of the implemented schemes on one graph.

    With ``runner`` (a :class:`~repro.analysis.runner.ShardedRunner`) the
    per-scheme cells are served from the on-disk cache keyed by the graph
    fingerprint and the scheme config, so sweeping the frontier over growing
    ``n`` only ever pays for the new size.
    """
    graph = generators.random_connected_graph(n, extra_edge_prob=extra_edge_prob, seed=seed)
    schemes = [
        ("tables", ShortestPathTableScheme()),
        ("interval", IntervalRoutingScheme()),
        ("landmark-sqrt", CowenLandmarkScheme(seed=seed)),
        ("landmark-few", CowenLandmarkScheme(num_landmarks=max(2, n // 16), seed=seed)),
        ("spanner3+landmark", HierarchicalSpannerScheme(spanner_stretch=3.0, seed=seed)),
        ("spanner5+landmark", HierarchicalSpannerScheme(spanner_stretch=5.0, seed=seed)),
    ]
    rows: List[Dict[str, object]] = []
    for name, scheme in schemes:
        m = _cached_cell(runner, "e8-tradeoff", scheme, graph)
        rows.append(
            {
                "scheme": name,
                "n": n,
                "stretch": m.stretch,
                "guarantee": float(getattr(scheme, "stretch_guarantee", float("nan"))),
                "local_bits": m.local_bits,
                "global_bits": m.global_bits,
                "mean_bits": m.mean_bits,
            }
        )
    return rows
