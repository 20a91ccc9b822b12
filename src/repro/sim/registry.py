"""Registries of routing schemes and graph families for the conformance suite.

The paper's Table 1 is a cross-product statement: *every* universal scheme on
*every* network obeys the tabulated memory/stretch trade-off.  The
registries below make that cross-product executable: one seeded instance of
every graph-generator family in :mod:`repro.graphs.generators`, and one
configured instance of every implemented routing scheme.  Partial schemes
(e-cube, tree interval routing, the complete-graph labellings) simply raise
:class:`ValueError` on graphs outside their domain; the conformance suite
records those pairs as skipped.

Random families are instantiated with deterministic seeds, retried (by
bumping the seed) until connected — routing functions are only defined on
connected networks in the paper's model.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.graphs import generators, properties
from repro.graphs.digraph import PortLabeledGraph
from repro.sim.faults import FaultSet, random_fault_set
from repro.routing.complete import (
    AdversarialCompleteGraphScheme,
    ModularCompleteGraphScheme,
)
from repro.routing.ecube import ECubeRoutingScheme, MaskECubeRoutingScheme
from repro.routing.hierarchical import HierarchicalSpannerScheme
from repro.routing.interval import IntervalRoutingScheme, TreeIntervalRoutingScheme
from repro.routing.landmark import CowenLandmarkScheme
from repro.routing.tables import ShortestPathTableScheme

__all__ = [
    "scheme_registry",
    "graph_families",
    "family_names",
    "connected_instance",
    "fault_scenarios",
    "resolve_schemes",
    "resolve_families",
]

#: Names of the generator families :func:`graph_families` instantiates, in
#: registry order.  Exposed separately so test collection can parametrize
#: over the names without building a single graph.
FAMILY_NAMES = (
    "path",
    "cycle",
    "star",
    "complete",
    "complete-bipartite",
    "hypercube",
    "grid",
    "torus",
    "petersen",
    "binary-tree",
    "random-tree",
    "caterpillar",
    "outerplanar",
    "unit-circular-arc",
    "random-interval",
    "chordal",
    "random-sparse",
    "random-dense",
    "random-regular",
    "expander",
)


def family_names() -> Tuple[str, ...]:
    """The family names of :func:`graph_families`, without building graphs."""
    return FAMILY_NAMES


def scheme_registry(seed: int = 0) -> Dict[str, object]:
    """Every implemented routing scheme, keyed by a display name.

    Universal schemes apply everywhere; partial schemes raise
    :class:`ValueError` from ``build`` outside their graph class.  All three
    :class:`~repro.routing.tables.ShortestPathTableScheme` tie-break rules
    are included because they produce different (all correct) tables.  The
    ``*-rewriting`` / ``ecube-mask`` entries are the header-*rewriting*
    formulations of their header-constant siblings (identical routes,
    mutable headers): their routing functions lower to ``"header-state"``
    programs (``rf.program_kind()``) and exercise the header-compiled
    executor across the whole family cross-product, while every other
    entry lowers to the ``"next-hop"`` matrix form.
    """
    return {
        "tables-lowest-port": ShortestPathTableScheme(tie_break="lowest_port"),
        "tables-lowest-neighbor": ShortestPathTableScheme(tie_break="lowest_neighbor"),
        "tables-highest-port": ShortestPathTableScheme(tie_break="highest_port"),
        "interval": IntervalRoutingScheme(),
        "tree-interval": TreeIntervalRoutingScheme(),
        "ecube": ECubeRoutingScheme(),
        "ecube-mask": MaskECubeRoutingScheme(),
        "complete-modular": ModularCompleteGraphScheme(),
        "complete-adversarial": AdversarialCompleteGraphScheme(seed=seed),
        "landmark-sqrt": CowenLandmarkScheme(seed=seed),
        "landmark-degree": CowenLandmarkScheme(selection="degree", seed=seed),
        "landmark-rewriting": CowenLandmarkScheme(seed=seed, rewriting=True),
        "spanner3-landmark": HierarchicalSpannerScheme(spanner_stretch=3.0, seed=seed),
        "spanner5-landmark": HierarchicalSpannerScheme(spanner_stretch=5.0, seed=seed),
        "spanner3-rewriting": HierarchicalSpannerScheme(
            spanner_stretch=3.0, seed=seed, rewriting=True
        ),
    }


def resolve_schemes(
    names: Optional[Sequence[str]] = None, seed: int = 0
) -> Dict[str, object]:
    """Registry subset named by ``names`` (all schemes when ``None``).

    The name→instance resolution the ``repro`` CLI's repeated ``--scheme``
    flags go through.  Unknown names raise :class:`KeyError` listing the
    valid choices, so a typo fails loudly instead of silently shrinking the
    sweep; order follows the registry, not ``names``, keeping CLI output
    cell order identical to the Python API's.
    """
    registry = scheme_registry(seed=seed)
    if names is None:
        return registry
    unknown = sorted(set(names) - set(registry))
    if unknown:
        raise KeyError(
            f"unknown scheme(s) {unknown}; choices: {sorted(registry)}"
        )
    wanted = set(names)
    return {name: scheme for name, scheme in registry.items() if name in wanted}


def resolve_families(
    names: Optional[Sequence[str]] = None, size: str = "small", seed: int = 0
) -> Dict[str, PortLabeledGraph]:
    """Family-name→graph-instance subset for ``names`` (all when ``None``).

    Validates against :data:`FAMILY_NAMES` *before* building any graphs, so
    an unknown ``--family`` fails instantly; instances then come from
    :func:`graph_families` with the usual seeded-connected guarantees, in
    registry order.
    """
    if names is not None:
        unknown = sorted(set(names) - set(FAMILY_NAMES))
        if unknown:
            raise KeyError(
                f"unknown family(ies) {unknown}; choices: {list(FAMILY_NAMES)}"
            )
    families = graph_families(size=size, seed=seed)
    if names is None:
        return families
    wanted = set(names)
    return {name: graph for name, graph in families.items() if name in wanted}


def connected_instance(
    builder: Callable[[int], PortLabeledGraph],
    seed: int,
    attempts: int = 25,
    family: Optional[str] = None,
) -> PortLabeledGraph:
    """Deterministically sample a connected instance of a random family.

    Calls ``builder(seed)``, ``builder(seed + 1)``, ... until the produced
    graph is connected; random intersection families (interval, circular
    arc) occasionally disconnect at small sizes.  The retry walk is hard
    capped at ``attempts`` seed bumps: on exhaustion a diagnostic
    :class:`RuntimeError` names the family and the base seed, so a
    generator whose disconnection rate drifts cannot silently hang the
    registry (and the fingerprint-pinning tests catch the complementary
    failure of a *successful* draw silently changing instance).
    """
    for offset in range(attempts):
        graph = builder(seed + offset)
        if properties.is_connected(graph):
            return graph
    label = f"family {family!r}" if family else "anonymous family"
    raise RuntimeError(
        f"no connected instance of {label} within {attempts} capped attempts "
        f"from base seed {seed} (tried seeds {seed}..{seed + attempts - 1}); "
        "the generator's connectivity at this size has drifted — fix the "
        "generator or raise `attempts` explicitly"
    )


def graph_families(
    size: str = "small", seed: int = 0
) -> Dict[str, PortLabeledGraph]:
    """One seeded, connected instance of every generator family.

    ``size`` is ``"small"`` (n around 10-16, suitable for differential
    tests against the per-pair oracle router) or ``"medium"`` (n around
    30-40, the conformance-suite default).  Callers that mutate port
    labellings (the complete-graph schemes do) must work on a
    :meth:`~repro.graphs.digraph.PortLabeledGraph.copy`.
    """
    if size not in ("small", "medium"):
        raise ValueError(f"size must be 'small' or 'medium', got {size!r}")
    small = size == "small"
    n = 12 if small else 36
    bipartite = (4, 5) if small else (8, 10)
    grid = (3, 4) if small else (6, 6)
    torus = (3, 4) if small else (5, 7)
    families = {
        "path": generators.path_graph(n),
        "cycle": generators.cycle_graph(n),
        "star": generators.star_graph(n),
        "complete": generators.complete_graph(9 if small else 16),
        "complete-bipartite": generators.complete_bipartite_graph(*bipartite),
        "hypercube": generators.hypercube(3 if small else 5),
        "grid": generators.grid_2d(*grid),
        "torus": generators.torus_2d(*torus),
        "petersen": generators.petersen_graph(),
        "binary-tree": generators.binary_tree(3 if small else 4),
        "random-tree": generators.random_tree(n, seed=seed),
        "caterpillar": generators.caterpillar_tree(*(4, 2) if small else (8, 3)),
        "outerplanar": generators.outerplanar_graph(n, extra_chords=n // 2, seed=seed),
        "unit-circular-arc": connected_instance(
            lambda s: generators.unit_circular_arc_graph(n, arc_fraction=0.3, seed=s),
            seed,
            family="unit-circular-arc",
        ),
        "random-interval": connected_instance(
            lambda s: generators.random_interval_graph(n, length=0.35, seed=s),
            seed,
            family="random-interval",
        ),
        "chordal": generators.random_chordal_graph(n, extra_edges=1, seed=seed),
        "random-sparse": generators.random_connected_graph(n, extra_edge_prob=0.08, seed=seed),
        "random-dense": generators.random_connected_graph(n, extra_edge_prob=0.3, seed=seed),
        "random-regular": generators.random_regular_graph(n, 3, seed=seed),
        "expander": generators.butterfly_like_expander(n, seed=seed),
    }
    assert tuple(families) == FAMILY_NAMES
    return families


def fault_scenarios(
    graph: PortLabeledGraph,
    seed: int = 0,
    edge_ks: Sequence[int] = (1, 2, 4),
    node_ks: Sequence[int] = (1, 2),
    per_k: int = 2,
) -> List[Tuple[str, FaultSet]]:
    """Seeded k-failure scenarios for one graph, for the resilience sweeps.

    For every requested failure count ``k``, ``per_k`` independent seeded
    draws of ``k`` failed edges (``edge_ks``) and of ``k`` failed nodes
    (``node_ks``) are generated via
    :func:`repro.sim.faults.random_fault_set`.  Scenario labels are
    ``"edge-k2-s1"``-style and the draws are fully determined by
    ``(graph, seed)`` — the resilience analogue of the seeded registry
    instances above.  Failure counts exceeding what the graph can lose
    (more edges than it has; so many nodes that fewer than two survive)
    are skipped rather than clamped, so every emitted scenario means what
    its label says.
    """
    scenarios: List[Tuple[str, FaultSet]] = []
    for kind, ks in (("edge", edge_ks), ("node", node_ks)):
        limit = graph.num_edges if kind == "edge" else max(graph.n - 2, 0)
        for k in ks:
            if k > limit:
                continue
            for draw in range(per_k):
                fault_seed = seed * 100003 + 1009 * k + 31 * draw + (0 if kind == "edge" else 17)
                scenarios.append(
                    (
                        f"{kind}-k{k}-s{draw}",
                        random_fault_set(graph, k, kind=kind, seed=fault_seed),
                    )
                )
    return scenarios
