"""repro — reproduction of Fraigniaud & Gavoille (1996).

*Local Memory Requirement of Universal Routing Schemes*, SPAA 1996
(LIP research report RR-1996-01).

The package is organised in five layers (see DESIGN.md):

* :mod:`repro.graphs` — port-labelled symmetric digraphs, shortest paths
  and the graph families the paper discusses;
* :mod:`repro.routing` — the ``R = (I, H, P)`` routing model and the
  universal routing schemes of Table 1 (routing tables, interval routing,
  e-cube, complete-graph labellings, landmark and spanner schemes);
* :mod:`repro.memory` — bit-exact encodings of local routing functions and
  the closed-form memory bounds of Table 1;
* :mod:`repro.constraints` — the paper's contribution: generalized matrices
  and graphs of constraints, the Lemma 1 counting bound, the Lemma 2
  construction, the Figure 1 Petersen instance and the Theorem 1 lower
  bound with its executable reconstruction argument;
* :mod:`repro.sim` — the batched all-pairs routing simulator (compiled
  numpy next-hop matrices with exact livelock detection) and the
  scheme x graph-family conformance harness cross-checked against Table 1;
* :mod:`repro.analysis` — experiment drivers regenerating every table and
  figure of the paper (see EXPERIMENTS.md).

Quick start::

    from repro import (
        generators, ShortestPathTableScheme, memory_profile, simulated_stretch_factor,
    )

    graph = generators.random_connected_graph(32, seed=1)
    routing = ShortestPathTableScheme().build(graph)
    profile = memory_profile(routing)
    print(profile.local, profile.global_, simulated_stretch_factor(routing))

The per-pair router the seed measured stretch with lives on as a test
oracle in ``tests/oracles.py``.
"""

from repro.graphs import PortLabeledGraph, generators, properties
from repro.routing import (
    CowenLandmarkScheme,
    HierarchicalSpannerScheme,
    IntervalRoutingScheme,
    ShortestPathTableScheme,
    TreeIntervalRoutingScheme,
)
from repro.memory import memory_profile
from repro.sim import (
    ConformanceReport,
    run_conformance_suite,
    simulate_all_pairs,
    simulated_stretch_factor,
)
from repro.constraints import (
    ConstraintMatrix,
    build_constraint_graph,
    enumerate_canonical_matrices,
    lemma1_lower_bound,
    petersen_constraint_matrix,
    theorem1_bound,
    verify_constraint_matrix,
    worst_case_network,
)

__version__ = "1.0.0"

__all__ = [
    "PortLabeledGraph",
    "generators",
    "properties",
    "ShortestPathTableScheme",
    "IntervalRoutingScheme",
    "TreeIntervalRoutingScheme",
    "CowenLandmarkScheme",
    "HierarchicalSpannerScheme",
    "memory_profile",
    "ConformanceReport",
    "run_conformance_suite",
    "simulate_all_pairs",
    "simulated_stretch_factor",
    "ConstraintMatrix",
    "build_constraint_graph",
    "enumerate_canonical_matrices",
    "lemma1_lower_bound",
    "petersen_constraint_matrix",
    "verify_constraint_matrix",
    "theorem1_bound",
    "worst_case_network",
    "__version__",
]
