"""Graph substrate for the compact-routing reproduction.

The paper models point-to-point communication networks as finite connected
symmetric digraphs whose vertices are labelled ``1..n`` and whose output
ports at a vertex ``x`` are labelled ``1..deg(x)``.  This subpackage
provides:

* :class:`~repro.graphs.digraph.PortLabeledGraph` — the central graph data
  structure with explicit, mutable port labellings and memoised
  per-snapshot distances and fingerprint.
* :mod:`repro.graphs.shortest_paths` — BFS distances (the pure-numpy
  bit-parallel kernel ``bfs_rows`` behind every distance matrix),
  shortest-path DAGs, and the first arcs of near-shortest paths (used by
  the matrix-of-constraints verifier).
* :mod:`repro.graphs.generators` — the graph families the paper discusses
  (hypercubes, complete graphs, the Petersen graph, trees, outerplanar
  graphs, unit circular-arc graphs, chordal graphs, grids/tori, random
  graphs, and random regular graphs from an in-tree pairing-model
  sampler).
* :mod:`repro.graphs.properties` — structural predicates (connectivity,
  bipartiteness, tree/ring/complete recognisers, an exact ``O(n d)``
  hypercube certificate, diameter, girth) used to validate the generators
  and to select applicable routing schemes.

The runtime package imports no graph library: the chordality,
outerplanarity and isomorphism oracles, and the reference regular-graph
sampler, live in ``tests/oracles.py``.
"""

from repro.graphs.digraph import Arc, DerivedState, PortLabeledGraph
from repro.graphs.shortest_paths import (
    all_shortest_paths,
    bfs_distances,
    bfs_parents,
    bfs_rows,
    distance_matrix,
    eccentricities,
    first_arcs_of_near_shortest_paths,
    near_shortest_budget,
    shortest_path,
    shortest_path_dag,
)
from repro.graphs import generators
from repro.graphs import properties

__all__ = [
    "Arc",
    "DerivedState",
    "PortLabeledGraph",
    "all_shortest_paths",
    "bfs_distances",
    "bfs_parents",
    "bfs_rows",
    "distance_matrix",
    "eccentricities",
    "first_arcs_of_near_shortest_paths",
    "near_shortest_budget",
    "shortest_path",
    "shortest_path_dag",
    "generators",
    "properties",
]
