#!/usr/bin/env python
"""The space/stretch trade-off across graph families (the shape of Table 1).

For each of several graph families this script measures every implemented
universal routing scheme: exact stretch factor, maximum per-router memory and
total memory.  Two effects from the paper become visible:

* on structured graphs (hypercube, tree, outerplanar) the shortest-path
  schemes are already cheap — the lower bound is a *worst-case* statement;
* on random (worst-case-like) graphs the stretch-1 schemes pay
  ``Theta(n log n)`` per router while the landmark schemes (stretch <= 3)
  and the spanner compositions (larger stretch) store much less.

Run with:  python examples/scheme_tradeoffs.py
"""

from __future__ import annotations

from repro import (
    CowenLandmarkScheme,
    HierarchicalSpannerScheme,
    IntervalRoutingScheme,
    ShortestPathTableScheme,
    TreeIntervalRoutingScheme,
    generators,
    memory_profile,
    simulated_stretch_factor,
)
from repro.routing.ecube import ECubeRoutingScheme


def measure(name, scheme, graph):
    try:
        routing = scheme.build(graph)
    except ValueError:
        return None  # partial scheme: does not apply to this graph
    profile = memory_profile(routing)
    return {
        "scheme": name,
        "stretch": float(simulated_stretch_factor(routing)),
        "local": profile.local,
        "global": profile.global_,
    }


def main() -> None:
    families = {
        "random (n=96)": generators.random_connected_graph(96, extra_edge_prob=0.07, seed=3),
        "hypercube (n=64)": generators.hypercube(6),
        "tree (n=96)": generators.random_tree(96, seed=3),
        "outerplanar (n=64)": generators.outerplanar_graph(64, extra_chords=30, seed=3),
        "torus 8x8 (n=64)": generators.torus_2d(8, 8),
    }
    schemes = [
        ("routing tables", ShortestPathTableScheme()),
        ("interval routing", IntervalRoutingScheme()),
        ("tree 1-interval", TreeIntervalRoutingScheme()),
        ("e-cube", ECubeRoutingScheme()),
        ("landmarks (s<=3)", CowenLandmarkScheme(seed=1)),
        ("spanner-3 + landmarks", HierarchicalSpannerScheme(spanner_stretch=3.0, seed=1)),
    ]

    for family_name, graph in families.items():
        print(f"\n=== {family_name}: {graph.n} routers, {graph.num_edges} links ===")
        print(f"{'scheme':<24} {'stretch':>8} {'max bits/router':>16} {'total bits':>12}")
        print("-" * 64)
        for scheme_name, scheme in schemes:
            row = measure(scheme_name, scheme, graph)
            if row is None:
                print(f"{scheme_name:<24} {'(not applicable)':>8}")
                continue
            print(
                f"{row['scheme']:<24} {row['stretch']:>8.2f} {row['local']:>16d} {row['global']:>12d}"
            )


if __name__ == "__main__":
    main()
