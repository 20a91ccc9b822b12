#!/usr/bin/env python
"""Quickstart: build a network, install routing schemes, measure stretch and memory.

The library's whole subject is the trade-off between *stretch factor* (how
much longer routing paths are than shortest paths) and *local memory* (how
many bits each router needs).  This script builds a small random network,
installs three universal routing schemes on it and prints, for each, the
exact stretch and the measured per-router memory — the two axes of the
paper's Table 1.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import (
    CowenLandmarkScheme,
    IntervalRoutingScheme,
    ShortestPathTableScheme,
    generators,
    memory_profile,
    simulate_all_pairs,
    simulated_stretch_factor,
)


def main() -> None:
    # A random connected network with 64 routers.
    graph = generators.random_connected_graph(64, extra_edge_prob=0.08, seed=7)
    print(f"network: {graph.n} routers, {graph.num_edges} links, max degree {graph.max_degree()}")

    schemes = [
        ShortestPathTableScheme(),        # stretch 1, Theta(n log n) bits per router
        IntervalRoutingScheme(),          # stretch 1, cheaper on structured graphs
        CowenLandmarkScheme(seed=1),      # stretch <= 3, ~sqrt(n) entries per router
    ]

    print(f"\n{'scheme':<22} {'stretch':>8} {'max bits':>10} {'total bits':>12} {'mean bits':>10}")
    print("-" * 68)
    for scheme in schemes:
        routing = scheme.build(graph)
        profile = memory_profile(routing)
        s = float(simulated_stretch_factor(routing))
        print(
            f"{scheme.name:<22} {s:>8.2f} {profile.local:>10d} "
            f"{profile.global_:>12d} {profile.mean:>10.1f}"
        )

    # One message's fate, read off the all-pairs simulation.
    landmark_routing = CowenLandmarkScheme(seed=1).build(graph)
    result = simulate_all_pairs(landmark_routing)
    print(f"\nroute 0 -> 63 under landmark routing: {result.lengths[0, 63]} hops")
    print(f"delivered: {bool(result.delivered[0, 63])}")


if __name__ == "__main__":
    main()
