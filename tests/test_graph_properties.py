"""Unit tests for the structural graph predicates.

The hypercube certificate of :func:`repro.graphs.properties.is_hypercube`
is raced against networkx's VF2 isomorphism test
(:func:`oracles.vf2_is_hypercube`) on hypercubes, relabelled and
edge-swapped hypercubes, random ``d``-regular graphs on ``2^d`` vertices
and the Hoffman graph (cospectral with ``Q_4``, not isomorphic to it).
VF2 stays at ``d <= 5``: on non-isomorphic regular graphs it is slow.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import profile_settings
from oracles import is_chordal, is_outerplanar, vf2_is_hypercube
from repro.graphs import generators, properties
from repro.graphs.digraph import PortLabeledGraph


class TestConnectivity:
    def test_connected_families(self):
        assert properties.is_connected(generators.petersen_graph())
        assert properties.is_connected(generators.hypercube(3))
        assert properties.is_connected(PortLabeledGraph(0))
        assert properties.is_connected(PortLabeledGraph(1))

    def test_disconnected(self):
        g = PortLabeledGraph(4, [(0, 1), (2, 3)])
        assert not properties.is_connected(g)

    def test_components(self):
        g = PortLabeledGraph(5, [(0, 1), (2, 3)])
        comps = properties.connected_components(g)
        assert comps == [[0, 1], [2, 3], [4]]

    @pytest.mark.parametrize(
        "graph",
        [
            PortLabeledGraph(0),
            PortLabeledGraph(1),
            PortLabeledGraph(2),
            PortLabeledGraph(4, [(0, 1), (2, 3)]),
            PortLabeledGraph(5, [(0, 1), (1, 2), (2, 3)]),
            generators.path_graph(2),
            generators.hypercube(8),
            generators.torus_2d(16, 16),
            generators.random_connected_graph(64, extra_edge_prob=0.05, seed=2),
        ],
        ids=[
            "empty",
            "single",
            "two-isolated",
            "two-edges",
            "isolated-tail",
            "edge",
            "hypercube",
            "torus",
            "random",
        ],
    )
    def test_is_connected_agrees_with_components(self, graph):
        assert properties.is_connected(graph) == (len(properties.connected_components(graph)) <= 1)


class TestRecognizers:
    def test_is_tree(self):
        assert properties.is_tree(generators.random_tree(12, seed=1))
        assert not properties.is_tree(generators.cycle_graph(5))
        assert not properties.is_tree(PortLabeledGraph(3, [(0, 1)]))

    def test_is_cycle(self):
        assert properties.is_cycle(generators.cycle_graph(5))
        assert not properties.is_cycle(generators.path_graph(5))
        assert not properties.is_cycle(generators.complete_graph(4))

    def test_is_complete(self):
        assert properties.is_complete(generators.complete_graph(5))
        assert not properties.is_complete(generators.cycle_graph(5))

    def test_is_bipartite(self):
        ok, colors = properties.is_bipartite(generators.grid_2d(3, 3))
        assert ok
        assert all(colors[u] != colors[v] for u, v in generators.grid_2d(3, 3).edges())
        bad, colors = properties.is_bipartite(generators.cycle_graph(5))
        assert not bad and colors is None

    def test_is_hypercube_true_and_false(self):
        assert properties.is_hypercube(generators.hypercube(3))
        assert properties.is_hypercube(generators.hypercube(1))
        assert not properties.is_hypercube(generators.cycle_graph(8))
        assert not properties.is_hypercube(generators.complete_graph(8))
        assert not properties.is_hypercube(generators.path_graph(6))

    def test_is_chordal(self):
        assert is_chordal(generators.complete_graph(5))
        assert is_chordal(generators.random_tree(10, seed=1))
        assert not is_chordal(generators.cycle_graph(6))

    def test_is_outerplanar(self):
        assert is_outerplanar(generators.cycle_graph(6))
        assert is_outerplanar(generators.path_graph(5))
        assert is_outerplanar(generators.complete_graph(3))
        assert not is_outerplanar(generators.complete_graph(5))
        # K_{2,3} is planar but not outerplanar.
        assert not is_outerplanar(generators.complete_bipartite_graph(2, 3))


class TestMetrics:
    def test_diameter_and_radius(self):
        g = generators.path_graph(7)
        assert properties.diameter(g) == 6
        assert properties.radius(g) == 3

    def test_diameter_rejects_disconnected(self):
        g = PortLabeledGraph(3, [(0, 1)])
        with pytest.raises(ValueError):
            properties.diameter(g)
        with pytest.raises(ValueError):
            properties.radius(g)

    def test_girth(self):
        assert properties.girth(generators.cycle_graph(7)) == 7
        assert properties.girth(generators.petersen_graph()) == 5
        assert properties.girth(generators.complete_graph(4)) == 3
        assert properties.girth(generators.random_tree(10, seed=0)) is None
        assert properties.girth(generators.grid_2d(3, 3)) == 4

    def test_degree_histogram(self):
        hist = properties.degree_histogram(generators.star_graph(5))
        assert hist[1] == 4 and hist[4] == 1


# ----------------------------------------------------------------------
# hypercube certificate against VF2
# ----------------------------------------------------------------------
#: The Hoffman graph: 4-regular and bipartite on 16 vertices, cospectral
#: with Q_4 but not isomorphic to it.
HOFFMAN_ADJACENCY = {
    0: (1, 7, 8, 13), 1: (2, 9, 14), 2: (3, 8, 10), 3: (4, 9, 15),
    4: (5, 10, 11), 5: (6, 12, 14), 6: (7, 11, 13), 7: (12, 15),
    8: (12, 14), 9: (11, 13), 10: (12, 15), 11: (14,), 13: (15,),
}


def _hoffman_graph():
    return PortLabeledGraph(16, [(u, v) for u, vs in HOFFMAN_ADJACENCY.items() for v in vs])


def _relabelled(graph, seed):
    """``graph`` under a seeded vertex permutation, ports in edge order."""
    perm = list(range(graph.n))
    random.Random(seed).shuffle(perm)
    return PortLabeledGraph(graph.n, [(perm[u], perm[v]) for u, v in graph.edges()])


def _swap(graph, ab, ce):
    """The double edge swap ``ab, ce -> ae, cb``, or ``None`` if not simple.

    Each vertex keeps its degree, so a swapped cube passes every degree
    and edge-count check and only the certificate can tell.
    """
    (a, b), (c, e) = ab, ce
    if len({a, b, c, e}) < 4 or graph.has_edge(a, e) or graph.has_edge(c, b):
        return None
    dropped = {tuple(sorted(ab)), tuple(sorted(ce))}
    kept = [f for f in graph.edges() if f not in dropped]
    return PortLabeledGraph(graph.n, kept + [(a, e), (c, b)])


def _swapped(graph, seed):
    """A seeded simple double edge swap of ``graph``."""
    rng = random.Random(seed)
    edges = list(graph.edges())
    while True:
        (a, b), ce = rng.sample(edges, 2)
        swapped = _swap(graph, (a, b) if rng.random() < 0.5 else (b, a), ce)
        if swapped is not None:
            return swapped


def _vf2_corpus():
    for d in range(6):
        cube = generators.hypercube(d)
        yield f"Q{d}", cube
        for seed in range(3):
            yield f"Q{d}-relabelled-{seed}", _relabelled(cube, seed)
        if 2 <= d <= 4:  # VF2 on a swapped Q5 takes seconds
            for seed in range(6):
                yield f"Q{d}-swapped-{seed}", _swapped(cube, seed)
        if d >= 2:
            for seed in range(10):
                yield f"regular-{d}-{seed}", generators.random_regular_graph(2**d, d, seed=seed)
    hoffman = _hoffman_graph()
    yield "hoffman", hoffman
    for seed in range(3):
        yield f"hoffman-relabelled-{seed}", _relabelled(hoffman, seed)
    yield "cycle-8", generators.cycle_graph(8)
    yield "complete-8", generators.complete_graph(8)
    yield "complete-bipartite-4-4", generators.complete_bipartite_graph(4, 4)
    yield "torus-4x4", generators.torus_2d(4, 4)
    yield "two-Q3", PortLabeledGraph(
        16, list(generators.hypercube(3).edges()) + [(u + 8, v + 8) for u, v in generators.hypercube(3).edges()]
    )


_VF2_CORPUS = list(_vf2_corpus())


@pytest.mark.parametrize("name,graph", _VF2_CORPUS, ids=[name for name, _ in _VF2_CORPUS])
def test_is_hypercube_agrees_with_vf2(name, graph):
    assert properties.is_hypercube(graph) == vf2_is_hypercube(graph)


def test_vf2_corpus_holds_hard_negatives_and_positives():
    verdicts = {name: properties.is_hypercube(graph) for name, graph in _VF2_CORPUS}
    assert not verdicts["hoffman"]
    # The 4x4 torus is Q4 (C4 x C4 = K2^4): a positive the checks must not refuse.
    assert verdicts["torus-4x4"]
    assert sum(verdicts.values()) >= 20
    assert sum(not v for v in verdicts.values()) >= 40


@pytest.mark.parametrize("d", [6, 7, 8])
def test_is_hypercube_accepts_large_relabelled_cubes(d):
    cube = generators.hypercube(d)
    assert properties.is_hypercube(cube)
    assert properties.is_hypercube(_relabelled(cube, seed=d))


def test_no_double_edge_swap_of_q4_is_a_hypercube():
    cube = generators.hypercube(4)
    swaps = [
        _swap(cube, ab, ce)
        for (a, b), ce in itertools.combinations(cube.edges(), 2)
        for ab in ((a, b), (b, a))
    ]
    swaps = [g for g in swaps if g is not None]
    assert len(swaps) == 560
    assert not any(properties.is_hypercube(g) for g in swaps)


@profile_settings(25)
@given(
    d=st.integers(min_value=1, max_value=7),
    perm_seed=st.integers(min_value=0, max_value=10**6),
    swap_seed=st.integers(min_value=0, max_value=10**6),
)
def test_relabelled_cubes_accepted_and_swapped_cubes_rejected(d, perm_seed, swap_seed):
    cube = _relabelled(generators.hypercube(d), perm_seed)
    assert properties.is_hypercube(cube)
    if d >= 4:
        # From d = 4 on no degree-preserving double edge swap of Q_d is a
        # hypercube (exhaustive for d = 4 above; Q_3 has swaps that are).
        assert not properties.is_hypercube(_swapped(cube, swap_seed))
