"""Unit tests for the graph generators.

The in-tree pairing-model sampler behind ``random_regular_graph`` is raced
against networkx's (``oracles.networkx_random_regular_graph``) seed for
seed, and every registry family's fingerprint is pinned at five seeds, so
any generator drift fails here.
"""

from __future__ import annotations

import random

import pytest

from oracles import is_chordal, is_outerplanar, networkx_random_regular_graph
from repro.graphs import generators, properties
from repro.sim.registry import graph_families


class TestBasicFamilies:
    def test_path_graph(self):
        g = generators.path_graph(6)
        assert g.n == 6 and g.num_edges == 5
        assert properties.is_tree(g)

    def test_path_graph_single_vertex(self):
        assert generators.path_graph(1).n == 1

    def test_path_graph_rejects_zero(self):
        with pytest.raises(ValueError):
            generators.path_graph(0)

    def test_cycle_graph(self):
        g = generators.cycle_graph(7)
        assert g.num_edges == 7
        assert properties.is_cycle(g)

    def test_cycle_rejects_small(self):
        with pytest.raises(ValueError):
            generators.cycle_graph(2)

    def test_star_graph(self):
        g = generators.star_graph(8)
        assert g.degree(0) == 7
        assert properties.is_tree(g)

    def test_complete_graph(self):
        g = generators.complete_graph(6)
        assert g.num_edges == 15
        assert properties.is_complete(g)
        assert properties.diameter(g) == 1

    def test_complete_bipartite(self):
        g = generators.complete_bipartite_graph(3, 4)
        assert g.n == 7 and g.num_edges == 12
        bip, _ = properties.is_bipartite(g)
        assert bip

    def test_complete_bipartite_rejects_empty_part(self):
        with pytest.raises(ValueError):
            generators.complete_bipartite_graph(0, 3)


class TestHypercube:
    def test_sizes(self):
        for dim in range(5):
            g = generators.hypercube(dim)
            assert g.n == 2 ** dim
            assert g.num_edges == dim * 2 ** (dim - 1) if dim else g.num_edges == 0

    def test_canonical_port_labelling(self):
        g = generators.hypercube(4)
        for u in g.vertices():
            for k in range(1, 5):
                assert g.neighbor_at_port(u, k) == u ^ (1 << (k - 1))

    def test_recognised_by_predicate(self):
        assert properties.is_hypercube(generators.hypercube(3))

    def test_diameter_equals_dimension(self):
        assert properties.diameter(generators.hypercube(4)) == 4

    def test_negative_dimension_rejected(self):
        with pytest.raises(ValueError):
            generators.hypercube(-1)


class TestGridTorusPetersen:
    def test_grid_structure(self):
        g = generators.grid_2d(3, 5)
        assert g.n == 15
        assert g.num_edges == 3 * 4 + 5 * 2
        assert properties.diameter(g) == 2 + 4

    def test_grid_rejects_zero(self):
        with pytest.raises(ValueError):
            generators.grid_2d(0, 3)

    def test_torus_is_regular(self):
        g = generators.torus_2d(4, 5)
        assert all(g.degree(v) == 4 for v in g.vertices())

    def test_torus_rejects_small_side(self):
        with pytest.raises(ValueError):
            generators.torus_2d(2, 5)

    def test_petersen_invariants(self):
        g = generators.petersen_graph()
        assert g.n == 10 and g.num_edges == 15
        assert all(g.degree(v) == 3 for v in g.vertices())
        assert properties.girth(g) == 5
        assert properties.diameter(g) == 2


class TestTrees:
    def test_binary_tree(self):
        g = generators.binary_tree(3)
        assert g.n == 15
        assert properties.is_tree(g)

    def test_random_tree_is_tree(self):
        for seed in range(5):
            g = generators.random_tree(20, seed=seed)
            assert properties.is_tree(g)

    def test_random_tree_small_sizes(self):
        assert generators.random_tree(1).n == 1
        assert generators.random_tree(2).num_edges == 1
        assert properties.is_tree(generators.random_tree(3, seed=0))

    def test_random_tree_deterministic_with_seed(self):
        a = generators.random_tree(15, seed=3)
        b = generators.random_tree(15, seed=3)
        assert sorted(a.edges()) == sorted(b.edges())

    def test_caterpillar(self):
        g = generators.caterpillar_tree(4, 2)
        assert g.n == 12
        assert properties.is_tree(g)

    def test_caterpillar_rejects_bad_args(self):
        with pytest.raises(ValueError):
            generators.caterpillar_tree(0, 2)


class TestStructuredClasses:
    def test_outerplanar_is_outerplanar(self):
        for seed in range(3):
            g = generators.outerplanar_graph(12, extra_chords=5, seed=seed)
            assert properties.is_connected(g)
            assert is_outerplanar(g)

    def test_outerplanar_rejects_tiny(self):
        with pytest.raises(ValueError):
            generators.outerplanar_graph(2)

    def test_interval_graph_from_intervals(self):
        g = generators.interval_graph_from_intervals([(0, 1), (0.5, 2), (3, 4)])
        assert g.has_edge(0, 1)
        assert not g.has_edge(0, 2)
        assert not g.has_edge(1, 2)

    def test_interval_graph_rejects_negative_length(self):
        with pytest.raises(ValueError):
            generators.interval_graph_from_intervals([(1, 0)])

    def test_random_interval_graph_is_chordal(self):
        g = generators.random_interval_graph(15, seed=2)
        assert is_chordal(g)

    def test_unit_circular_arc_graph(self):
        g = generators.unit_circular_arc_graph(12, arc_fraction=0.4, seed=1)
        assert g.n == 12

    def test_unit_circular_arc_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            generators.unit_circular_arc_graph(5, arc_fraction=1.5)

    def test_random_chordal_graph_is_chordal_and_connected(self):
        for seed in range(3):
            g = generators.random_chordal_graph(15, extra_edges=2, seed=seed)
            assert properties.is_connected(g)
            assert is_chordal(g)


class TestRandomFamilies:
    def test_random_connected_graph_is_connected(self):
        for seed in range(4):
            g = generators.random_connected_graph(25, extra_edge_prob=0.05, seed=seed)
            assert properties.is_connected(g)

    def test_random_connected_graph_prob_validation(self):
        with pytest.raises(ValueError):
            generators.random_connected_graph(10, extra_edge_prob=1.5)

    def test_random_regular_graph(self):
        g = generators.random_regular_graph(12, 3, seed=1)
        assert all(g.degree(v) == 3 for v in g.vertices())
        assert properties.is_connected(g)

    def test_random_regular_graph_rejects_odd_product(self):
        with pytest.raises(ValueError):
            generators.random_regular_graph(5, 3)

    @pytest.mark.parametrize("n,degree", [(4, 4), (4, -1), (1, 1)])
    def test_random_regular_graph_rejects_degree_out_of_range(self, n, degree):
        with pytest.raises(ValueError):
            generators.random_regular_graph(n, degree, seed=0)

    def test_random_regular_graph_gives_up_on_disconnected_families(self):
        # A 0-regular graph on two vertices is never connected.
        with pytest.raises(RuntimeError, match="50 attempts"):
            generators.random_regular_graph(2, 0, seed=0)

    def test_random_regular_graph_unseeded_is_regular_and_connected(self):
        g = generators.random_regular_graph(10, 4)
        assert set(g.degrees()) == {4}
        assert properties.is_connected(g)

    def test_expander_is_connected_small_diameter(self):
        g = generators.butterfly_like_expander(32, seed=0)
        assert properties.is_connected(g)
        assert properties.diameter(g) <= 10

    def test_expander_rejects_tiny(self):
        with pytest.raises(ValueError):
            generators.butterfly_like_expander(3)

    def test_all_generators_have_canonical_port_range(self):
        graphs = [
            generators.cycle_graph(5),
            generators.grid_2d(3, 3),
            generators.random_tree(10, seed=1),
            generators.random_connected_graph(10, seed=1),
            generators.outerplanar_graph(8, 2, seed=1),
        ]
        for g in graphs:
            g.check_port_consistency()


# ----------------------------------------------------------------------
# the pairing-model sampler against networkx
# ----------------------------------------------------------------------
#: ``(n, degree)`` grid of the differential race; the d = 2 rows are
#: mostly disjoint cycles on a first attempt, so ``seed + attempt``
#: retries are raced too.  A 1-regular graph is connected only at n = 2,
#: the one d = 1 row.
SAMPLER_GRID = [
    (n, d)
    for n in (3, 4, 5, 6, 7, 8, 9, 10, 12, 16, 21, 36)
    for d in (2, 3, 4, 5, 6)
    if d < n and n * d % 2 == 0
] + [(2, 1)]


def _first_attempt_disconnected(n, degree, seed):
    import networkx as nx

    return not nx.is_connected(nx.random_regular_graph(degree, n, seed=seed))


@pytest.mark.parametrize("n,degree", SAMPLER_GRID)
def test_random_regular_graph_matches_networkx(n, degree):
    for seed in range(6):
        ours = generators.random_regular_graph(n, degree, seed=seed)
        assert ours.fingerprint() == networkx_random_regular_graph(n, degree, seed).fingerprint()


def test_sampler_race_covers_the_retry_path():
    retried = [
        (n, d, seed)
        for n, d in SAMPLER_GRID
        for seed in range(6)
        if d == 2 and _first_attempt_disconnected(n, d, seed)
    ]
    assert len(retried) >= 10, retried


def test_sampler_draws_like_networkx_from_one_rng():
    # Same stream in, same edge set out: no connectivity retry involved.
    import networkx as nx

    for n, d, seed in [(10, 3, 0), (16, 5, 3), (30, 4, 9), (8, 7, 1)]:
        ours = generators._pairing_edges(n, d, random.Random(seed))
        theirs = {tuple(sorted(e)) for e in nx.random_regular_graph(d, n, seed=seed).edges}
        assert ours == theirs


# ----------------------------------------------------------------------
# registry pins
# ----------------------------------------------------------------------
#: Seeds at which every registry family is pinned.
PINNED_SEEDS = (0, 1, 7, 11, 42)

#: The first 12 hex digits of ``fingerprint()`` of every small and medium
#: registry family at each of ``PINNED_SEEDS``, recorded while the
#: random-regular family was still sampled by networkx.
REGISTRY_FINGERPRINTS = {
    ("small", "path"): (
        "726dd4b36d30", "726dd4b36d30", "726dd4b36d30", "726dd4b36d30", "726dd4b36d30",
    ),
    ("small", "cycle"): (
        "dba584ae4a2a", "dba584ae4a2a", "dba584ae4a2a", "dba584ae4a2a", "dba584ae4a2a",
    ),
    ("small", "star"): (
        "5e4f1387c56b", "5e4f1387c56b", "5e4f1387c56b", "5e4f1387c56b", "5e4f1387c56b",
    ),
    ("small", "complete"): (
        "d481141e2c6c", "d481141e2c6c", "d481141e2c6c", "d481141e2c6c", "d481141e2c6c",
    ),
    ("small", "complete-bipartite"): (
        "6916432953af", "6916432953af", "6916432953af", "6916432953af", "6916432953af",
    ),
    ("small", "hypercube"): (
        "179b5c10317e", "179b5c10317e", "179b5c10317e", "179b5c10317e", "179b5c10317e",
    ),
    ("small", "grid"): (
        "d13e4166e7b4", "d13e4166e7b4", "d13e4166e7b4", "d13e4166e7b4", "d13e4166e7b4",
    ),
    ("small", "torus"): (
        "ad2aa7f9cbbe", "ad2aa7f9cbbe", "ad2aa7f9cbbe", "ad2aa7f9cbbe", "ad2aa7f9cbbe",
    ),
    ("small", "petersen"): (
        "04de311afb92", "04de311afb92", "04de311afb92", "04de311afb92", "04de311afb92",
    ),
    ("small", "binary-tree"): (
        "604ae293021b", "604ae293021b", "604ae293021b", "604ae293021b", "604ae293021b",
    ),
    ("small", "random-tree"): (
        "ae9f4202be46", "e6fc8f77c145", "ede0ba8cac4c", "17692f027f4d", "a00c72395246",
    ),
    ("small", "caterpillar"): (
        "b0782f495cd1", "b0782f495cd1", "b0782f495cd1", "b0782f495cd1", "b0782f495cd1",
    ),
    ("small", "outerplanar"): (
        "96921411c5f0", "569f394b00a4", "62b73e5d102b", "c59289be145b", "cb0cb6501109",
    ),
    ("small", "unit-circular-arc"): (
        "550f4375b8c9", "668790b6cdf0", "6a87f4cf09dd", "587412667d7e", "799486ea9f16",
    ),
    ("small", "random-interval"): (
        "840bb84d76e8", "4c778ba1074c", "c3335ac57329", "bdd92a03e194", "7253e89259ea",
    ),
    ("small", "chordal"): (
        "290d7b9d87de", "a76406c3ae4b", "8d201aa9729c", "b367dbb89237", "89c9121b9924",
    ),
    ("small", "random-sparse"): (
        "31e569e02d14", "27de8a9fb4dd", "bbcf8b03ea76", "030a2d1dfd3a", "4e3638940595",
    ),
    ("small", "random-dense"): (
        "6bfc305ee0cb", "6d05ced123e4", "24bd221875cb", "6d2722bcc8f1", "2180775ee17f",
    ),
    ("small", "random-regular"): (
        "c79ac3ac514f", "95bab4d26381", "2c3df17856d3", "66e464231411", "6b4041026bcf",
    ),
    ("small", "expander"): (
        "70b01cf4e4f2", "bba60eecce6c", "2f23f46884de", "781916d97cbf", "1d9589351eb7",
    ),
    ("medium", "path"): (
        "9742d83dcbf2", "9742d83dcbf2", "9742d83dcbf2", "9742d83dcbf2", "9742d83dcbf2",
    ),
    ("medium", "cycle"): (
        "530cb43f10b2", "530cb43f10b2", "530cb43f10b2", "530cb43f10b2", "530cb43f10b2",
    ),
    ("medium", "star"): (
        "98f61403113e", "98f61403113e", "98f61403113e", "98f61403113e", "98f61403113e",
    ),
    ("medium", "complete"): (
        "0e2ea4aee235", "0e2ea4aee235", "0e2ea4aee235", "0e2ea4aee235", "0e2ea4aee235",
    ),
    ("medium", "complete-bipartite"): (
        "d7af170479d2", "d7af170479d2", "d7af170479d2", "d7af170479d2", "d7af170479d2",
    ),
    ("medium", "hypercube"): (
        "d914814c5d0d", "d914814c5d0d", "d914814c5d0d", "d914814c5d0d", "d914814c5d0d",
    ),
    ("medium", "grid"): (
        "416baead0b71", "416baead0b71", "416baead0b71", "416baead0b71", "416baead0b71",
    ),
    ("medium", "torus"): (
        "e6dd50a98935", "e6dd50a98935", "e6dd50a98935", "e6dd50a98935", "e6dd50a98935",
    ),
    ("medium", "petersen"): (
        "04de311afb92", "04de311afb92", "04de311afb92", "04de311afb92", "04de311afb92",
    ),
    ("medium", "binary-tree"): (
        "546fc49488e4", "546fc49488e4", "546fc49488e4", "546fc49488e4", "546fc49488e4",
    ),
    ("medium", "random-tree"): (
        "45a12ba69b1d", "79487c6a841a", "c17d996def08", "2c69ccc97338", "cd77280a907c",
    ),
    ("medium", "caterpillar"): (
        "0ddc56aaef24", "0ddc56aaef24", "0ddc56aaef24", "0ddc56aaef24", "0ddc56aaef24",
    ),
    ("medium", "outerplanar"): (
        "e32dda174295", "d5a1235b9677", "d99d082d3f65", "df2d36e12eb5", "acf4bb3046e3",
    ),
    ("medium", "unit-circular-arc"): (
        "b1811ad960ba", "73b5b4204771", "03145029409d", "5fa682ab4918", "92f98ec6b29a",
    ),
    ("medium", "random-interval"): (
        "76dc3895eff0", "ce00b745e58f", "d738f3d2138c", "67e7ab409262", "05a98bc3cc60",
    ),
    ("medium", "chordal"): (
        "cafe1c33762a", "e54780b0d9f2", "73d75eb6c3ef", "fd00c1aeea1f", "b5d2a4e7689f",
    ),
    ("medium", "random-sparse"): (
        "c33a250c3afc", "11b62e80b536", "150098cd9bdb", "7b4a5ef34718", "c623c4cbfd35",
    ),
    ("medium", "random-dense"): (
        "644ae1a8d542", "ad79e026675d", "34cc63f2b9e3", "29ae42a2fae5", "7fa56de89533",
    ),
    ("medium", "random-regular"): (
        "8e6beb8884df", "48135b943a05", "a97b5fb985c5", "f8ec2ea20952", "1c9f17717727",
    ),
    ("medium", "expander"): (
        "ec42d0ec37e3", "3b5434d27c66", "5b388bab29d7", "0c31ebf45d26", "9c3af8c48ab8",
    ),
}


def test_registry_pins_cover_every_family():
    for size in ("small", "medium"):
        names = {name for s, name in REGISTRY_FINGERPRINTS if s == size}
        assert names == set(graph_families(size=size, seed=0))


@pytest.mark.parametrize("size", ["small", "medium"])
@pytest.mark.parametrize("seed_index,seed", list(enumerate(PINNED_SEEDS)))
def test_registry_fingerprints_are_pinned(size, seed_index, seed):
    families = graph_families(size=size, seed=seed)
    drifted = {
        name: graph.fingerprint()[:12]
        for name, graph in families.items()
        if graph.fingerprint()[:12] != REGISTRY_FINGERPRINTS[size, name][seed_index]
    }
    assert not drifted
