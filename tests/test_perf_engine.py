"""Cross-checks for the performance engine introduced by the enumeration PR.

Three families of guarantees:

* the BFS first-arc oracle is bit-for-bit equivalent to the
  bounded-length path enumeration of ``tests/oracles.py`` (property-based:
  random graphs x random pairs x stretches in {1, 1.25, 1.5, 2}, both open
  and closed budgets);
* the orbit-pruned streaming enumerator yields exactly the classes of the
  seed's exhaustive product walk (``tests/oracles.py``; every
  ``p * q <= 12``, ``d <= 3`` within the exact-canonicalisation dimension
  limit, the seven Equation (2) representatives included);
* the cached CSR adjacency serves repeated distance/verification queries
  without re-extracting edges and is invalidated by every mutation.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import (
    canonical_form_reference,
    enumerated_first_arcs,
    enumerated_forced_first_arcs,
    product_walk_canonical_matrices,
)
from repro.constraints.enumeration import (
    enumerate_canonical_matrices,
    iter_canonical_matrices,
    normalized_rows,
)
from repro.constraints.matrix import (
    EXACT_LIMIT,
    ConstraintMatrix,
    are_equivalent,
    canonical_form,
)
from repro.constraints.verifier import forced_first_arcs
from repro.constraints.builder import build_constraint_graph
from repro.graphs import generators
from repro.graphs.digraph import PortLabeledGraph
from repro.graphs.shortest_paths import (
    bfs_distances,
    distance_matrix,
    first_arcs_of_near_shortest_paths,
    near_shortest_budget,
)

_SETTINGS = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])

STRETCHES = (1.0, 1.25, 1.5, 2.0)

#: Above this many legacy candidates (``|rows|^p * q!``) the seed walk is
#: too slow to run in a unit test; the streaming-vs-sorted consistency
#: check still covers those cases.
_LEGACY_BUDGET = 80_000


# ----------------------------------------------------------------------
# BFS first-arc oracle == legacy enumeration
# ----------------------------------------------------------------------
@_SETTINGS
@given(
    n=st.integers(min_value=3, max_value=22),
    extra=st.floats(min_value=0.0, max_value=0.5),
    seed=st.integers(min_value=0, max_value=10**6),
    pair_seed=st.integers(min_value=0, max_value=10**6),
)
def test_first_arc_oracle_matches_enumeration(n, extra, seed, pair_seed):
    graph = generators.random_connected_graph(n, extra_edge_prob=extra, seed=seed)
    rng = np.random.default_rng(pair_seed)
    for _ in range(4):
        source, target = (int(x) for x in rng.choice(n, size=2, replace=False))
        for stretch in STRETCHES:
            for strict in (False, True):
                legacy = enumerated_first_arcs(graph, source, target, stretch, strict=strict)
                oracle = first_arcs_of_near_shortest_paths(
                    graph, source, target, stretch, strict=strict
                )
                assert oracle == legacy


def test_first_arc_oracle_on_lemma2_graphs():
    for seed, (p, q, d) in enumerate([(2, 3, 3), (4, 5, 4), (6, 10, 6)]):
        cg = build_constraint_graph(ConstraintMatrix.random(p, q, d, seed=seed))
        for stretch in STRETCHES:
            for strict in (False, True):
                legacy = enumerated_forced_first_arcs(
                    cg.graph, cg.constrained, cg.targets, stretch, strict=strict
                )
                oracle = forced_first_arcs(
                    cg.graph, cg.constrained, cg.targets, stretch, strict=strict
                )
                assert oracle == legacy


def test_first_arc_oracle_strict_open_bound():
    # d(0, 2) = 2 on C6; the long way round has length 4 = 2 * d, admitted by
    # the closed bound and excluded by the open one.
    graph = generators.cycle_graph(6)
    for first_arcs in (first_arcs_of_near_shortest_paths, enumerated_first_arcs):
        loose = first_arcs(graph, 0, 2, 2.0, strict=False)
        strict = first_arcs(graph, 0, 2, 2.0, strict=True)
        assert len(loose) == 2
        assert len(strict) == 1


def test_first_arc_oracle_excluded_source_detour():
    # Path graph 0 - 1 - 2: from source 1, the arc towards 0 dead-ends, so it
    # is inadmissible at every stretch even though 1 + d(0, 2) is within the
    # budget of a walk through the source.  The G - source BFS settles it.
    graph = generators.path_graph(3)
    for stretch in (1.0, 3.0, 10.0):
        for strict in (False, True):
            oracle = first_arcs_of_near_shortest_paths(graph, 1, 2, stretch, strict=strict)
            legacy = enumerated_first_arcs(graph, 1, 2, stretch, strict=strict)
            assert oracle == legacy
            assert all(arc.head == 2 for arc in oracle)


def test_first_arc_oracle_unreachable_and_errors():
    graph = PortLabeledGraph(4, [(0, 1), (2, 3)])
    assert first_arcs_of_near_shortest_paths(graph, 0, 3, 2.0) == set()
    with pytest.raises(ValueError):
        first_arcs_of_near_shortest_paths(graph, 1, 1, 2.0)


def test_near_shortest_budget_open_and_closed():
    assert near_shortest_budget(2, 2.0, strict=False) == 4
    assert near_shortest_budget(2, 2.0, strict=True) == 3
    assert near_shortest_budget(2, 1.6, strict=True) == 3
    assert near_shortest_budget(1, 1.0, strict=True) == 0


# ----------------------------------------------------------------------
# streaming enumerator == sorted enumerator == seed walk
# ----------------------------------------------------------------------
def _satellite_cases():
    for p in range(1, 13):
        for q in range(1, 13):
            if p * q > 12 or max(p, q) > EXACT_LIMIT:
                continue
            for d in range(1, 4):
                yield p, q, d


@pytest.mark.parametrize("p,q,d", sorted(set(_satellite_cases())))
def test_streaming_enumerator_matches_sorted_and_legacy(p, q, d):
    streamed = {m.entries for m in iter_canonical_matrices(p, q, d)}
    sorted_reps = enumerate_canonical_matrices(p, q, d)
    assert {m.entries for m in sorted_reps} == streamed
    assert [m.entries for m in sorted_reps] == sorted(m.entries for m in sorted_reps)
    legacy_work = len(normalized_rows(q, d)) ** p * math.factorial(q)
    if legacy_work <= _LEGACY_BUDGET:
        legacy = product_walk_canonical_matrices(p, q, d)
        assert [m.entries for m in sorted_reps] == [m.entries for m in legacy]


def test_equation2_seven_representatives_streamed():
    reps = list(iter_canonical_matrices(2, 3, 3))
    assert len(reps) == 7
    assert {m.entries for m in reps} == {
        m.entries for m in product_walk_canonical_matrices(2, 3, 3)
    }


def test_single_row_classes_are_partitions():
    # |M^d_{1,q}| equals the number of partitions of q into at most d parts —
    # an independent closed-form check of the orbit-pruned engine.
    def partitions(q, d, largest=None):
        if largest is None:
            largest = q
        if q == 0:
            return 1
        return sum(
            partitions(q - part, d - 1, part)
            for part in range(min(q, largest), 0, -1)
            if d > 0
        )

    for q in (3, 5, 8):
        for d in (1, 2, 3):
            assert sum(1 for _ in iter_canonical_matrices(1, q, d)) == partitions(q, d)


def test_streaming_enumerator_is_lazy():
    iterator = iter_canonical_matrices(3, 4, 3)
    first = next(iterator)
    assert isinstance(first, ConstraintMatrix)
    assert first.entries == first.canonical().entries


def test_vectorised_canonical_matches_reference():
    # Random matrices up to 7x7 against the per-column-order loop.
    rng = np.random.default_rng(11)
    for _ in range(150):
        p = int(rng.integers(1, 8))
        q = int(rng.integers(1, 8))
        d = int(rng.integers(1, 8))
        arr = rng.integers(1, d + 1, size=(p, q))
        assert np.array_equal(canonical_form(arr), canonical_form_reference(arr)), arr


# ----------------------------------------------------------------------
# cached adjacency / distance matrix regression
# ----------------------------------------------------------------------
def test_distance_matrix_does_not_reextract_edges(monkeypatch):
    graph = generators.random_connected_graph(80, extra_edge_prob=0.05, seed=1)
    first = distance_matrix(graph)

    def _poisoned_edges():
        raise AssertionError("distance_matrix re-extracted the edge list")

    monkeypatch.setattr(graph, "edges", _poisoned_edges)
    monkeypatch.setattr(
        graph, "neighbors", lambda u: pytest.fail("distance_matrix walked neighbour dicts")
    )
    again = distance_matrix(graph)
    assert again is first  # memoised on the graph's derived state
    assert graph.derived.distances is first


def test_adjacency_arrays_in_port_order():
    graph = generators.petersen_graph()
    indptr, indices = graph.adjacency_arrays()
    for u in graph.vertices():
        slice_ = list(int(v) for v in indices[indptr[u] : indptr[u + 1]])
        assert slice_ == [graph.neighbor_at_port(u, p) for p in graph.ports(u)]


def test_adjacency_cache_invalidated_on_mutation():
    graph = PortLabeledGraph(4, [(0, 1), (1, 2)])
    distance_matrix(graph)
    derived = graph.derived
    arrays = graph.adjacency_arrays()
    graph.add_edge(2, 3)
    assert graph.derived is not derived and graph.derived.distances is None
    assert graph.adjacency_arrays() is not arrays
    assert list(bfs_distances(graph, 0)) == [0, 1, 2, 3]
    # Port relabelling changes neighbour order, which the arrays encode.
    arrays = graph.adjacency_arrays()
    graph.relabel_ports(1, {1: 2, 2: 1})
    indptr, indices = graph.adjacency_arrays()
    assert graph.adjacency_arrays() is not arrays
    assert [int(v) for v in indices[indptr[1] : indptr[1 + 1]]] == [
        graph.neighbor_at_port(1, 1),
        graph.neighbor_at_port(1, 2),
    ]


def test_adjacency_cache_after_add_vertex():
    graph = generators.path_graph(3)
    graph.adjacency_arrays()
    fresh = graph.add_vertex()
    indptr, indices = graph.adjacency_arrays()
    assert len(indptr) == graph.n + 1
    assert indptr[fresh] == indptr[fresh + 1]  # isolated


def test_adjacency_cache_invalidated_on_set_port_labeling():
    graph = generators.petersen_graph()
    arrays = graph.adjacency_arrays()
    distance_matrix(graph)
    derived = graph.derived
    nbrs = graph.neighbors(0)
    reversed_map = {v: len(nbrs) - i for i, v in enumerate(nbrs)}
    graph.set_port_labeling(0, reversed_map)
    assert graph.adjacency_arrays() is not arrays
    assert graph.derived is not derived and graph.derived.distances is None
    indptr, indices = graph.adjacency_arrays()
    assert [int(v) for v in indices[indptr[0] : indptr[1]]] == [
        graph.neighbor_at_port(0, p) for p in graph.ports(0)
    ]


def test_adjacency_cache_invalidated_on_sort_ports_by_neighbor():
    # Build with edges in an order that makes the insertion labelling
    # non-canonical, cache, then canonicalise.
    graph = PortLabeledGraph(4, [(0, 3), (0, 1), (0, 2), (1, 2)])
    assert graph.neighbors(0) == [3, 1, 2]
    arrays = graph.adjacency_arrays()
    graph.sort_ports_by_neighbor()
    assert graph.adjacency_arrays() is not arrays
    indptr, indices = graph.adjacency_arrays()
    assert [int(v) for v in indices[indptr[0] : indptr[1]]] == [1, 2, 3]


def test_adjacency_cache_rejected_relabeling_keeps_cache_valid():
    graph = generators.petersen_graph()
    arrays = graph.adjacency_arrays()
    with pytest.raises(ValueError):
        graph.set_port_labeling(0, {1: 1})  # wrong neighbour set: no mutation
    with pytest.raises(ValueError):
        graph.relabel_ports(0, {1: 1, 2: 2})  # incomplete permutation
    # The failed calls must not have invalidated (or corrupted) the cache.
    assert graph.adjacency_arrays() is arrays


def test_mutating_a_copy_keeps_the_source_adjacency_cache():
    graph = generators.cycle_graph(6)
    original_arrays = graph.adjacency_arrays()
    clone = graph.copy()
    clone.add_edge(0, 3)
    # Mutating the copy must not disturb the original's cache...
    assert graph.adjacency_arrays() is original_arrays
    assert not graph.has_edge(0, 3)
    # ...and the copy serves its own post-mutation arrays.
    indptr, indices = clone.adjacency_arrays()
    assert indptr[1] - indptr[0] == 3


def test_scheme_port_relabeling_refreshes_distances():
    # ModularCompleteGraphScheme relabels every vertex in place; a distance
    # matrix memoised beforehand must not leak a stale adjacency into BFS
    # sweeps afterwards.
    from repro.routing.complete import ModularCompleteGraphScheme

    graph = generators.complete_graph(8)
    before = distance_matrix(graph)
    rf = ModularCompleteGraphScheme().build(graph)
    after = distance_matrix(graph)
    assert np.array_equal(before, after)  # relabelling preserves the edges
    for x in range(8):
        for dest in range(8):
            if x != dest:
                assert graph.neighbor_at_port(x, rf.port_to(x, dest)) == dest


# ----------------------------------------------------------------------
# ConstraintMatrix canonical caching and class-level equality
# ----------------------------------------------------------------------
def test_canonical_cached_on_instance():
    matrix = ConstraintMatrix.random(3, 4, 3, seed=5)
    first = matrix.canonical()
    assert matrix.canonical() is first
    assert first.canonical() is first


def test_class_level_equality_and_hash():
    matrix = ConstraintMatrix.from_entries([[1, 2, 3], [1, 1, 2]])
    acted = matrix.permuted(row_perm=[1, 0], col_perm=[2, 0, 1])
    assert matrix == acted
    assert hash(matrix) == hash(acted)
    assert len({matrix, acted}) == 1
    other = ConstraintMatrix.from_entries([[1, 1, 1], [1, 1, 1]])
    assert matrix != other
    assert matrix != ConstraintMatrix.from_entries([[1, 2], [1, 1]])  # shape mismatch


def test_structural_fallback_beyond_exact_limit():
    big = ConstraintMatrix.random(10, 12, 4, seed=2)
    same = ConstraintMatrix.from_entries(big.entries)
    assert big == same
    assert hash(big) == hash(same)
    shuffled = big.permuted(row_perm=list(range(1, 10)) + [0])
    if shuffled.entries != big.entries:
        # Equivalent but structurally different: beyond the exact limit the
        # intractable Definition 2 test falls back to structural inequality.
        assert big != shuffled


@pytest.mark.parametrize("shape", [(EXACT_LIMIT + 1, 2), (2, EXACT_LIMIT + 1)])
def test_exact_canonicalisation_beyond_the_limit_raises(shape):
    matrix = ConstraintMatrix.random(*shape, 3, seed=4)
    arr = matrix.to_array()
    for attempt in (
        lambda: canonical_form(arr),
        lambda: are_equivalent(arr, arr),
        matrix.canonical,
        lambda: canonical_form_reference(arr),
    ):
        with pytest.raises(ValueError, match=rf"EXACT_LIMIT \({EXACT_LIMIT}\)"):
            attempt()


def test_canonical_key_is_class_invariant():
    matrix = ConstraintMatrix.random(3, 3, 3, seed=8)
    acted = matrix.permuted(col_perm=[1, 2, 0])
    assert matrix.canonical_key == acted.canonical_key
    assert matrix.canonical_key[0] == (3, 3)
