"""Property-based tests (hypothesis) on the core data structures and invariants."""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import TABLE_CODER_ORACLES, stretch_factor
from repro.constraints.builder import build_constraint_graph, lemma2_order_bound
from repro.constraints.enumeration import lemma1_lower_bound_log2, lemma1_simplified_log2
from repro.constraints.matrix import (
    ConstraintMatrix,
    canonical_form,
    matrix_index,
    row_normal_form,
)
from repro.constraints.reconstruction import decode_witness, encode_witness, query_constrained_ports, reconstruct_matrix
from repro.constraints.verifier import verify_constraint_matrix
from repro.graphs import generators
from repro.graphs.shortest_paths import bfs_distances, distance_matrix
from repro.memory.encoding import BitReader, BitWriter
from repro.routing.interval import cyclic_intervals_of_set
from repro.routing.spanner import greedy_spanner, spanner_stretch
from repro.routing.tables import ShortestPathTableScheme

_SETTINGS = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])


# ----------------------------------------------------------------------
# Bit encoding round-trips
# ----------------------------------------------------------------------
@_SETTINGS
@given(st.lists(st.integers(min_value=1, max_value=10**6), min_size=1, max_size=30))
def test_elias_gamma_roundtrip(values):
    writer = BitWriter()
    for v in values:
        writer.write_elias_gamma(v)
    reader = BitReader(writer.to_bits())
    assert [reader.read_elias_gamma() for _ in values] == values


@_SETTINGS
@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=2**20 - 1), st.integers(min_value=20, max_value=24)),
        min_size=1,
        max_size=30,
    )
)
def test_fixed_width_roundtrip(pairs):
    writer = BitWriter()
    for value, width in pairs:
        writer.write_uint(value, width)
    reader = BitReader(writer.to_bits())
    assert [reader.read_uint(width) for _, width in pairs] == [value for value, _ in pairs]


# ----------------------------------------------------------------------
# Cyclic intervals
# ----------------------------------------------------------------------
@_SETTINGS
@given(st.data())
def test_cyclic_intervals_cover_exactly(data):
    n = data.draw(st.integers(min_value=1, max_value=40))
    labels = data.draw(st.sets(st.integers(min_value=0, max_value=n - 1), max_size=n))
    intervals = cyclic_intervals_of_set(sorted(labels), n)
    covered = set()
    for lo, hi in intervals:
        k = lo
        while True:
            covered.add(k)
            if k == hi:
                break
            k = (k + 1) % n
    assert covered == labels


# ----------------------------------------------------------------------
# Graphs and shortest paths
# ----------------------------------------------------------------------
@_SETTINGS
@given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=10**6))
def test_random_tree_distances_satisfy_triangle_equality_on_paths(n, seed):
    tree = generators.random_tree(n, seed=seed)
    dist = distance_matrix(tree)
    # In a tree the distance matrix is a metric and d(u,v) <= n - 1.
    assert dist.max() <= n - 1
    assert (dist == dist.T).all()
    assert (np.diag(dist) == 0).all()


@_SETTINGS
@given(st.integers(min_value=5, max_value=30), st.integers(min_value=0, max_value=10**6))
def test_distance_matrix_triangle_inequality(n, seed):
    g = generators.random_connected_graph(n, extra_edge_prob=0.15, seed=seed)
    dist = distance_matrix(g)
    for u, v in g.edges():
        assert abs(dist[u] - dist[v]).max() <= 1  # adjacent rows differ by at most 1


@_SETTINGS
@given(st.integers(min_value=5, max_value=25), st.integers(min_value=0, max_value=10**6))
def test_bfs_matches_distance_matrix_row(n, seed):
    g = generators.random_connected_graph(n, extra_edge_prob=0.2, seed=seed)
    dist = distance_matrix(g)
    assert (bfs_distances(g, 0) == dist[0]).all()


# ----------------------------------------------------------------------
# Routing invariants
# ----------------------------------------------------------------------
@_SETTINGS
@given(st.integers(min_value=3, max_value=22), st.integers(min_value=0, max_value=10**6))
def test_routing_tables_always_have_stretch_one(n, seed):
    g = generators.random_connected_graph(n, extra_edge_prob=0.2, seed=seed)
    rf = ShortestPathTableScheme().build(g)
    assert float(stretch_factor(rf)) == 1.0


@_SETTINGS
@given(
    st.integers(min_value=4, max_value=20),
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from([1.0, 3.0, 5.0]),
)
def test_greedy_spanner_never_exceeds_stretch(n, seed, t):
    g = generators.random_connected_graph(n, extra_edge_prob=0.3, seed=seed)
    h = greedy_spanner(g, t)
    assert spanner_stretch(g, h) <= t
    assert h.num_edges <= g.num_edges


# ----------------------------------------------------------------------
# Memory coders: every coder decodes to the map it encoded
# ----------------------------------------------------------------------
@_SETTINGS
@given(st.integers(min_value=3, max_value=18), st.integers(min_value=0, max_value=10**6))
def test_all_coders_roundtrip_on_random_tables(n, seed):
    g = generators.random_connected_graph(n, extra_edge_prob=0.25, seed=seed)
    rf = ShortestPathTableScheme().build(g)
    node = seed % n
    local = rf.local_map(node)
    degree = g.degree(node)
    for coder in TABLE_CODER_ORACLES:
        result = coder.encode(node, n, degree, local)
        assert coder.decode(node, n, degree, result.payload) == local


# ----------------------------------------------------------------------
# Constraint matrices
# ----------------------------------------------------------------------
_matrix_strategy = st.integers(min_value=1, max_value=4).flatmap(
    lambda p: st.integers(min_value=1, max_value=4).flatmap(
        lambda q: st.lists(
            st.lists(st.integers(min_value=1, max_value=4), min_size=q, max_size=q),
            min_size=p,
            max_size=p,
        )
    )
)


@_SETTINGS
@given(_matrix_strategy)
def test_row_normal_form_is_idempotent(entries):
    once = row_normal_form(entries)
    twice = row_normal_form(once)
    assert np.array_equal(once, twice)


@_SETTINGS
@given(_matrix_strategy)
def test_canonical_form_is_idempotent_and_no_larger(entries):
    canon = canonical_form(entries)
    assert np.array_equal(canonical_form(canon), canon)
    assert matrix_index(canon) <= matrix_index(row_normal_form(entries))


@_SETTINGS
@given(_matrix_strategy, st.integers(min_value=0, max_value=10**6))
def test_canonical_form_invariant_under_random_group_action(entries, seed):
    rng = np.random.default_rng(seed)
    matrix = ConstraintMatrix.from_entries(entries)
    p, q = matrix.shape
    d = matrix.max_entry
    row_perm = list(rng.permutation(p))
    col_perm = list(rng.permutation(q))
    value_perms = []
    for _ in range(p):
        perm = list(rng.permutation(d) + 1)
        value_perms.append({v + 1: perm[v] for v in range(d)})
    acted = matrix.permuted(row_perm=row_perm, col_perm=col_perm, value_perms=value_perms)
    assert matrix.canonical().entries == acted.canonical().entries


@_SETTINGS
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=4),
)
def test_lemma1_simplified_never_exceeds_exact_log(p, q, d):
    assert lemma1_simplified_log2(p, q, d) <= lemma1_lower_bound_log2(p, q, d) + 1e-9


# ----------------------------------------------------------------------
# Lemma 2 construction + Theorem 1 reconstruction, end to end
# ----------------------------------------------------------------------
@_SETTINGS
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=0, max_value=10**6),
)
def test_lemma2_graphs_always_verify_and_reconstruct(p, q, d, seed):
    matrix = ConstraintMatrix.random(p, q, d, seed=seed)
    cg = build_constraint_graph(matrix)
    assert cg.order <= lemma2_order_bound(p, q, d)
    report = verify_constraint_matrix(
        cg.graph, cg.matrix, cg.constrained, cg.targets, stretch=2.0, strict=True
    )
    assert report.ok
    rf = ShortestPathTableScheme().build(cg.graph)
    witness = query_constrained_ports(rf, cg.constrained, cg.targets)
    assert decode_witness(encode_witness(witness)) == witness
    assert reconstruct_matrix(witness).entries == cg.matrix.canonical().entries
