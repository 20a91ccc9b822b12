"""The bit-parallel BFS kernel against scipy, and the per-graph distance memo.

:func:`repro.graphs.shortest_paths.bfs_rows` is the one distance primitive
of the package: the all-pairs matrix (:func:`distance_matrix`), the
fault-masked matrix (:func:`surviving_distance_matrix`) and the targeted
column rebuilds of :func:`incremental_distance_matrix` all run it.  Every
result here is byte-compared with :func:`conftest.scipy_distances`, the
scipy path those call sites used before.

The memo half pins :class:`repro.graphs.digraph.DerivedState`: one holder
per snapshot (distances, fingerprint, port matrices and spanners), shared
by unmutated copies, replaced by every mutator, and never pickled.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import connected_graphs, profile_settings, scipy_distances
from repro.graphs import generators
from repro.graphs.digraph import PortLabeledGraph
from repro.graphs.shortest_paths import bfs_rows, distance_matrix
from repro.routing.program import (
    _port_dirty_vertices,
    apply_delta,
    compile_scheme_program,
    incremental_distance_matrix,
)
from repro.routing import program as program_module
from repro.routing.tables import ShortestPathTableScheme
from repro.sim.faults import surviving_distance_matrix
from repro.sim.registry import fault_scenarios, graph_families


def _oracle(graph, sources=None):
    indptr, indices = graph.adjacency_arrays()
    return scipy_distances(indptr, indices, graph.n, sources)


def _assert_bytes_equal(got, want):
    assert got.dtype == want.dtype == np.int64
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@st.composite
def sparse_graphs(draw, max_n=150):
    """Random graphs that may be empty, disconnected or have isolated vertices.

    Sizes straddle the 64-source word boundary of the kernel.
    """
    n = draw(st.integers(min_value=0, max_value=max_n))
    p = draw(st.floats(min_value=0.0, max_value=0.2))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    rng = np.random.default_rng(seed)
    graph = PortLabeledGraph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                graph.add_edge(u, v)
    return graph


# ----------------------------------------------------------------------
# the kernel against scipy
# ----------------------------------------------------------------------
@pytest.mark.parametrize("size", ["small", "medium"])
def test_registry_families_match_scipy(size):
    for name, graph in graph_families(size, seed=0).items():
        _assert_bytes_equal(distance_matrix(graph), _oracle(graph))


@pytest.mark.parametrize(
    "graph",
    [
        generators.hypercube(8),
        generators.torus_2d(16, 16),
        generators.grid_2d(9, 15),
        generators.random_connected_graph(256, extra_edge_prob=0.01, seed=3),
        generators.cycle_graph(65),
        generators.star_graph(129),
    ],
    ids=["hypercube8", "torus16", "grid9x15", "random256", "cycle65", "star129"],
)
def test_multi_word_graphs_match_scipy(graph):
    _assert_bytes_equal(distance_matrix(graph), _oracle(graph))


@pytest.mark.parametrize(
    "graph",
    [
        PortLabeledGraph(0),
        PortLabeledGraph(1),
        PortLabeledGraph(5),
        PortLabeledGraph(6, [(0, 1), (1, 2), (3, 4)]),
        # Isolated vertices first, in the middle and last: the reduceat
        # offsets of empty CSR rows are the kernel's edge case.
        PortLabeledGraph(70, [(v, v + 1) for v in range(1, 68) if v != 40]),
        PortLabeledGraph(130, [(0, 129), (64, 65), (63, 64)]),
    ],
    ids=["n0", "n1", "edgeless5", "two-components", "isolated-ends", "sparse130"],
)
def test_degenerate_graphs_match_scipy(graph):
    _assert_bytes_equal(distance_matrix(graph), _oracle(graph))


@profile_settings(40)
@given(graph=sparse_graphs())
def test_hypothesis_sparse_graphs_match_scipy(graph):
    _assert_bytes_equal(distance_matrix(graph), _oracle(graph))


@profile_settings(40)
@given(graph=connected_graphs(max_n=90))
def test_hypothesis_connected_graphs_match_scipy(graph):
    _assert_bytes_equal(distance_matrix(graph), _oracle(graph))


@profile_settings(40)
@given(graph=sparse_graphs(max_n=140), data=st.data())
def test_hypothesis_source_subsets_match_scipy(graph, data):
    # The incremental distance update rebuilds only the affected columns:
    # any subset of sources, in any order, 0 to n of them.
    sources = data.draw(
        st.lists(st.integers(min_value=0, max_value=max(graph.n - 1, 0)), max_size=graph.n)
        if graph.n
        else st.just([])
    )
    indptr, indices = graph.adjacency_arrays()
    rows = bfs_rows(indptr, indices, graph.n, sources=np.asarray(sources, dtype=np.int64))
    _assert_bytes_equal(rows, _oracle(graph, sources))
    assert rows.flags.c_contiguous


def test_source_rows_are_rows_of_the_full_matrix():
    graph = generators.random_connected_graph(100, extra_edge_prob=0.05, seed=2)
    indptr, indices = graph.adjacency_arrays()
    sources = np.array([99, 0, 64, 63, 64])
    rows = bfs_rows(indptr, indices, graph.n, sources=sources)
    _assert_bytes_equal(rows, np.ascontiguousarray(distance_matrix(graph)[sources]))


@pytest.mark.parametrize("family", ["torus", "random-sparse", "expander", "star"])
def test_fault_masked_graphs_match_scipy(family):
    graph = graph_families("medium", seed=0)[family]
    scenarios = fault_scenarios(graph, seed=4, edge_ks=(1, 3), node_ks=(1, 2), per_k=2)
    assert scenarios
    for _, faults in scenarios:
        got = surviving_distance_matrix(graph, faults)
        # Oracle: scipy over the adjacency with the failed edges and every
        # arc of a failed node removed, dead rows and columns blanked.
        alive = faults.alive_mask(graph.n)
        failed = {frozenset(edge) for edge in faults.edges}
        survivor = PortLabeledGraph(graph.n)
        for u, v in graph.edges():
            if alive[u] and alive[v] and frozenset((u, v)) not in failed:
                survivor.add_edge(u, v)
        want = _oracle(survivor)
        want[~alive, :] = -1
        want[:, ~alive] = -1
        _assert_bytes_equal(got, want)


def test_incremental_column_rebuild_matches_scipy():
    graph = generators.hypercube(7)
    after = graph.copy()
    after.remove_edge(0, 1)
    after.remove_edge(5, 7)
    dist, _, recomputed = incremental_distance_matrix(
        after, distance_matrix(graph), added=[], removed=[(0, 1), (5, 7)]
    )
    assert recomputed > 0
    _assert_bytes_equal(dist, _oracle(after))


@profile_settings(25)
@given(
    graph=connected_graphs(min_n=6, max_n=40, max_extra=0.3),
    tie_break=st.sampled_from(["lowest_port", "highest_port", "lowest_neighbor"]),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_hypothesis_delta_dirty_mask_matches_sparse_product(graph, tie_break, seed):
    # apply_delta propagates a distance change at v to every neighbour of
    # v with one bitwise_or.reduceat over bit-packed columns; the scipy
    # sparse product it replaced is the oracle of the dirty counts.
    from repro.sim.churn import random_churn_trace

    csr_matrix = pytest.importorskip("scipy.sparse").csr_matrix

    scheme = ShortestPathTableScheme(tie_break=tie_break)
    trace = random_churn_trace(graph, steps=2, flips_per_step=2, seed=seed)
    program = compile_scheme_program(scheme, trace.base)
    for before, step in trace.transitions():
        after = step.graph
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(program_module, "DIRTY_THRESHOLD", 1.0)
            result = apply_delta(program, before, after, scheme)
        program = result.program
        if before == after:
            continue
        changed = distance_matrix(after) != distance_matrix(before)
        indptr, indices = after.adjacency_arrays()
        adjacency = csr_matrix(
            (np.ones(len(indices), dtype=np.int64), indices, indptr), shape=(after.n, after.n)
        )
        dirty = changed | ((adjacency @ changed.astype(np.int64)) > 0)
        dirty[_port_dirty_vertices(before, after), :] = True
        np.fill_diagonal(dirty, False)
        assert result.dirty_entries == int(dirty.sum())
        assert result.dirty_destinations == int(dirty.any(axis=0).sum())


# ----------------------------------------------------------------------
# the memo
# ----------------------------------------------------------------------
MUTATORS = {
    "add_edge": lambda g: g.add_edge(0, next(v for v in range(1, g.n) if not g.has_edge(0, v))),
    "remove_edge": lambda g: g.remove_edge(0, g.neighbors(0)[0]),
    "add_vertex": lambda g: g.add_vertex(),
    "set_port_labeling": lambda g: g.set_port_labeling(
        0, {v: g.degree(0) - i for i, v in enumerate(g.neighbors(0))}
    ),
    "relabel_ports": lambda g: g.relabel_ports(0, {1: 2, 2: 1, 3: 3}),
    "sort_ports_by_neighbor": lambda g: g.sort_ports_by_neighbor(),
}


def _shuffled_petersen():
    # Insertion-order ports that sort_ports_by_neighbor really changes.
    graph = PortLabeledGraph(10)
    for u, v in sorted(generators.petersen_graph().edges(), reverse=True):
        graph.add_edge(u, v)
    return graph


@profile_settings(40)
@given(
    graph=connected_graphs(min_n=4, max_n=30, max_extra=0.4),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_port_dirty_vertices_match_the_port_map_comparison(graph, seed):
    # The CSR-row comparison against the per-vertex port-map dicts it
    # replaced, over churn flips (degree changes, port shifts) and
    # arbitrary relabellings (same degree, permuted rows).
    import random

    from repro.sim.churn import random_churn_trace

    rng = random.Random(seed)
    trace = random_churn_trace(graph, steps=2, flips_per_step=2, seed=seed)
    pairs = [(before, step.graph) for before, step in trace.transitions()]
    relabelled = graph.copy()
    for x in rng.sample(range(graph.n), k=min(3, graph.n)):
        ports = sorted(relabelled.port_map(x))
        relabelled.relabel_ports(x, dict(zip(ports, rng.sample(ports, len(ports)))))
    pairs += [(graph, relabelled), (graph, graph.copy())]
    for before, after in pairs:
        want = [x for x in range(before.n) if before.port_map(x) != after.port_map(x)]
        got = _port_dirty_vertices(before, after)
        assert got.dtype == bool and np.flatnonzero(got).tolist() == want


def test_distance_matrix_is_memoised_and_read_only():
    graph = generators.hypercube(6)
    dist = distance_matrix(graph)
    assert distance_matrix(graph) is dist
    assert graph.derived.distances is dist
    assert not dist.flags.writeable
    with pytest.raises(ValueError):
        dist[0, 1] = 7
    with pytest.raises(ValueError):
        dist.fill(0)


def test_fingerprint_is_memoised():
    graph = generators.grid_2d(4, 5)
    digest = graph.fingerprint()
    assert graph.derived.fingerprint == digest
    assert graph.fingerprint() is digest


@pytest.mark.parametrize("mutator", sorted(MUTATORS))
def test_every_mutator_drops_the_memo(mutator):
    graph = _shuffled_petersen()
    before = distance_matrix(graph)
    fingerprint = graph.fingerprint()
    holder = graph.derived
    MUTATORS[mutator](graph)
    assert graph.derived is not holder
    assert graph.derived.distances is None and graph.derived.fingerprint is None
    # The old holder still describes the snapshot it was computed on.
    assert holder.distances is before and holder.fingerprint == fingerprint
    _assert_bytes_equal(distance_matrix(graph), _oracle(graph))
    assert graph.fingerprint() != fingerprint


@pytest.mark.parametrize("mutator", sorted(MUTATORS))
def test_every_mutator_drops_the_port_and_spanner_memos(mutator):
    from repro.routing.spanner import greedy_spanner
    from repro.routing.tables import shortest_path_ports

    graph = _shuffled_petersen()
    ports = shortest_path_ports(graph, "lowest_port")
    spanner = greedy_spanner(graph, 3.0)
    holder = graph.derived
    assert set(holder.ports) == {"lowest_port"} and set(holder.spanners) == {3.0}
    MUTATORS[mutator](graph)
    assert graph.derived.ports == {} and graph.derived.spanners == {}
    fresh = shortest_path_ports(graph, "lowest_port")
    unmemoised = shortest_path_ports(graph, "lowest_port", np.array(distance_matrix(graph)))
    _assert_bytes_equal(fresh, unmemoised)
    assert greedy_spanner(graph, 3.0) == greedy_spanner(graph.copy(), 3.0)
    # The old holder still describes the snapshot it was computed on.
    _assert_bytes_equal(holder.ports["lowest_port"].astype(np.int64), ports)
    assert holder.spanners[3.0] == spanner


def test_copy_shares_the_memo_until_one_side_mutates():
    graph = generators.torus_2d(5, 6)
    clone = graph.copy()
    assert clone.derived is graph.derived
    dist = distance_matrix(clone)
    assert distance_matrix(graph) is dist  # computed once for both
    assert graph.fingerprint() is clone.fingerprint()
    clone.remove_edge(0, 1)
    assert clone.derived is not graph.derived
    assert distance_matrix(graph) is dist  # the unmutated side keeps it
    assert not np.array_equal(distance_matrix(clone), dist)
    graph.add_edge(0, 7)
    assert graph.derived.distances is None


def test_failed_mutation_keeps_the_memo():
    graph = generators.petersen_graph()
    dist = distance_matrix(graph)
    with pytest.raises(ValueError):
        graph.add_edge(0, 1)  # duplicate edge: no mutation
    with pytest.raises(ValueError):
        graph.relabel_ports(0, {1: 1, 2: 2})  # incomplete permutation
    assert distance_matrix(graph) is dist


def test_pickles_carry_no_derived_state():
    graph = generators.hypercube(8)
    plain = len(pickle.dumps(graph))
    graph.adjacency_arrays()
    dist = distance_matrix(graph)
    graph.fingerprint()
    assert len(pickle.dumps(graph)) == plain
    clone = pickle.loads(pickle.dumps(graph))
    assert clone == graph
    assert clone.derived is not graph.derived
    assert clone.derived.distances is None and clone.derived.fingerprint is None
    again = distance_matrix(clone)
    assert again is not dist
    _assert_bytes_equal(again, np.array(dist))
    assert clone.fingerprint() == graph.fingerprint()


# ----------------------------------------------------------------------
# scipy stays out of every workload
# ----------------------------------------------------------------------
def test_no_workload_imports_scipy():
    # An n = 256 compile, flow, resilience and churn cell, plus the small
    # graphs of the registry, in a fresh interpreter: scipy is a test and
    # benchmark extra, never imported by the package.
    code = """
import sys
from repro.analysis.runner import ShardedRunner
from repro.graphs import generators
from repro.graphs.shortest_paths import distance_matrix
from repro.sim.churn import churn_scenarios
from repro.sim.registry import fault_scenarios, graph_families, scheme_registry

distance_matrix(generators.grid_2d(7, 9))
for graph in graph_families("small").values():
    distance_matrix(graph)
graph = generators.hypercube(8)
families = {"hypercube": graph}
schemes = {"tables": scheme_registry()["tables-lowest-port"]}
runner = ShardedRunner(None, processes=1)
runner.program_sweep(schemes=schemes, families=families)
runner.flow_sweep(schemes=schemes, families=families, models=("uniform",))
scenarios = {"hypercube": fault_scenarios(graph, seed=1, edge_ks=(2,), node_ks=(1,), per_k=1)}
runner.resilience_sweep(schemes=schemes, families=families, scenarios=scenarios)
traces = {"hypercube": churn_scenarios(graph, seed=1, steps=2)}
rows, _, _ = runner.churn_sweep(schemes=schemes, families=families, traces=traces)
assert rows
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "[]"


# ----------------------------------------------------------------------
# kernel runs per pass
# ----------------------------------------------------------------------
@pytest.fixture
def kernel_runs(monkeypatch):
    """Counts every :func:`bfs_rows` run, whichever module calls it."""
    import repro.graphs.shortest_paths as shortest_paths
    import repro.routing.program as program
    import repro.sim.faults as faults

    runs = []

    def counting(*args, **kwargs):
        runs.append(args[2])
        return bfs_rows(*args, **kwargs)

    for module in (shortest_paths, program, faults):
        monkeypatch.setattr(module, "bfs_rows", counting)
    return runs


def test_cold_large_pass_runs_the_kernel_once_per_distinct_graph(tmp_path, kernel_runs):
    # Three n = 256 families x six schemes, compiled into an empty store
    # and routed under uniform demand.  The distinct graphs are the three
    # families and the three spanners of spanner3-landmark: every other
    # build, lowering and flow cell reads the memo (21 runs before it).
    from repro.analysis.runner import ShardedRunner
    from repro.sim.registry import scheme_registry

    registry = scheme_registry(seed=1)
    schemes = {
        name: registry[name]
        for name in (
            "tables-lowest-port",
            "tables-highest-port",
            "landmark-sqrt",
            "landmark-rewriting",
            "interval",
            "spanner3-landmark",
        )
    }
    families = {
        "hypercube": generators.hypercube(8),
        "torus": generators.torus_2d(16, 16),
        "random-sparse": generators.random_connected_graph(256, extra_edge_prob=0.01, seed=1),
    }
    runner = ShardedRunner(tmp_path, processes=1)
    for name, graph in families.items():
        programs, _, _ = runner.program_sweep(schemes=schemes, families={name: graph})
        flows, _, _ = runner.flow_sweep(
            schemes=schemes, families={name: graph}, models=("uniform",), demand_seed=1
        )
        assert programs and flows
    assert len(kernel_runs) <= 6, kernel_runs


def test_cold_medium_sweep_runs_the_kernel_at_most_80_times(tmp_path, kernel_runs, capsys):
    # repro sweep --registry medium: 20 families x 15 schemes (200 runs
    # before the memo; the rest are graphs schemes relabel or derive).
    from repro.cli.main import main

    assert main(["sweep", "--registry", "medium", "--jobs", "1", "--store", str(tmp_path)]) == 0
    assert capsys.readouterr().out
    assert len(kernel_runs) <= 80, len(kernel_runs)
