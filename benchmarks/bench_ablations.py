"""Ablation benchmarks for the design choices called out in DESIGN.md §6.

* exact vs greedy canonicalisation of constraint matrices (correctness is
  exactness of class separation; cost is the p!·q! search);
* the bit-parallel BFS kernel vs scipy's all-pairs BFS vs the stacked
  pure-python BFS oracle;
* raw vs interval vs default-port routing-table coders on different graph
  families (the constant factor of the ``Θ(n log n)`` upper bound).
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import print_rows
from repro.constraints.matrix import ConstraintMatrix, canonical_form, canonical_form_greedy
from repro.graphs import generators
from repro.graphs.shortest_paths import bfs_distances, bfs_rows
from repro.memory.coder import TABLE_CODERS, table_coder_bits
from repro.routing.tables import shortest_path_ports


@pytest.mark.benchmark(group="ablation-canonical")
@pytest.mark.parametrize("mode", ["exact", "greedy"])
def test_canonicalisation_modes(benchmark, mode):
    rng = np.random.default_rng(1)
    matrices = [ConstraintMatrix.random(4, 5, 4, seed=int(s)).to_array() for s in rng.integers(0, 10**6, 50)]
    func = canonical_form if mode == "exact" else canonical_form_greedy

    def _run():
        return [func(m) for m in matrices]

    results = benchmark(_run)
    assert len(results) == 50
    if mode == "greedy":
        # Greedy must at least be sound on matrices already in canonical form.
        for m in matrices[:10]:
            exact = canonical_form(m)
            assert np.array_equal(canonical_form_greedy(exact), exact)


@pytest.mark.benchmark(group="ablation-distance")
@pytest.mark.parametrize("backend", ["bfs-stack", "bit-parallel", "scipy"])
def test_distance_backend(benchmark, backend):
    graph = generators.random_connected_graph(200, extra_edge_prob=0.03, seed=7)
    indptr, indices = graph.adjacency_arrays()
    oracle = np.vstack([bfs_distances(graph, s) for s in range(graph.n)])
    if backend == "bit-parallel":
        result = benchmark(bfs_rows, indptr, indices, graph.n)
    elif backend == "scipy":
        csgraph = pytest.importorskip("scipy.sparse.csgraph")
        from scipy.sparse import csr_matrix

        adjacency = csr_matrix((np.ones(len(indices)), indices, indptr), shape=(graph.n, graph.n))
        raw = benchmark(csgraph.shortest_path, adjacency, unweighted=True, directed=False)
        result = raw.astype(np.int64)
    else:
        result = benchmark(lambda: np.vstack([bfs_distances(graph, s) for s in range(graph.n)]))
    assert result.tobytes() == oracle.tobytes()


@pytest.mark.benchmark(group="ablation-coders")
@pytest.mark.parametrize(
    "family",
    ["path", "ring", "tree", "grid", "random", "complete"],
)
def test_table_coder_sizes(benchmark, family):
    n = 64
    graph = {
        "path": lambda: generators.path_graph(n),
        "ring": lambda: generators.cycle_graph(n),
        "tree": lambda: generators.random_tree(n, seed=1),
        "grid": lambda: generators.grid_2d(8, 8),
        "random": lambda: generators.random_connected_graph(n, extra_edge_prob=0.15, seed=1),
        "complete": lambda: generators.complete_graph(n),
    }[family]()
    # The shortest-path routing table: DELIVER on the diagonal, one port
    # per (router, destination) elsewhere.
    ports = shortest_path_ports(graph, tie_break="lowest_port")
    degrees = np.array(graph.degrees())

    def _encode_all():
        bits = table_coder_bits(ports, degrees).sum(axis=1).tolist()
        return dict(zip(TABLE_CODERS, bits))

    totals = benchmark.pedantic(_encode_all, rounds=1, iterations=1)
    rows = [{"family": family, **{f"{k}_bits": v for k, v in totals.items()}}]
    print_rows("Coder ablation (total bits over all routers)", rows)
    # Interval coding wins on the families whose natural vertex labels are
    # already consecutive along the routes (paths, rings).  Trees need the
    # DFS relabelling of TreeIntervalRoutingScheme to benefit — that is
    # measured by bench_special_graphs, not here.
    if family in ("path", "ring"):
        assert totals["interval-table"] < totals["raw-table"]
