"""Experiment E1 — regenerate Table 1 (memory requirement versus stretch factor).

The paper's Table 1 tabulates the best known local/global memory bounds of
universal routing schemes per stretch regime.  This bench measures the
implemented universal schemes (routing tables, interval routing, Cowen
landmarks, spanner+landmark) on a mix of graph families, groups the
measurements by the stretch regime they land in, and prints them next to the
closed-form bound columns.  Shape checks: stretch-1/below-2 schemes pay
``Θ(n log n)`` locally while stretch ≥ 3 schemes store less in total.

The scheme x graph grid runs through the sharded experiment runner
(:mod:`repro.analysis.runner`): cells fan out over worker processes and
land in the on-disk cache under ``benchmarks/.cache``, so re-running the
bench after the first sweep is almost free — the printed cache line shows
the measured hit rate.  The 224-vertex rows are one size step beyond the
PR 2 grid (which capped at n = 160), affordable because only the new cells
are ever recomputed.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.runner import ShardedRunner
from repro.analysis.table1 import format_table1
from repro.graphs import generators

BENCH_CACHE = Path(__file__).resolve().parent / ".cache"


def _graph_suite():
    # 160 was PR 2's ceiling; the 224-vertex rows are this PR's size step,
    # paid for by the sharded runner's cache.
    return [
        ("random-sparse", generators.random_connected_graph(96, extra_edge_prob=0.05, seed=1)),
        ("random-dense", generators.random_connected_graph(96, extra_edge_prob=0.20, seed=2)),
        ("random-sparse-160", generators.random_connected_graph(160, extra_edge_prob=0.03, seed=4)),
        ("random-sparse-224", generators.random_connected_graph(224, extra_edge_prob=0.02, seed=6)),
        ("grid-8x12", generators.grid_2d(8, 12)),
        ("hypercube-6", generators.hypercube(6)),
        ("tree-96", generators.random_tree(96, seed=3)),
        ("tree-160", generators.random_tree(160, seed=5)),
        ("tree-224", generators.random_tree(224, seed=7)),
    ]


@pytest.mark.benchmark(group="table1")
def test_table1_regeneration(benchmark):
    graphs = _graph_suite()
    runner = ShardedRunner(cache_dir=BENCH_CACHE, processes=None)

    def _run():
        return runner.table1_report(graphs)

    rows, stats = benchmark.pedantic(_run, rounds=1, iterations=1)
    print("\n" + format_table1(rows))
    print(f"[sharded-runner] table1 grid: {stats.describe()}")

    # Shape assertions mirroring the paper's table.
    stretch_one = rows[0]
    assert any(m.scheme == "routing-tables" for m in stretch_one.measurements)
    # Tables and interval routing land at stretch exactly 1 on every graph.
    for m in stretch_one.measurements:
        assert m.stretch == 1.0
    # The extended grid actually reached the new size step.
    assert any(m.n == 224 for row in rows for m in row.measurements)
    # Some scheme lands in the stretch >= 3 regimes (the landmark family).
    landmark_rows = [m for row in rows[3:] for m in row.measurements]
    assert landmark_rows, "no stretch >= 3 measurement was produced"
    # On the worst-case-like (random) graphs the stretched schemes store less
    # in total than routing tables — the trade-off Table 1 tabulates.  The
    # structured families (grid, hypercube, tree) are already cheap for
    # tables (that is experiment E7's subject), so they are not compared here.
    table_global = {
        m.graph_name: m.global_bits
        for m in stretch_one.measurements
        if m.scheme == "routing-tables" and m.graph_name.startswith("random")
    }
    random_landmarks = [m for m in landmark_rows if m.graph_name.startswith("random")]
    assert random_landmarks
    wins = sum(1 for m in random_landmarks if m.global_bits < table_global[m.graph_name])
    assert wins >= (len(random_landmarks) + 1) // 2
