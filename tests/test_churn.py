"""Recompile-differential harness for the churn workload.

The contract under test: :func:`repro.routing.program.apply_delta` applied
across a topology change is **indistinguishable from a fresh compile at
the new snapshot** — same next-hop arrays, same domain dtypes, same v2
byte layout, same fingerprint, and the same simulated outcome for every
ordered pair.  The suite pins that differentially:

* across the registry grid — every small graph family x every
  shortest-path table tie-break, over seeded random churn traces and the
  LEO-grid periodic seam trace;
* under hypothesis — random valid add/remove sequences from the shared
  ``churn_traces`` strategy (conftest), including delta-chain
  associativity: applying k deltas == one recompile at the final snapshot;
* composed with fault masks — a delta applied on top of an
  ``apply_faults``-masked program equals mask-after-recompile;
* through the cache — patched programs stored via
  ``ExperimentCache.store_program_entry`` round-trip the ``.rpg`` artifact
  path and never collide with the pre-churn program key.

Example counts scale with the ``REPRO_HYP_PROFILE`` knob (conftest): the
``ci`` profile keeps PR runs fast, ``dev`` runs the properties deep in the
nightly bench-trajectory workflow.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import churn_traces, profile_settings
from repro.graphs import generators
from repro.graphs.properties import is_connected
from repro.graphs.shortest_paths import distance_matrix
from repro.routing.model import SchemeInapplicableError
from repro.routing.program import (
    DELTA_PATCHED,
    DELTA_RECOMPILED,
    DELTA_UNCHANGED,
    DROPPED,
    apply_delta,
    compile_scheme_program,
    incremental_distance_matrix,
    load_program,
    save_program,
)
from repro.routing.tables import ShortestPathTableScheme
from repro.sim.churn import (
    apply_trace,
    churn_scenarios,
    leo_grid_trace,
    random_churn_trace,
)
from repro.sim.engine import execute_masked_program, execute_program
from repro.sim.faults import FaultSet, apply_faults, random_fault_set
from repro.sim.registry import graph_families, scheme_registry

_SETTINGS = profile_settings(15)

FAMILIES = graph_families("small", seed=7)
TABLE_SCHEMES = {
    name: scheme
    for name, scheme in scheme_registry(seed=7).items()
    if name.startswith("tables-")
}
TIE_BREAKS = ("lowest_neighbor", "lowest_port", "highest_port")


def _assert_programs_identical(delta_program, fresh_program):
    """The full differential contract: arrays, dtype, bytes, fingerprint."""
    assert type(delta_program) is type(fresh_program)
    assert delta_program.next_node.dtype == fresh_program.next_node.dtype
    assert np.array_equal(delta_program.next_node, fresh_program.next_node)
    assert delta_program.to_bytes() == fresh_program.to_bytes()
    assert delta_program.fingerprint() == fresh_program.fingerprint()


def _assert_outcomes_identical(delta_program, fresh_program):
    """Simulation-outcome equality: both programs route every pair alike."""
    a = execute_program(delta_program)
    b = execute_program(fresh_program)
    assert np.array_equal(a.lengths, b.lengths)
    assert np.array_equal(a.delivered, b.delivered)
    assert np.array_equal(a.misdelivered, b.misdelivered)


def _chain(scheme, trace, **kwargs):
    """Chain deltas along a trace; returns the per-step DeltaResults."""
    program = compile_scheme_program(scheme, trace.base)
    dist = None
    results = []
    for before, step in trace.transitions():
        result = apply_delta(
            program, before, step.graph, scheme, dist_before=dist, **kwargs
        )
        results.append(result)
        program = result.program
        dist = result.dist_after
    return results


# ----------------------------------------------------------------------
# trace generators
# ----------------------------------------------------------------------
@pytest.mark.parametrize("family_name", sorted(FAMILIES))
def test_random_trace_preserves_connectivity(family_name):
    trace = random_churn_trace(FAMILIES[family_name], steps=4, flips_per_step=2, seed=5)
    for snapshot in trace.snapshots():
        assert is_connected(snapshot)
    # The recorded diffs are exactly the mutations performed (ports too).
    assert apply_trace(trace) == trace.final()
    # The input graph is snapshotted, not aliased.
    assert trace.base == FAMILIES[family_name]


def test_random_trace_deterministic():
    g = generators.hypercube(3)
    a = random_churn_trace(g, steps=5, flips_per_step=2, seed=9)
    b = random_churn_trace(generators.hypercube(3), steps=5, flips_per_step=2, seed=9)
    c = random_churn_trace(generators.hypercube(3), steps=5, flips_per_step=2, seed=10)
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() != c.fingerprint()


def test_random_trace_rejects_bad_arguments():
    g = generators.cycle_graph(5)
    with pytest.raises(ValueError, match="non-negative"):
        random_churn_trace(g, steps=-1)
    with pytest.raises(ValueError, match="positive"):
        random_churn_trace(g, flips_per_step=0)


def test_leo_trace_rotating_seam():
    rows, cols, steps = 4, 6, 10
    trace = leo_grid_trace(rows, cols, steps=steps)
    assert trace.num_steps == steps
    for snapshot in trace.snapshots():
        assert is_connected(snapshot)
    assert apply_trace(trace) == trace.final()
    # Exactly one seam link down per snapshot, rotating one row per step.
    for t, (before, step) in enumerate(trace.transitions()):
        assert len(step.removed) == 1
        (u, v) = step.removed[0]
        r = t % rows
        assert {u, v} == {r * cols, r * cols + cols - 1}
        assert len(step.added) == (0 if t == 0 else 1)
    # Consecutive snapshots always differ (the gap moved).
    snaps = list(trace.snapshots())
    for a, b in zip(snaps, snaps[1:]):
        assert a.fingerprint() != b.fingerprint()


def test_leo_trace_rejects_bad_arguments():
    with pytest.raises(ValueError, match="rows >= 3"):
        leo_grid_trace(2, 6)
    with pytest.raises(ValueError, match="expected rows\\*cols"):
        leo_grid_trace(3, 4, base=generators.cycle_graph(5))


def test_churn_scenarios_seeded():
    g = FAMILIES["grid"]
    a = churn_scenarios(g, seed=3)
    b = churn_scenarios(g, seed=3)
    c = churn_scenarios(g, seed=4)
    assert [t.fingerprint() for _, t in a] == [t.fingerprint() for _, t in b]
    assert [t.fingerprint() for _, t in a] != [t.fingerprint() for _, t in c]


# ----------------------------------------------------------------------
# differential: delta == recompile across the registry grid
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scheme_name", sorted(TABLE_SCHEMES))
@pytest.mark.parametrize("family_name", sorted(FAMILIES))
def test_delta_matches_recompile_on_registry_grid(scheme_name, family_name):
    scheme = TABLE_SCHEMES[scheme_name]
    trace = random_churn_trace(
        FAMILIES[family_name], steps=3, flips_per_step=1, seed=21
    )
    results = _chain(scheme, trace)
    for result, (_, step) in zip(results, trace.transitions()):
        fresh = compile_scheme_program(scheme, step.graph)
        _assert_programs_identical(result.program, fresh)
    # Outcome equality once per cell at the final snapshot (the arrays are
    # already byte-identical at every step, so one execution is enough to
    # pin the simulation contract without n^2 work per step).
    _assert_outcomes_identical(
        results[-1].program, compile_scheme_program(scheme, trace.final())
    )


@pytest.mark.parametrize("tie_break", TIE_BREAKS)
def test_delta_matches_recompile_on_leo_trace(tie_break):
    scheme = ShortestPathTableScheme(tie_break=tie_break)
    trace = leo_grid_trace(4, 6, steps=8)
    results = _chain(scheme, trace)
    assert all(r.mode == DELTA_PATCHED for r in results)
    for result, (_, step) in zip(results, trace.transitions()):
        _assert_programs_identical(
            result.program, compile_scheme_program(scheme, step.graph)
        )


def test_delta_accounting_is_change_proportional():
    # A single seam flip on a 6x8 torus dirties a minority of the entries
    # and reconverges in one relaxation round.
    scheme = ShortestPathTableScheme(tie_break="lowest_port")
    trace = leo_grid_trace(6, 8, steps=2)
    results = _chain(scheme, trace)
    for result in results:
        assert result.mode == DELTA_PATCHED
        assert 0 < result.dirty_entries
        assert result.dirty_fraction < 0.5
        assert 0 < result.dirty_destinations <= result.n
    # An addition-only change (a long chord: no removal-triggered BFS can
    # absorb it) must reconverge through at least one relaxation sweep.
    base = trace.base
    after = base.copy()
    after.add_edge(0, 28)  # rows 3 apart, cols 4 apart: distance 7 -> 1
    program = compile_scheme_program(scheme, base)
    result = apply_delta(program, base, after, scheme, dirty_threshold=1.0)
    assert result.mode == DELTA_PATCHED
    assert result.reconverge_rounds >= 1
    assert result.recomputed_columns == 0
    _assert_programs_identical(
        result.program, compile_scheme_program(scheme, after)
    )


# ----------------------------------------------------------------------
# hypothesis: random traces, delta chains, incremental distances
# ----------------------------------------------------------------------
@_SETTINGS
@given(trace=churn_traces())
def test_hypothesis_trace_invariants(trace):
    for snapshot in trace.snapshots():
        assert is_connected(snapshot)
    assert apply_trace(trace) == trace.final()


@_SETTINGS
@given(trace=churn_traces(), tie_break=st.sampled_from(TIE_BREAKS))
def test_hypothesis_delta_chain_equals_final_recompile(trace, tie_break):
    # Associativity: k chained deltas == one recompile at the final
    # snapshot (and, transitively, each intermediate patch is exact).
    scheme = ShortestPathTableScheme(tie_break=tie_break)
    results = _chain(scheme, trace)
    final = compile_scheme_program(scheme, trace.final())
    _assert_programs_identical(results[-1].program, final)


@_SETTINGS
@given(trace=churn_traces(max_steps=2))
def test_hypothesis_incremental_distances_exact(trace):
    dist = distance_matrix(trace.base)
    for before, step in trace.transitions():
        dist, rounds, recomputed = incremental_distance_matrix(
            step.graph, dist, list(step.added), list(step.removed)
        )
        assert np.array_equal(dist, distance_matrix(step.graph))
        assert rounds <= max(len(step.added), 0) + 1
        assert 0 <= recomputed <= step.graph.n


# ----------------------------------------------------------------------
# delta fallbacks and guard rails
# ----------------------------------------------------------------------
def test_delta_unchanged_returns_input_program():
    g = FAMILIES["grid"]
    scheme = ShortestPathTableScheme(tie_break="lowest_port")
    program = compile_scheme_program(scheme, g)
    result = apply_delta(program, g, g.copy(), scheme)
    assert result.mode == DELTA_UNCHANGED
    assert result.program is program
    assert result.dirty_entries == 0


def test_delta_threshold_falls_back_to_recompile():
    scheme = ShortestPathTableScheme(tie_break="lowest_port")
    trace = random_churn_trace(FAMILIES["grid"], steps=1, seed=2)
    program = compile_scheme_program(scheme, trace.base)
    before, step = next(trace.transitions())
    result = apply_delta(program, before, step.graph, scheme, dirty_threshold=0.0)
    assert result.mode == DELTA_RECOMPILED
    _assert_programs_identical(
        result.program, compile_scheme_program(scheme, step.graph)
    )


def test_delta_non_table_scheme_recompiles():
    schemes = scheme_registry(seed=7)
    g = FAMILIES["random-sparse"]
    trace = random_churn_trace(g, steps=1, seed=4)
    before, step = next(trace.transitions())
    for name, scheme in sorted(schemes.items()):
        if name.startswith("tables-"):
            continue
        try:
            program = compile_scheme_program(scheme, before)
        except SchemeInapplicableError:
            continue
        try:
            result = apply_delta(program, before, step.graph, scheme)
        except SchemeInapplicableError:
            continue  # the scheme refuses the mutated snapshot: also fine
        assert result.mode == DELTA_RECOMPILED
        assert result.program.fingerprint() == (
            compile_scheme_program(scheme, step.graph).fingerprint()
        )
        return
    pytest.skip("no non-table scheme applied to the mutated snapshot")


def test_delta_disconnection_raises_like_build():
    # Removing the only edge of a path end disconnects the graph: the
    # delta must refuse exactly like ShortestPathTableScheme.build.
    g = generators.path_graph(5)
    scheme = ShortestPathTableScheme(tie_break="lowest_port")
    program = compile_scheme_program(scheme, g)
    after = g.copy()
    after.remove_edge(0, 1)
    with pytest.raises(SchemeInapplicableError, match="connected"):
        apply_delta(program, g, after, scheme)


def test_delta_vertex_count_mismatch_raises():
    scheme = ShortestPathTableScheme(tie_break="lowest_port")
    g5 = generators.cycle_graph(5)
    program = compile_scheme_program(scheme, g5)
    with pytest.raises(ValueError, match="n=6"):
        apply_delta(program, generators.cycle_graph(6), g5, scheme)


def test_delta_pure_port_relabel_is_patched():
    # Same edge set, different ports: remove + re-add an edge shifts ports
    # at its endpoints only, and only those rows may change.
    g = generators.grid_2d(3, 4)
    after = g.copy()
    u, v = next(iter(after.edges()))
    after.remove_edge(u, v)
    after.add_edge(u, v)
    scheme = ShortestPathTableScheme(tie_break="lowest_port")
    program = compile_scheme_program(scheme, g)
    result = apply_delta(program, g, after, scheme)
    if after == g:  # the edge was already at the last port at both ends
        assert result.mode == DELTA_UNCHANGED
        return
    assert result.mode == DELTA_PATCHED
    assert result.reconverge_rounds == 0
    assert result.recomputed_columns == 0
    clean = np.ones(g.n, dtype=bool)
    clean[[u, v]] = False
    fresh = compile_scheme_program(scheme, after)
    assert np.array_equal(
        result.program.next_node[clean], program.next_node[clean]
    )
    _assert_programs_identical(result.program, fresh)


# ----------------------------------------------------------------------
# composition with fault masks (delta-on-masked == mask-after-recompile)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", ["node", "edge"])
@pytest.mark.parametrize("tie_break", TIE_BREAKS)
def test_delta_on_masked_program_equals_mask_after_recompile(tie_break, kind):
    scheme = ShortestPathTableScheme(tie_break=tie_break)
    trace = leo_grid_trace(4, 6, steps=4)
    if kind == "node":
        faults = random_fault_set(trace.base, 2, kind="node", seed=13)
    else:
        # Edge faults must exist in every snapshot: pick intra-row grid
        # links, which the seam rotation never touches.
        faults = FaultSet.from_edges([(1, 2), (14, 15)])
    program = apply_faults(
        compile_scheme_program(scheme, trace.base), trace.base, faults
    )
    dist = None
    for before, step in trace.transitions():
        result = apply_delta(
            program, before, step.graph, scheme, dist_before=dist, faults=faults
        )
        masked_fresh = apply_faults(
            compile_scheme_program(scheme, step.graph), step.graph, faults
        )
        _assert_programs_identical(result.program, masked_fresh)
        a = execute_masked_program(result.program, faults.alive_mask(step.graph.n))
        b = execute_masked_program(masked_fresh, faults.alive_mask(step.graph.n))
        assert np.array_equal(a.delivered, b.delivered)
        assert np.array_equal(a.dropped, b.dropped)
        assert np.array_equal(a.lengths, b.lengths)
        program = result.program
        dist = result.dist_after
    assert (program.next_node == DROPPED).any()  # the mask survived the chain


# ----------------------------------------------------------------------
# cache artifacts (.rpg) under churn
# ----------------------------------------------------------------------
def test_patched_programs_roundtrip_rpg_artifacts(tmp_path):
    from repro.analysis.churn import churn_cell
    from repro.analysis.runner import ExperimentCache, scheme_fingerprint

    cache = ExperimentCache(tmp_path)
    scheme = ShortestPathTableScheme(tie_break="lowest_port")
    graph = FAMILIES["torus"]
    traces = churn_scenarios(graph, seed=1, steps=3)
    rows = churn_cell(scheme, graph, "torus", "tables-lowest-port", traces, cache)
    assert rows and all(r.outcome_equal for r in rows)

    scheme_fp = scheme_fingerprint(scheme)
    base_key = cache.program_key(graph.fingerprint(), scheme_fp)
    seen_keys = {base_key}
    _, trace = traces[0]
    for step in trace.steps:
        key = cache.program_key(step.graph.fingerprint(), scheme_fp)
        # Never collides with the pre-churn fingerprint (or any earlier
        # snapshot's: the graph fingerprint covers edges and ports).
        assert key not in seen_keys
        seen_keys.add(key)
        # The patched program round-trips the .rpg artifact path bit-exact,
        # in a fresh cache instance (no in-memory hit).
        found, entry = ExperimentCache(tmp_path).load_program_entry(key)
        assert found
        fresh = compile_scheme_program(scheme, step.graph)
        assert entry.fingerprint() == fresh.fingerprint()
        assert entry.to_bytes() == fresh.to_bytes()


def test_patched_program_save_load_roundtrip(tmp_path):
    scheme = ShortestPathTableScheme(tie_break="highest_port")
    trace = random_churn_trace(FAMILIES["expander"], steps=1, seed=6)
    program = compile_scheme_program(scheme, trace.base)
    before, step = next(trace.transitions())
    result = apply_delta(program, before, step.graph, scheme)
    path = tmp_path / "patched.rpg"
    save_program(result.program, path)
    loaded = load_program(path)
    _assert_programs_identical(loaded, result.program)
    # A patched program loaded from the artifact patches again (the mmap
    # views are read-only; apply_delta must copy before writing).
    after2 = random_churn_trace(step.graph, steps=1, seed=7)
    before2, step2 = next(after2.transitions())
    chained = apply_delta(loaded, before2, step2.graph, scheme)
    _assert_programs_identical(
        chained.program, compile_scheme_program(scheme, step2.graph)
    )


# ----------------------------------------------------------------------
# sweep wiring
# ----------------------------------------------------------------------
def test_churn_sweep_one_compile_many_deltas(tmp_path):
    from repro.analysis.churn import churn_summary, format_churn
    from repro.analysis.runner import ShardedRunner

    runner = ShardedRunner(cache_dir=tmp_path, processes=1)
    families = {name: FAMILIES[name] for name in ("grid", "torus", "hypercube")}
    cells, skipped, stats = runner.churn_sweep(families=families, seed=0, steps=3)
    assert not skipped
    assert len(cells) == len(families) * len(TABLE_SCHEMES) * 3
    assert all(c.outcome_equal for c in cells)
    assert stats.compile_misses == len(families) * len(TABLE_SCHEMES)

    # Warm re-sweep: every base compile is a cache hit — one compile per
    # cell ever, many deltas per program.
    _, _, warm = runner.churn_sweep(families=families, seed=0, steps=3)
    assert warm.compile_misses == 0
    assert warm.compile_hits == len(families) * len(TABLE_SCHEMES)

    table = format_churn(churn_summary(cells))
    assert "tables-lowest-port" in table and "hypercube" in table


def test_churn_cell_rejects_foreign_trace():
    from repro.analysis.churn import churn_cell
    from repro.analysis.runner import ExperimentCache

    scheme = ShortestPathTableScheme(tie_break="lowest_port")
    traces = churn_scenarios(FAMILIES["grid"], seed=0, steps=1)
    with pytest.raises(ValueError, match="not generated over"):
        churn_cell(
            scheme, FAMILIES["torus"], "torus", "t", traces, ExperimentCache(None)
        )
