"""Fault injection on compiled routing programs: the resilience workload.

Four layers of guarantees:

* **Differential** — for every registry scheme and a spread of small-corpus
  families, the vectorised masked execution (mask a compiled program's
  transition arrays, run the masked executor) produces exactly the
  outcome and length matrices of the per-message reference interpreter,
  which applies the same fault model to the live routing function decision
  by decision.  Hypothesis extends this to random graphs x random fault
  sets.

* **Ground truth on the surviving graph** — masked oblivious routing never
  reroutes: delivered pairs keep their exact fault-free lengths, every
  delivered length is bounded below by the shortest-path distance
  *recomputed on the surviving graph*, and where the scheme still applies
  to the (relabelled) survivor a fresh rebuild delivers everything — with
  shortest-path schemes matching the surviving distance matrix exactly.

* **k = 0 no-ops** — property tests pin the empty fault set as an *exact*
  no-op on all three program kinds: byte-identical masked programs for the
  compiled kinds, and outcome/length equality with the fault-free simulator
  on next-hop, header-state and generic execution paths.

* **Sweep economy** — the sharded resilience sweep reuses one cached
  compile per (scheme, family) cell across all fault scenarios: a warm
  re-sweep reports a compile hit-rate of 1.0 (the acceptance criterion
  pins >= 0.95) and bit-identical cells.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import build_next_hop_matrix, profile_settings
from repro.graphs import generators
from repro.graphs.shortest_paths import UNREACHABLE, distance_matrix
from repro.routing.model import DELIVER, DestinationBasedRoutingFunction, RoutingFunction
from repro.routing.program import DROPPED, GenericProgram, resolve_functional
from repro.routing.tables import ShortestPathTableScheme
from repro.routing.verify import (
    VERDICT_DELIVERED,
    VERDICT_DROPPED,
    VERDICT_INFEASIBLE,
    VERDICT_LIVELOCKED,
    VERDICT_MISDELIVERED,
)
from repro.sim import simulate_all_pairs
from repro.sim.engine import execute_masked_program
from repro.sim.faults import (
    FaultSet,
    apply_faults,
    random_fault_set,
    simulate_with_faults,
    surviving_distance_matrix,
    surviving_graph,
)
from repro.sim.registry import fault_scenarios, graph_families, scheme_registry

# Example counts come from the shared REPRO_HYP_PROFILE knob (conftest):
# 25 per property in PR CI, scaled up for the nightly deep profile.
_SETTINGS = profile_settings(25)

SCHEMES = scheme_registry(seed=7)
FAMILIES = graph_families("small", seed=7)

#: Families spanning every structural class the fault model interacts with:
#: bridges everywhere (trees), edge/vertex connectivity >= 2 (torus,
#: hypercube), landmarks (random-sparse), dense shortcuts (complete).
FAULT_FAMILIES = (
    "random-tree",
    "torus",
    "hypercube",
    "grid",
    "random-sparse",
    "complete",
)


def _build(scheme_name, family_name):
    graph = FAMILIES[family_name].copy()
    try:
        return SCHEMES[scheme_name].build(graph)
    except ValueError:
        pytest.skip(f"{scheme_name} does not apply to {family_name}")


def _scenarios_for(graph, seed=0):
    return fault_scenarios(graph, seed=seed, edge_ks=(1, 2), node_ks=(1,), per_k=1)


def _fault_results_equal(a, b):
    assert np.array_equal(a.outcome, b.outcome), (
        f"outcome mismatch: auto={a.outcome.tolist()} ref={b.outcome.tolist()}"
    )
    assert np.array_equal(a.lengths, b.lengths)
    assert np.array_equal(a.alive, b.alive)


# ----------------------------------------------------------------------
# differential: masked vectorised execution == per-message reference
# ----------------------------------------------------------------------
@pytest.mark.parametrize("family_name", FAULT_FAMILIES)
@pytest.mark.parametrize("scheme_name", sorted(SCHEMES))
def test_masked_execution_matches_reference(scheme_name, family_name):
    rf = _build(scheme_name, family_name)
    graph = rf.graph
    program = rf.compile_program()
    fault_free = simulate_all_pairs(rf, program=program if not isinstance(program, GenericProgram) else None)
    for label, faults in _scenarios_for(graph):
        auto = simulate_with_faults(rf, faults, program=program, graph=graph)
        reference = simulate_with_faults(rf, faults, program=GenericProgram(num_vertices=graph.n))
        _fault_results_equal(auto, reference)

        off = ~np.eye(graph.n, dtype=bool)
        delivered = (auto.outcome == VERDICT_DELIVERED) & off
        # Oblivious fault routing never reroutes: a delivered pair walked
        # exactly its fault-free route.
        assert np.array_equal(auto.lengths[delivered], fault_free.lengths[delivered]), label
        # ... and that route survives, so it is bounded by the recomputed
        # surviving distance (stretch >= 1 against the survivor).
        assert (auto.dist[delivered] != UNREACHABLE).all(), label
        assert (auto.lengths[delivered] >= auto.dist[delivered]).all(), label
        assert float(auto.max_stretch()) >= 1.0
        assert 0.0 <= auto.survival_rate <= 1.0


@pytest.mark.parametrize("family_name", FAULT_FAMILIES)
def test_fresh_rebuild_on_survivor_is_ground_truth(family_name):
    # Where the scheme still applies to the surviving subgraph, rebuilding
    # it fresh is the "failures advertised" ground truth: everything
    # connected is delivered, and the shortest-path table scheme reproduces
    # the recomputed surviving distance matrix exactly.
    graph = FAMILIES[family_name].copy()
    scheme = ShortestPathTableScheme()
    rf = scheme.build(graph)
    program = rf.compile_program()
    for label, faults in _scenarios_for(graph, seed=3):
        survivor, old_to_new = surviving_graph(graph, faults)
        surviving_dist = surviving_distance_matrix(graph, faults)
        if survivor.n < 2 or (surviving_dist[old_to_new >= 0][:, old_to_new >= 0] == UNREACHABLE).any():
            continue  # disconnected survivor: the scheme no longer applies
        fresh = simulate_all_pairs(scheme.build(survivor.copy()))
        assert fresh.all_delivered, label
        alive = np.nonzero(old_to_new >= 0)[0]
        # Fresh rebuild == surviving distances (shortest-path scheme) ...
        assert np.array_equal(
            fresh.lengths[np.ix_(old_to_new[alive], old_to_new[alive])],
            surviving_dist[np.ix_(alive, alive)],
        ), label
        # ... which lower-bound whatever the masked oblivious program
        # still delivers.
        masked = simulate_with_faults(rf, faults, program=program, graph=graph, dist=surviving_dist)
        off = ~np.eye(graph.n, dtype=bool)
        delivered = (masked.outcome == VERDICT_DELIVERED) & off
        assert (masked.lengths[delivered] >= surviving_dist[delivered]).all(), label


@_SETTINGS
@given(
    n=st.integers(min_value=4, max_value=20),
    extra=st.floats(min_value=0.0, max_value=0.35),
    seed=st.integers(min_value=0, max_value=10**6),
    k=st.integers(min_value=0, max_value=4),
    kind=st.sampled_from(["edge", "node"]),
)
def test_masked_matches_reference_on_random_graphs(n, extra, seed, k, kind):
    graph = generators.random_connected_graph(n, extra_edge_prob=extra, seed=seed)
    limit = graph.num_edges if kind == "edge" else max(n - 2, 0)
    faults = random_fault_set(graph, min(k, limit), kind=kind, seed=seed)
    rf = ShortestPathTableScheme().build(graph)
    auto = simulate_with_faults(rf, faults)
    reference = simulate_with_faults(rf, faults, program=GenericProgram(num_vertices=graph.n))
    _fault_results_equal(auto, reference)
    assert auto.mode == "compiled-masked"
    assert reference.mode == "generic-masked"


# ----------------------------------------------------------------------
# k = 0 fault sets are exact no-ops on all three program kinds
# ----------------------------------------------------------------------
class _TTLRewritingFunction(RoutingFunction):
    """Generic-kind oracle: shortest-path routing with a mutable hop counter."""

    def __init__(self, graph):
        super().__init__(graph)
        self._next_hop = build_next_hop_matrix(graph)

    def initial_header(self, source, dest):
        return (dest, 0)

    def port(self, node, header):
        dest, _ = header
        if node == dest:
            return DELIVER
        return self._graph.port(node, int(self._next_hop[node, dest]))

    def next_header(self, node, header):
        dest, hops = header
        return (dest, hops + 1)


def _assert_k0_matches_fault_free(result, baseline, n):
    off = ~np.eye(n, dtype=bool)
    assert (result.outcome[off] == VERDICT_DELIVERED)[baseline.delivered[off]].all()
    assert np.array_equal((result.outcome == VERDICT_MISDELIVERED), baseline.misdelivered)
    assert not (result.outcome[off] == VERDICT_DROPPED).any()
    assert not (result.outcome[off] == VERDICT_INFEASIBLE).any()
    assert np.array_equal(result.lengths[off], baseline.lengths[off])
    assert result.alive.all()
    assert result.survival_rate == (1.0 if baseline.all_delivered else pytest.approx(
        baseline.delivered[off].sum() / off.sum()
    ))


@_SETTINGS
@given(
    n=st.integers(min_value=3, max_value=18),
    extra=st.floats(min_value=0.0, max_value=0.4),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_k0_is_exact_noop_on_next_hop_programs(n, extra, seed):
    graph = generators.random_connected_graph(n, extra_edge_prob=extra, seed=seed)
    rf = ShortestPathTableScheme().build(graph)
    program = rf.compile_program()
    # Masking with no faults is byte-identical: the view API copies, the
    # transitions are untouched.
    masked = apply_faults(program, graph, FaultSet.empty())
    assert masked.to_bytes() == program.to_bytes()
    result = simulate_with_faults(rf, FaultSet.empty(), program=program)
    _assert_k0_matches_fault_free(result, simulate_all_pairs(rf), n)
    assert np.array_equal(result.dist, distance_matrix(graph))


@_SETTINGS
@given(dim=st.integers(min_value=2, max_value=4), seed=st.integers(min_value=0, max_value=10**6))
def test_k0_is_exact_noop_on_header_state_programs(dim, seed):
    from repro.routing.ecube import MaskECubeRoutingScheme

    graph = generators.hypercube(dim)
    rf = MaskECubeRoutingScheme().build(graph)
    assert rf.program_kind() == "header-state"
    program = rf.compile_program()
    masked = apply_faults(program, graph, FaultSet.empty())
    assert masked.to_bytes() == program.to_bytes()
    result = simulate_with_faults(rf, FaultSet.empty(), program=program)
    _assert_k0_matches_fault_free(result, simulate_all_pairs(rf), graph.n)
    assert result.mode == "header-compiled-masked"


@_SETTINGS
@given(
    n=st.integers(min_value=3, max_value=14),
    extra=st.floats(min_value=0.0, max_value=0.4),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_k0_is_exact_noop_on_the_generic_path(n, extra, seed):
    graph = generators.random_connected_graph(n, extra_edge_prob=extra, seed=seed)
    rf = _TTLRewritingFunction(graph)
    assert rf.program_kind() == "generic"
    result = simulate_with_faults(rf, FaultSet.empty())
    assert result.mode == "generic-masked"
    _assert_k0_matches_fault_free(result, simulate_all_pairs(rf, program=GenericProgram(num_vertices=n)), n)


# ----------------------------------------------------------------------
# outcome taxonomy on hand-built scenarios
# ----------------------------------------------------------------------
def test_bridge_failure_drops_exactly_the_crossing_pairs():
    graph = generators.path_graph(6)
    rf = ShortestPathTableScheme().build(graph)
    result = simulate_with_faults(rf, FaultSet.from_edges([(2, 3)]))
    left, right = {0, 1, 2}, {3, 4, 5}
    for x in range(6):
        for y in range(6):
            if x == y:
                assert result.outcome[x, y] == VERDICT_INFEASIBLE
            elif (x in left) == (y in left):
                assert result.outcome[x, y] == VERDICT_DELIVERED
                assert result.lengths[x, y] == abs(x - y)
            else:
                assert result.outcome[x, y] == VERDICT_DROPPED
                # The walked prefix ends at the bridge endpoint.
                assert result.lengths[x, y] == (2 - x if x in left else x - 3)
    # All surviving-component pairs delivered: survival (vs routable) is 1.
    assert result.survival_rate == 1.0
    assert result.routable_count == 12
    assert result.counts() == {
        "delivered": 12, "dropped": 18, "livelocked": 0, "misdelivered": 0, "infeasible": 0,
    }


def test_failed_endpoints_are_infeasible_not_failures():
    graph = generators.cycle_graph(6)
    rf = ShortestPathTableScheme().build(graph)
    result = simulate_with_faults(rf, FaultSet.from_nodes([0]))
    assert (result.outcome[0, :] == VERDICT_INFEASIBLE).all()
    assert (result.outcome[:, 0] == VERDICT_INFEASIBLE).all()
    assert not result.alive[0]
    assert result.feasible_count == 20
    # The broken cycle is a path: everything alive is still connected, but
    # routes through vertex 0 drop at it.
    counts = result.counts()
    assert counts["infeasible"] == 10
    assert counts["delivered"] + counts["dropped"] == 20
    assert counts["dropped"] > 0


def test_livelock_under_faults_is_classified_not_dropped():
    # Square 0-1-2-3 with chord 1-3: messages destined to 0 spin around the
    # 1-2-3 triangle forever, never touching vertex 0 or the failed edge —
    # a livelock that must classify as livelocked (not dropped) on both
    # execution paths, while 0 -> 1 drops at the failed edge itself.
    graph = generators.PortLabeledGraph(
        4, edges=[(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)]
    )

    class _SpinFunction(DestinationBasedRoutingFunction):
        def port_to(self, node, dest):
            if dest == 0:
                spin_to = {1: 2, 2: 3, 3: 1}[node]
                return self._graph.port(node, spin_to)
            next_hop = build_next_hop_matrix(self._graph)
            return self._graph.port(node, int(next_hop[node, dest]))

    rf = _SpinFunction(graph)
    faults = FaultSet.from_edges([(0, 1)])
    auto = simulate_with_faults(rf, faults)
    reference = simulate_with_faults(rf, faults, program=GenericProgram(num_vertices=graph.n))
    _fault_results_equal(auto, reference)
    for src in (1, 2, 3):
        assert auto.outcome[src, 0] == VERDICT_LIVELOCKED
        assert auto.lengths[src, 0] == -1
    # 0 -> 1 takes the direct (failed) edge: dropped at the fault, zero
    # hops walked.
    assert auto.outcome[0, 1] == VERDICT_DROPPED
    assert auto.lengths[0, 1] == 0


def test_misdelivery_is_preserved_under_masking():
    graph = generators.cycle_graph(5)

    class _EagerFunction(DestinationBasedRoutingFunction):
        def port(self, node, header):
            return DELIVER

        def port_to(self, node, dest):  # pragma: no cover - unreachable
            return 1

    rf = _EagerFunction(graph)
    result = simulate_with_faults(rf, FaultSet.from_edges([(0, 1)]))
    off = ~np.eye(5, dtype=bool)
    assert (result.outcome[off] == VERDICT_MISDELIVERED).all()
    assert result.counts()["misdelivered"] == 20


# ----------------------------------------------------------------------
# the fault model's plumbing
# ----------------------------------------------------------------------
def test_fault_set_normalisation_and_fingerprints():
    a = FaultSet(edges=((3, 1), (1, 3), (0, 2)), nodes=(5, 5, 2))
    b = FaultSet(edges=((1, 3), (2, 0)), nodes=(2, 5))
    assert a == b
    assert a.edges == ((0, 2), (1, 3)) and a.nodes == (2, 5)
    assert a.fingerprint() == b.fingerprint()
    assert a.kind == "mixed" and a.size == 4 and not a.is_empty
    assert FaultSet.empty().kind == "none" and FaultSet.empty().is_empty
    assert FaultSet.from_edges([(0, 1)]).kind == "edge"
    assert FaultSet.from_nodes([1]).kind == "node"
    assert a.fingerprint() != FaultSet.from_nodes([1]).fingerprint()
    with pytest.raises(ValueError, match="self-loop"):
        FaultSet.from_edges([(2, 2)])


def test_fault_validation_rejects_phantom_components():
    graph = generators.path_graph(4)
    rf = ShortestPathTableScheme().build(graph)
    with pytest.raises(ValueError, match="not an edge"):
        simulate_with_faults(rf, FaultSet.from_edges([(0, 3)]))
    with pytest.raises(ValueError, match="out of range"):
        simulate_with_faults(rf, FaultSet.from_nodes([7]))
    program = rf.compile_program()
    with pytest.raises(ValueError, match="not an edge"):
        apply_faults(program, graph, FaultSet.from_edges([(0, 2)]))
    with pytest.raises(ValueError, match="n=4"):
        apply_faults(program, generators.path_graph(5), FaultSet.empty())


def test_generic_programs_cannot_be_masked_directly():
    graph = generators.path_graph(4)
    program = GenericProgram(num_vertices=4)
    with pytest.raises(ValueError, match="generic"):
        apply_faults(program, graph, FaultSet.empty())
    with pytest.raises(ValueError, match="generic"):
        execute_masked_program(program)
    with pytest.raises(ValueError, match="live routing function"):
        simulate_with_faults(None, FaultSet.empty(), program=program, graph=graph)
    with pytest.raises(ValueError, match="routing function or a program"):
        simulate_with_faults(None, FaultSet.empty(), graph=graph)


def test_masked_programs_are_rejected_by_the_plain_executors():
    # A DROPPED sentinel would wrap to a negative index in the plain gather
    # loops; the unmasked executors must refuse masked views loudly.
    from repro.sim.engine import execute_program, simulate_all_pairs as sim

    graph = generators.path_graph(5)
    rf = ShortestPathTableScheme().build(graph)
    masked = apply_faults(rf.compile_program(), graph, FaultSet.from_edges([(1, 2)]))
    with pytest.raises(ValueError, match="execute_masked_program"):
        execute_program(masked)
    with pytest.raises(ValueError, match="execute_masked_program"):
        sim(rf, program=masked)

    from repro.routing.ecube import MaskECubeRoutingScheme

    cube = generators.hypercube(3)
    mrf = MaskECubeRoutingScheme().build(cube)
    hmasked = apply_faults(mrf.compile_program(), cube, FaultSet.from_nodes([3]))
    with pytest.raises(ValueError, match="execute_masked_program"):
        execute_program(hmasked)


def test_random_fault_set_is_deterministic_and_respects_protection():
    graph = generators.random_connected_graph(14, extra_edge_prob=0.2, seed=1)
    assert random_fault_set(graph, 3, seed=5) == random_fault_set(graph, 3, seed=5)
    assert random_fault_set(graph, 3, seed=5) != random_fault_set(graph, 3, seed=6)
    protected = {0, 1, 2}
    fs = random_fault_set(graph, 5, kind="node", seed=9, protect=protected)
    assert not protected & set(fs.nodes)
    with pytest.raises(ValueError, match="only"):
        random_fault_set(graph, graph.n + 1, kind="node", seed=0)
    with pytest.raises(ValueError, match="only"):
        random_fault_set(graph, graph.num_edges + 1, kind="edge", seed=0)
    with pytest.raises(ValueError, match="non-negative"):
        random_fault_set(graph, -1, seed=0)
    with pytest.raises(ValueError, match="unknown fault kind"):
        random_fault_set(graph, 1, kind="link", seed=0)


def test_surviving_graph_relabels_and_drops_faulted_components():
    graph = generators.cycle_graph(6)
    survivor, old_to_new = surviving_graph(graph, FaultSet(edges=((0, 1),), nodes=(3,)))
    assert survivor.n == 5
    assert old_to_new[3] == -1 and (old_to_new >= 0).sum() == 5
    # 6 cycle edges - failed (0,1) - the two edges at node 3.
    assert survivor.num_edges == 3
    survivor.check_port_consistency()
    dist = surviving_distance_matrix(graph, FaultSet(edges=((0, 1),), nodes=(3,)))
    assert (dist[3, :] == UNREACHABLE).all() and (dist[:, 3] == UNREACHABLE).all()
    # Survivor distances agree with the relabelled subgraph's.
    sub_dist = distance_matrix(survivor)
    alive = np.nonzero(old_to_new >= 0)[0]
    assert np.array_equal(
        dist[np.ix_(alive, alive)], sub_dist[np.ix_(old_to_new[alive], old_to_new[alive])]
    )


def test_surviving_distances_are_derived_once_per_graph_and_fault_set():
    graph = generators.torus_2d(6, 6)
    faults = FaultSet(edges=((0, 1),), nodes=(7,))
    other = FaultSet(edges=((0, 6),))
    want = surviving_distance_matrix(generators.torus_2d(6, 6), faults)  # its own memo
    first = surviving_distance_matrix(graph, faults)
    memo = graph.derived.surviving
    assert set(memo) == {faults.fingerprint()}
    # Narrowest signed dtype holding the diameter (and UNREACHABLE) in the
    # memo; a fresh, writable int64 copy at the API boundary.
    assert memo[faults.fingerprint()].dtype == np.int8
    assert first.dtype == np.int64 and first.flags.writeable
    assert np.array_equal(first, want)
    first[:] = 0  # the caller's copy, not the memo
    again = surviving_distance_matrix(graph.copy(), faults)  # copies share the memo
    assert np.array_equal(again, want) and again is not first
    assert len(memo) == 1
    surviving_distance_matrix(graph, other)
    assert set(memo) == {faults.fingerprint(), other.fingerprint()}
    mutated = graph.copy()
    mutated.add_edge(0, 14)  # a new snapshot starts an empty memo
    assert mutated.derived.surviving == {}


@pytest.mark.parametrize(
    "graph, faults, diameter, dtype",
    [
        (generators.path_graph(128), FaultSet(), 127, np.int8),
        (generators.path_graph(129), FaultSet(), 128, np.int16),
        (generators.cycle_graph(129), FaultSet(edges=((0, 1),)), 128, np.int16),
    ],
    ids=["path-127", "path-128", "cycle-129-cut"],
)
def test_surviving_distance_memo_holds_the_diameter_at_the_int8_edge(
    graph, faults, diameter, dtype
):
    # +diameter must fit the memo's dtype next to UNREACHABLE: a diameter of
    # 128 in int8 would wrap to -128.
    got = surviving_distance_matrix(graph, faults)
    assert graph.derived.surviving[faults.fingerprint()].dtype == dtype
    # No failed node, so the survivor keeps every label; its int64 BFS is
    # the answer.
    survivor, old_to_new = surviving_graph(graph, faults)
    assert np.array_equal(old_to_new, np.arange(graph.n))
    want = distance_matrix(survivor)
    assert want.dtype == np.int64 and int(want.max()) == diameter
    assert got.dtype == np.int64 and np.array_equal(got, want)


def test_functional_hops_treats_dropped_as_absorbing():
    succ = np.array([1, 2, 2, DROPPED, 0], dtype=np.int64)
    stop = np.array([False, False, True, False, False])
    target, hops = resolve_functional(succ, stop)
    assert hops.tolist() == [2, 1, 0, -1, 3]
    assert target[hops >= 0].tolist() == [2, 2, 2, 2]
    # Marking the dropped state itself as stopping makes it hop 0.
    target2, hops2 = resolve_functional(succ, stop | (succ == DROPPED))
    assert hops2.tolist() == [2, 1, 0, 0, 3]
    assert target2.tolist() == [2, 2, 2, 3, 2]


def test_fault_scenario_generator_is_seeded_and_skips_oversized_ks():
    graph = generators.random_tree(10, seed=0)  # 9 edges, bridges everywhere
    scenarios = fault_scenarios(graph, seed=4, edge_ks=(1, 2, 50), node_ks=(1, 20), per_k=2)
    labels = [label for label, _ in scenarios]
    assert labels == ["edge-k1-s0", "edge-k1-s1", "edge-k2-s0", "edge-k2-s1",
                      "node-k1-s0", "node-k1-s1"]
    again = fault_scenarios(graph, seed=4, edge_ks=(1, 2, 50), node_ks=(1, 20), per_k=2)
    assert scenarios == again
    for label, faults in scenarios:
        faults.validate(graph)
        kind, k = label.split("-")[0], int(label.split("-")[1][1:])
        assert faults.kind == kind and faults.size == k


# ----------------------------------------------------------------------
# the sharded resilience sweep reuses one compile across all scenarios
# ----------------------------------------------------------------------
def test_warm_resilience_sweep_reuses_cached_programs(tmp_path):
    from repro.analysis.resilience import survival_curves
    from repro.analysis.runner import ShardedRunner

    families = {name: FAMILIES[name].copy() for name in ("grid", "hypercube", "random-sparse")}
    schemes = scheme_registry(seed=7)
    runner = ShardedRunner(cache_dir=tmp_path, processes=1)
    cells, skipped, stats = runner.resilience_sweep(schemes=schemes, families=families, seed=7)
    assert cells and stats.compile_misses > 0
    cells2, skipped2, stats2 = runner.resilience_sweep(
        schemes=schemes, families=families, seed=7
    )
    assert cells2 == cells and skipped2 == skipped
    assert survival_curves(cells2) == survival_curves(cells)
    # The acceptance criterion: a warm sweep executes cached programs only.
    assert stats2.compile_hit_rate == 1.0
    assert stats2.misses == 0

    by_key = {(c.scheme, c.family, c.scenario): c for c in cells}
    assert len(by_key) == len(cells)
    for cell in cells:
        assert cell.feasible >= cell.routable >= cell.delivered
        assert cell.delivered + cell.dropped + cell.livelocked + cell.misdelivered <= cell.feasible
        assert 0.0 <= cell.survival_rate <= 1.0
        assert cell.max_stretch >= cell.mean_stretch >= 1.0 or cell.delivered == 0

    # Curves cover every (scheme, kind) with cells, ordered by k.
    for curve in survival_curves(cells):
        ks = [point[0] for point in curve.points]
        assert ks == sorted(ks)


def test_pooled_resilience_sweep_matches_serial(tmp_path):
    from repro.analysis.runner import ShardedRunner

    families = {"grid": FAMILIES["grid"].copy(), "random-sparse": FAMILIES["random-sparse"].copy()}
    schemes = {name: SCHEMES[name] for name in ("interval", "tables-lowest-port", "landmark-sqrt", "ecube")}
    serial = ShardedRunner(cache_dir=tmp_path / "serial", processes=1)
    pooled = ShardedRunner(cache_dir=tmp_path / "pooled", processes=2)
    cells_serial, skipped_serial, _ = serial.resilience_sweep(schemes=schemes, families=families, seed=7)
    cells_pooled, skipped_pooled, stats = pooled.resilience_sweep(schemes=schemes, families=families, seed=7)
    assert cells_pooled == cells_serial
    assert skipped_pooled == skipped_serial


def test_resilience_cells_on_generic_schemes_interpret_the_live_function(tmp_path):
    from repro.analysis.resilience import resilience_cell
    from repro.analysis.runner import ExperimentCache

    class _TTLScheme:
        name = "ttl"
        stretch_guarantee = None

        def build(self, graph):
            return _TTLRewritingFunction(graph)

    graph = FAMILIES["grid"].copy()
    cache = ExperimentCache(tmp_path)
    scenarios = _scenarios_for(graph)
    rows = resilience_cell(_TTLScheme(), graph, "grid", "ttl", scenarios, cache)
    assert len(rows) == len(scenarios)
    assert all(row.mode == "generic-masked" for row in rows)
    # Warm: the cached generic marker still routes through the interpreter.
    rows2 = resilience_cell(_TTLScheme(), graph, "grid", "ttl", scenarios, cache)
    assert rows2 == rows
