"""The static program verifier: differential, mutation, and integration suites.

Three layers of guarantees over :mod:`repro.routing.verify`:

* **Differential** — for every registry scheme x graph family whose program
  compiles (next-hop or header-state), the verifier's closed-form pair
  classification, hop counts and exact stretch equal what the executors
  observe: the per-message interpreter
  (:func:`repro.sim.engine.interpret`, with the exact stretch recomputed
  pair by pair), the masked fault executor
  (:func:`repro.sim.faults.simulate_with_faults`, outcome **and** lengths
  bit-for-bit), and delta-patched programs under churn.  Hypothesis
  extends the equality to random graphs for both program kinds, and races
  the one-hop descent proof of ``apply_delta(static_check=True)`` against
  the fate-resolving proof of ``tests/oracles.py`` on corrupted patches.

* **Mutation negatives** — corrupted artifacts (out-of-range successors, a
  stray ``-1``, broken absorbing destinations, injected cycles, stale
  analysis fields, truncated ``.rpg`` sections) produce the *precise*
  diagnostic each corruption deserves, never a wrong-but-plausible report.

* **Integration** — the cache's ``verify=True`` integrity gate rejects
  within-framing corruption, ``apply_delta(static_check=True)`` raises on
  an unsound patch, and ``ShardedRunner.verify_sweep`` proves the registry
  grid without executing a message.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, event, given
from hypothesis import strategies as st

from conftest import churn_traces, profile_settings
from oracles import resolved_patched_soundness
from repro.graphs import generators
from repro.graphs.shortest_paths import distance_matrix
from repro.routing.hierarchical import HierarchicalSpannerScheme
from repro.routing.landmark import CowenLandmarkScheme
from repro.routing.program import (
    DROPPED,
    MISDELIVER,
    NO_ROUTE,
    GenericProgram,
    HeaderStateProgram,
    NextHopProgram,
    _assert_patched_sound,
    apply_delta,
    compile_scheme_program,
    program_from_bytes,
)
from repro.routing.tables import ShortestPathTableScheme
from repro.routing.verify import (
    VERDICT_DELIVERED,
    VERDICT_DROPPED,
    VERDICT_INFEASIBLE,
    VERDICT_LIVELOCKED,
    VERDICT_MISDELIVERED,
    ProgramVerificationError,
    verify_program,
    verify_structure,
)
from repro.sim import simulate_all_pairs
from repro.sim.churn import churn_scenarios
from repro.sim.engine import interpret
from repro.sim.faults import (
    FaultSet,
    apply_faults,
    simulate_with_faults,
)
from repro.sim.registry import fault_scenarios, graph_families, scheme_registry

SCHEMES = scheme_registry()
FAMILIES = graph_families(size="small", seed=0)


def _compiled_cells():
    """Every (scheme, family) cell of the registry that compiles to a
    statically-verifiable program, with its routing function."""
    for family_name, graph in FAMILIES.items():
        for scheme_name, scheme in SCHEMES.items():
            try:
                rf = scheme.build(graph.copy())
            except ValueError:
                continue
            program = rf.compile_program()
            if isinstance(program, GenericProgram):
                continue
            yield scheme_name, family_name, graph, rf, program


def _expected_outcome(sim, n: int) -> np.ndarray:
    """SimulationResult -> the verdict matrix the verifier must produce."""
    outcome = np.full((n, n), VERDICT_LIVELOCKED, dtype=np.int8)
    outcome[sim.delivered] = VERDICT_DELIVERED
    outcome[sim.misdelivered] = VERDICT_MISDELIVERED
    np.fill_diagonal(outcome, VERDICT_INFEASIBLE)
    return outcome


# ----------------------------------------------------------------------
# differential: verifier == executor
# ----------------------------------------------------------------------
def _per_pair_max_stretch(hops, dist, delivered) -> Fraction:
    """Exact worst stretch, one Fraction per distinct (hops, distance) pair."""
    mask = delivered & (dist > 0)
    pairs = set(zip(hops[mask].tolist(), dist[mask].tolist()))
    return max((Fraction(h, d) for h, d in pairs), default=Fraction(1))


def test_differential_unmasked_full_registry():
    """verify(program) == the per-message interpreter on every cell.

    The interpreter walks the live routing function one message at a time
    and never reads the compiled arrays, and the exact worst stretch is
    recomputed pair by pair here, so neither side of the race shares a
    kernel with the verifier.
    """
    cells = 0
    kinds = set()
    stretched = 0
    for scheme_name, family_name, graph, rf, program in _compiled_cells():
        interpreted, _ = interpret(rf)
        dist = distance_matrix(graph)
        report = verify_program(program)
        max_stretch, _ = report.stretch(dist)
        label = f"{scheme_name} x {family_name}"
        assert report.issues == (), label
        np.testing.assert_array_equal(report.outcome, interpreted.outcome, err_msg=label)
        delivered = report.outcome == VERDICT_DELIVERED
        np.testing.assert_array_equal(
            report.hops[delivered], interpreted.hops[delivered], err_msg=label
        )
        assert (report.hops.diagonal() == 0).all(), label
        assert max_stretch == _per_pair_max_stretch(
            interpreted.hops, dist, delivered
        ), label
        stretched += max_stretch > 1
        kinds.add(program.kind)
        cells += 1
    # The registry must keep exercising both compiled kinds on a healthy
    # spread of the 15 x 20 grid, stretched schemes included.
    assert cells >= 200, cells
    assert stretched >= 20, stretched
    assert kinds == {"next-hop", "header-state"}


def test_differential_masked_full_registry():
    """Outcome AND lengths equal simulate_with_faults bit-for-bit."""
    cells = 0
    for scheme_name, family_name, graph, rf, program in _compiled_cells():
        scenarios = fault_scenarios(
            graph, seed=3, edge_ks=(1, 2), node_ks=(1,), per_k=1
        )
        for fault_label, faults in scenarios:
            masked = apply_faults(program, graph, faults)
            res = simulate_with_faults(rf, faults, program=program, graph=graph)
            report = verify_program(masked, alive=faults.alive_mask(graph.n))
            label = f"{scheme_name} x {family_name} x {fault_label}"
            np.testing.assert_array_equal(report.outcome, res.outcome, err_msg=label)
            np.testing.assert_array_equal(report.hops, res.lengths, err_msg=label)
            cells += 1
    assert cells >= 600, cells


def test_differential_delta_patched_programs():
    """Verification of delta-patched programs equals simulating them."""
    checked = 0
    for family_name in ("random-dense", "grid"):
        graph = FAMILIES[family_name]
        scheme = SCHEMES["tables-lowest-port"]
        program = compile_scheme_program(scheme, graph)
        dist = None
        for trace_label, trace in churn_scenarios(graph, seed=5, steps=3):
            prog, d, g = program, dist, graph
            for before, step in trace.transitions():
                try:
                    result = apply_delta(
                        prog, before, step.graph, scheme, dist_before=d
                    )
                except ValueError:
                    break
                prog, d, g = result.program, result.dist_after, step.graph
                rf = scheme.build(g.copy())
                sim = simulate_all_pairs(rf, program=prog)
                report = verify_program(prog)
                np.testing.assert_array_equal(
                    report.outcome,
                    _expected_outcome(sim, g.n),
                    err_msg=f"{family_name} x {trace_label}",
                )
                assert report.all_delivered
                # A table program routes shortest paths: hops == distance.
                delivered = report.outcome == VERDICT_DELIVERED
                np.testing.assert_array_equal(report.hops[delivered], d[delivered])
                assert report.stretch(d)[0] == Fraction(1)
                checked += 1
    assert checked >= 6, checked


@given(
    n=st.integers(min_value=3, max_value=24),
    extra=st.floats(min_value=0.0, max_value=0.4),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_verify_matches_simulation_next_hop_random(n, extra, seed):
    graph = generators.random_connected_graph(n, extra_edge_prob=extra, seed=seed)
    rf = ShortestPathTableScheme().build(graph)
    program = rf.compile_program()
    assert isinstance(program, NextHopProgram)
    sim = simulate_all_pairs(rf, program=program)
    report = verify_program(program)
    np.testing.assert_array_equal(report.outcome, _expected_outcome(sim, n))
    delivered = report.outcome == VERDICT_DELIVERED
    np.testing.assert_array_equal(report.hops[delivered], sim.lengths[delivered])


@given(
    n=st.integers(min_value=4, max_value=20),
    extra=st.floats(min_value=0.0, max_value=0.4),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_verify_matches_simulation_header_state_random(n, extra, seed):
    graph = generators.random_connected_graph(n, extra_edge_prob=extra, seed=seed)
    rf = HierarchicalSpannerScheme(spanner_stretch=3.0, seed=0, rewriting=True).build(graph)
    program = rf.compile_program()
    assert isinstance(program, HeaderStateProgram)
    sim = simulate_all_pairs(rf, program=program)
    report = verify_program(program)
    np.testing.assert_array_equal(report.outcome, _expected_outcome(sim, n))
    delivered = report.outcome == VERDICT_DELIVERED
    np.testing.assert_array_equal(report.hops[delivered], sim.lengths[delivered])


@given(
    n=st.integers(min_value=3, max_value=16),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_verify_matches_masked_executor_random(n, seed):
    graph = generators.random_connected_graph(n, extra_edge_prob=0.3, seed=seed)
    rf = ShortestPathTableScheme().build(graph)
    program = rf.compile_program()
    scenarios = fault_scenarios(graph, seed=seed, edge_ks=(1,), node_ks=(1,), per_k=1)
    for _, faults in scenarios:
        masked = apply_faults(program, graph, faults)
        res = simulate_with_faults(rf, faults, program=program, graph=graph)
        report = verify_program(masked, alive=faults.alive_mask(n))
        np.testing.assert_array_equal(report.outcome, res.outcome)
        np.testing.assert_array_equal(report.hops, res.lengths)


# ----------------------------------------------------------------------
# report API
# ----------------------------------------------------------------------
class TestReportAPI:
    @pytest.fixture(scope="class")
    def table_report(self):
        graph = FAMILIES["grid"]
        program = compile_scheme_program(ShortestPathTableScheme(), graph)
        dist = distance_matrix(graph)
        return graph, verify_program(program), dist

    def test_counts_partition_all_pairs(self, table_report):
        graph, report, _ = table_report
        assert sum(report.counts().values()) == graph.n * (graph.n - 1)
        assert report.counts()["delivered"] == graph.n * (graph.n - 1)
        assert report.counts()["infeasible"] == 0

    def test_ok_and_all_delivered(self, table_report):
        _, report, _ = table_report
        assert report.ok
        assert report.all_delivered
        assert report.pairs(VERDICT_LIVELOCKED) == []
        assert report.pairs(VERDICT_MISDELIVERED) == []
        assert report.pairs(VERDICT_DROPPED) == []

    def test_require_all_delivered_returns_lengths(self, table_report):
        graph, report, dist = table_report
        lengths = report.require_all_delivered()
        np.testing.assert_array_equal(lengths, dist)

    def test_exact_stretch_of_shortest_path_tables(self, table_report):
        _, report, dist = table_report
        max_stretch, mean_stretch = report.stretch(dist)
        assert max_stretch == Fraction(1)
        assert mean_stretch == pytest.approx(1.0)

    def test_max_finite_hops_is_diameter_for_tables(self, table_report):
        _, report, dist = table_report
        assert report.max_finite_hops == int(dist.max())

    def test_stretch_matches_engine_on_stretched_scheme(self):
        graph = FAMILIES["random-sparse"]
        scheme = CowenLandmarkScheme(seed=0)
        rf = scheme.build(graph.copy())
        program = rf.compile_program()
        dist = distance_matrix(graph)
        report = verify_program(program)
        sim = simulate_all_pairs(rf, program=program)
        assert report.stretch(dist)[0] == sim.max_stretch(dist=dist)

    def test_require_all_delivered_names_first_lost_pair(self):
        graph = FAMILIES["path"]
        program = compile_scheme_program(ShortestPathTableScheme(), graph)
        nn = np.array(program.next_node, copy=True)
        # 0 -> 2 now bounces between the endpoints forever.
        nn[0, 2] = 1
        nn[1, 2] = 0
        report = verify_program(program.with_next_node(nn))
        with pytest.raises(ProgramVerificationError, match="0 -> 2 \\(livelocked\\)"):
            report.require_all_delivered()


# ----------------------------------------------------------------------
# mutation negatives: corrupt artifacts -> precise diagnostics
# ----------------------------------------------------------------------
class TestNextHopMutations:
    @pytest.fixture()
    def program(self):
        return compile_scheme_program(ShortestPathTableScheme(), FAMILIES["grid"])

    def _mutated(self, program, x, d, value):
        nn = np.array(program.next_node, copy=True)
        nn[x, d] = value
        return program.with_next_node(nn)

    def test_out_of_range_successor_raises(self, program):
        bad = self._mutated(program, 2, 5, program.n + 7)
        with pytest.raises(
            ProgramVerificationError,
            match=r"next_node contains 1 out-of-range entries: first at "
            r"\(node 2, dest 5\)",
        ):
            verify_structure(bad)

    def test_stray_minus_one_raises(self, program):
        # -1 is NO_ROUTE in distance/initial contexts but never a valid
        # transition; the verifier must not lump it in with the sentinels.
        bad = self._mutated(program, 1, 4, NO_ROUTE)
        with pytest.raises(ProgramVerificationError, match="out-of-range"):
            verify_program(bad)

    def test_broken_absorbing_destination_is_semantic_issue(self, program):
        d = 3
        neighbor = int(program.next_node[0, d])
        bad = self._mutated(program, d, d, neighbor)
        issues = verify_structure(bad)
        assert len(issues) == 1
        assert f"next_node[{d}, {d}] = {neighbor}" in issues[0]
        # Classifiable, not fatal: the report carries the scan's issue.
        report = verify_program(bad)
        assert report.issues == tuple(issues)
        assert "not absorbing" in issues[0]
        # And the classification still matches the executor, which routes
        # messages *through* a non-absorbing destination.
        rf = ShortestPathTableScheme().build(FAMILIES["grid"].copy())
        sim = simulate_all_pairs(rf, program=bad)
        np.testing.assert_array_equal(
            report.outcome, _expected_outcome(sim, bad.n)
        )

    def test_injected_cycle_proves_livelock(self, program):
        n = program.n
        nn = np.array(program.next_node, copy=True)
        a, b, d = 0, 1, n - 1
        nn[a, d] = b
        nn[b, d] = a
        report = verify_program(program.with_next_node(nn))
        assert report.outcome[a, d] == VERDICT_LIVELOCKED
        assert report.outcome[b, d] == VERDICT_LIVELOCKED
        assert report.hops[a, d] == NO_ROUTE
        # Every other destination column is untouched.
        untouched = np.delete(np.arange(n), d)
        assert (report.outcome[:, untouched][report.outcome[:, untouched] != VERDICT_INFEASIBLE] == VERDICT_DELIVERED).all()

    def test_misdeliver_sentinel_classified_with_prefix_hops(self, program):
        d = 4
        src = next(
            x for x in range(program.n) if x != d and program.next_node[x, d] == d
        )
        bad = self._mutated(program, src, d, MISDELIVER)
        report = verify_program(bad)
        assert report.outcome[src, d] == VERDICT_MISDELIVERED
        # The message stops AT src before the sentinel hop: zero-length
        # prefix for a direct neighbor.
        assert report.hops[src, d] == 0

    def test_wrong_shape_raises(self, program):
        # The view API refuses a wrong shape up front, so smuggle the
        # corruption past it the way a decoder bug would.
        bad = dataclasses.replace(
            program, next_node=np.array(program.next_node[:-1], copy=True)
        )
        with pytest.raises(ProgramVerificationError, match="square"):
            verify_structure(bad)

    def test_alive_mask_shape_checked(self, program):
        with pytest.raises(ProgramVerificationError, match="alive mask"):
            verify_program(program, alive=np.ones(program.n + 1, dtype=bool))


class TestHeaderStateMutations:
    @pytest.fixture()
    def program(self):
        scheme = HierarchicalSpannerScheme(spanner_stretch=3.0, seed=0, rewriting=True)
        return compile_scheme_program(scheme, FAMILIES["random-sparse"])

    def test_out_of_range_successor_raises(self, program):
        # Smuggle the corruption in like a decoder bug would.
        succ = np.array(program.succ, copy=True)
        succ[0] = program.num_states + 3
        bad = dataclasses.replace(program, succ=succ)
        with pytest.raises(
            ProgramVerificationError,
            match="succ contains 1 out-of-range state ids: first at state 0",
        ):
            verify_structure(bad)

    def test_stray_minus_one_successor_raises(self, program):
        succ = np.array(program.succ, copy=True)
        live = int(np.nonzero(succ >= 0)[0][0])
        succ[live] = NO_ROUTE
        bad = dataclasses.replace(program, succ=succ)
        with pytest.raises(ProgramVerificationError, match="out-of-range"):
            verify_structure(bad)

    def test_corrupt_initial_diagonal_is_semantic_issue(self, program):
        initial = np.array(program.initial, copy=True)
        initial[2, 2] = 0
        bad = dataclasses.replace(program, initial=initial)
        issues = verify_structure(bad)
        assert any("initial diagonal" in issue for issue in issues)

    def test_out_of_range_node_of_raises(self, program):
        node_of = np.array(program.node_of, copy=True)
        node_of[1] = program.n + 2
        bad = dataclasses.replace(program, node_of=node_of)
        with pytest.raises(ProgramVerificationError, match="node_of contains"):
            verify_structure(bad)

    def test_injected_state_cycle_proves_livelock(self, program):
        succ = np.array(program.succ, copy=True)
        deliver = np.array(program.deliver, copy=True)
        # Find a pair's initial state and wire it into a 1-cycle.
        n = program.n
        x, y = 0, 1
        s = int(program.initial[x, y])
        succ[s] = s
        deliver[s] = False
        bad = program.with_transitions(succ=succ, deliver=deliver)
        report = verify_program(bad)
        assert report.outcome[x, y] == VERDICT_LIVELOCKED
        assert report.hops[x, y] == NO_ROUTE


class TestSerializationMutations:
    def test_truncated_rpg_payload_raises(self):
        program = compile_scheme_program(ShortestPathTableScheme(), FAMILIES["grid"])
        blob = program.to_bytes()
        with pytest.raises(ValueError, match="truncated"):
            program_from_bytes(blob[:-16])

    def test_generic_program_not_verifiable(self):
        scheme = SCHEMES["spanner5-landmark"]
        graph = FAMILIES["random-sparse"]
        program = compile_scheme_program(scheme, graph)
        if not isinstance(program, GenericProgram):
            pytest.skip("registry stopped lowering this scheme generically")
        with pytest.raises(
            ProgramVerificationError, match="interpreted, not compiled"
        ):
            verify_program(program)


# ----------------------------------------------------------------------
# integration: cache gate, delta soundness, sweeps, conformance
# ----------------------------------------------------------------------
class TestCacheIntegrityGate:
    def _store_corrupt(self, tmp_path):
        from repro.analysis.runner import ExperimentCache

        graph = FAMILIES["grid"]
        program = compile_scheme_program(ShortestPathTableScheme(), graph)
        nn = np.array(program.next_node, copy=True)
        # Out-of-range successor: bytes corrupted *within* valid framing,
        # exactly what only the strict structural gate can catch.
        nn[0, 3] = graph.n + 5
        corrupt = dataclasses.replace(program, next_node=nn)
        cache = ExperimentCache(tmp_path)
        cache.store_program_entry("deadbeef", corrupt)
        return ExperimentCache(tmp_path)  # fresh process view: no memory

    def test_unverified_load_returns_corrupt_artifact(self, tmp_path):
        cache = self._store_corrupt(tmp_path)
        found, program = cache.load_program_entry("deadbeef")
        assert found
        assert int(program.next_node[0, 3]) == FAMILIES["grid"].n + 5

    def test_verified_load_degrades_to_miss(self, tmp_path):
        cache = self._store_corrupt(tmp_path)
        found, program = cache.load_program_entry("deadbeef", verify=True)
        assert not found and program is None

    def test_healthy_artifact_passes_the_gate(self, tmp_path):
        from repro.analysis.runner import ExperimentCache

        program = compile_scheme_program(ShortestPathTableScheme(), FAMILIES["grid"])
        cache = ExperimentCache(tmp_path)
        cache.store_program_entry("cafe", program)
        fresh = ExperimentCache(tmp_path)
        found, loaded = fresh.load_program_entry("cafe", verify=True)
        assert found
        np.testing.assert_array_equal(loaded.next_node, program.next_node)


class TestApplyDeltaStaticCheck:
    def test_clean_delta_chain_passes_the_proof(self):
        graph = FAMILIES["random-dense"]
        scheme = SCHEMES["tables-lowest-port"]
        program = compile_scheme_program(scheme, graph)
        dist = None
        (_, trace) = churn_scenarios(graph, seed=1, steps=3)[0]
        patched = 0
        for before, step in trace.transitions():
            result = apply_delta(
                program, before, step.graph, scheme, dist_before=dist,
                static_check=True,
            )
            program, dist = result.program, result.dist_after
            patched += result.mode == "patched"
        assert patched >= 1

    def test_corrupt_base_program_fails_the_proof(self):
        graph = FAMILIES["random-dense"]
        scheme = SCHEMES["tables-lowest-port"]
        (_, trace) = churn_scenarios(graph, seed=1, steps=1)[0]
        before, step = next(iter(trace.transitions()))
        raised = 0
        for d in range(graph.n):
            program = compile_scheme_program(scheme, graph)
            nn = np.array(program.next_node, copy=True)
            a = (d + 1) % graph.n
            b = (d + 2) % graph.n
            nn[a, d] = b
            nn[b, d] = a
            corrupt = program.with_next_node(nn)
            try:
                result = apply_delta(
                    corrupt, before, step.graph, scheme, static_check=True
                )
            except ProgramVerificationError as exc:
                assert "static soundness proof" in str(exc)
                raised += 1
            else:
                # The delta repaired the corruption only if it recomputed
                # or dirtied exactly that column; a surviving patch must
                # then genuinely be sound.
                if result.mode == "patched":
                    assert verify_program(result.program).all_delivered
        assert raised >= 1

    def test_node_masked_report_still_flags_a_non_absorbing_alive_destination(self):
        graph = FAMILIES["random-dense"]
        scheme = SCHEMES["tables-lowest-port"]
        (_, trace) = churn_scenarios(graph, seed=3, steps=1)[0]
        before, step = next(iter(trace.transitions()))
        faults = FaultSet.from_nodes([3])
        result = apply_delta(compile_scheme_program(scheme, before), before, step.graph, scheme)
        assert result.mode == "patched"
        masked = apply_faults(result.program, step.graph, faults)
        alive = faults.alive_mask(graph.n)
        assert verify_program(masked, alive=alive).issues == ()
        assert verify_structure(masked)  # unexempted, the dead diagonal shows
        d = next(v for v in range(graph.n) if alive[v] and v != 3)
        nn = np.array(masked.next_node, copy=True)
        nn[d, d] = next(v for v in step.graph.neighbors(d) if alive[v])
        issues = verify_program(masked.with_next_node(nn), alive=alive).issues
        assert len(issues) == 1 and f"next_node[{d}, {d}]" in issues[0]


CORRUPTIONS = ("neighbour", "two-cycle", "misdeliver", "dropped", "diagonal")


def _proof_accepts(proof, program, dist_after) -> bool:
    try:
        proof(program, dist_after)
    except ProgramVerificationError:
        return False
    return True


@profile_settings(base_examples=60)
@given(data=st.data())
def test_descent_proof_races_the_resolved_proof(data):
    """One-hop descent proof vs the fate-resolving proof on corrupted patches.

    A patched table program gets one corrupted entry: a neighbour, a
    2-cycle with a neighbour, ``MISDELIVER``, ``DROPPED`` or a
    non-absorbing diagonal.  Both proofs must agree.
    """
    trace = data.draw(churn_traces(max_steps=1))
    before, step = next(iter(trace.transitions()))
    graph = step.graph
    scheme = SCHEMES["tables-lowest-port"]
    result = apply_delta(compile_scheme_program(scheme, before), before, graph, scheme)
    dist = result.dist_after if result.dist_after is not None else distance_matrix(graph)
    program = result.program
    n = graph.n
    nn = np.array(program.next_node, copy=True)
    kind = data.draw(st.sampled_from(CORRUPTIONS), label="corruption")
    d = data.draw(st.integers(min_value=0, max_value=n - 1), label="dest")
    x = data.draw(st.sampled_from([v for v in range(n) if v != d]), label="node")
    if kind == "neighbour":
        nn[x, d] = data.draw(st.sampled_from(graph.neighbors(x)), label="neighbour")
    elif kind == "two-cycle":
        # x's successor hands the message straight back to x.
        succ = int(nn[x, d])
        assume(succ >= 0 and succ != d)
        nn[succ, d] = x
        x = succ
    elif kind == "misdeliver":
        nn[x, d] = MISDELIVER
    elif kind == "dropped":
        nn[x, d] = DROPPED
    else:
        x = d
        nn[d, d] = data.draw(st.sampled_from(graph.neighbors(d)), label="neighbour")
    corrupt = program.with_next_node(nn)
    new = _proof_accepts(_assert_patched_sound, corrupt, dist)
    old = _proof_accepts(resolved_patched_soundness, corrupt, dist)
    event(f"{kind}: descent {new}, resolved {old}")
    assert new == old, (kind, x, d)


class TestSweepsAndConformance:
    def test_verify_sweep_proves_the_grid_without_executing(self):
        from repro.analysis.runner import ShardedRunner

        runner = ShardedRunner(cache_dir=None, processes=1)
        schemes = {
            k: SCHEMES[k]
            for k in ("tables-lowest-port", "interval", "landmark-sqrt")
        }
        results, skipped, stats = runner.verify_sweep(
            schemes=schemes, size="small", seed=0
        )
        assert results
        for cell in results:
            assert cell.verified
            assert cell.livelocked == 0
            assert cell.misdelivered == 0
            assert cell.all_delivered
        assert len(results) + len(skipped) == len(schemes) * len(FAMILIES)
