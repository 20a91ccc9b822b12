"""The resolver-backed executors against the per-step dense oracles.

:func:`repro.sim.engine.execute_program` and
:func:`repro.sim.engine.execute_masked_program` answer every pair's fate in
closed form through :func:`repro.routing.verify.resolve_fates`.  Every test
here pins the result's report (``outcome`` verdicts and exact ``hops``),
``steps`` and ``mode`` — and the ``lengths`` / ``delivered`` /
``misdelivered`` views read off the report — against the ``(outcome,
hops, steps)`` of the per-step loops of ``tests/conftest.py``
(:func:`conftest.execute_dense`, :func:`conftest.execute_masked_dense`),
which advance every in-flight message one hop per step: over the
registry, under fault masks, on
livelocks, misdelivery and drop sentinels, non-absorbing destinations,
degenerate sizes and empty alive universes, and over random programs.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    _corpus,
    execute_dense,
    execute_masked_dense,
    functional_hops,
    profile_settings,
)
from repro.analysis.flow import flow_cell
from repro.analysis.runner import ExperimentCache
from repro.graphs import generators
from repro.routing.landmark import CowenLandmarkScheme
from repro.routing.model import SchemeInapplicableError
from repro.routing.program import (
    DROPPED,
    MISDELIVER,
    HeaderStateExplosionError,
    HeaderStateProgram,
    NextHopProgram,
    compile_scheme_program,
    lower_header_state,
    resolve_functional,
    transition_dtype,
)
from repro.routing.tables import ShortestPathTableScheme
from repro.routing.verify import (
    VERDICT_DELIVERED,
    VERDICT_MISDELIVERED,
    ProgramVerificationError,
    resolve_fates,
    verify_program,
    verify_structure,
)
from repro.sim.engine import execute_masked_program, execute_program
from repro.sim.faults import (
    FaultSet,
    apply_faults,
    random_fault_set,
    simulate_with_faults,
)
from repro.sim.registry import fault_scenarios, scheme_registry


def _graphs():
    yield "random-20", generators.random_connected_graph(20, extra_edge_prob=0.15, seed=11)
    yield "hypercube-4", generators.hypercube(4)
    yield "grid-5x4", generators.grid_2d(5, 4)
    yield "cycle-9", generators.cycle_graph(9)


def _next_hop_programs():
    for name, graph in _graphs():
        program = ShortestPathTableScheme().build(graph).compile_program()
        assert isinstance(program, NextHopProgram)
        yield name, graph, program


_MODES = {"next-hop": "compiled", "header-state": "header-compiled"}


def _assert_same_fates(result, oracle, mode):
    """``result`` holds the oracle's ``(outcome, hops, steps)`` and ``mode``."""
    outcome, hops, steps = oracle
    assert np.array_equal(result.report.outcome, outcome)
    assert np.array_equal(result.report.hops, hops)
    assert (result.steps, result.mode) == (steps, mode)
    # The views: the alive diagonal delivers, lost pairs have length -1.
    delivered = outcome == VERDICT_DELIVERED
    np.fill_diagonal(delivered, hops.diagonal() == 0)
    assert np.array_equal(result.delivered, delivered)
    assert np.array_equal(result.misdelivered, outcome == VERDICT_MISDELIVERED)
    assert np.array_equal(result.lengths, np.where(delivered, hops, -1))


def _assert_plain_matches(program):
    """``execute_program(program)`` equals :func:`conftest.execute_dense`."""
    result = execute_program(program)
    _assert_same_fates(result, execute_dense(program), _MODES[program.kind])
    return result


def _assert_masked_matches(program, alive=None):
    """``execute_masked_program`` equals :func:`conftest.execute_masked_dense`."""
    result = execute_masked_program(program, alive)
    oracle = execute_masked_dense(program, alive)
    _assert_same_fates(result, oracle, _MODES[program.kind] + "-masked")
    return result


def _has_drops(program):
    table = program.next_node if isinstance(program, NextHopProgram) else program.succ
    return bool((table == DROPPED).any())


def _assert_matches_oracle(program, alive=None):
    """Both executors equal their oracle; a masked program refuses the plain one."""
    if _has_drops(program):
        with pytest.raises(ValueError, match="masked"):
            execute_program(program)
    else:
        _assert_plain_matches(program)
    _assert_masked_matches(program, alive)


def _without_drops(program):
    """``program`` with every DROPPED transition turned into a plain stop or loop."""
    if isinstance(program, NextHopProgram):
        return program.with_next_node(
            np.where(program.next_node == DROPPED, MISDELIVER, program.next_node)
        )
    succ = np.where(program.succ == DROPPED, np.arange(program.num_states), program.succ)
    return program.with_transitions(succ=succ)


# ----------------------------------------------------------------------
# the registry, fault-free and under k = 2 edge and node faults
# ----------------------------------------------------------------------
@pytest.mark.parametrize("size", ["small", "medium"])
def test_registry_matches_dense_oracle(size):
    checked = 0
    for family, graph in sorted(_corpus(size).items()):
        scenarios = fault_scenarios(graph, seed=3, edge_ks=(2,), node_ks=(2,), per_k=1)
        for label, scheme in sorted(scheme_registry(seed=0).items()):
            try:
                program = compile_scheme_program(scheme, graph)
            except (SchemeInapplicableError, HeaderStateExplosionError):
                continue
            if program.kind == "generic":
                continue
            _assert_plain_matches(program)
            for _, faults in scenarios:
                masked = apply_faults(program, graph, faults)
                alive = faults.alive_mask(graph.n)
                execution = _assert_masked_matches(masked, alive)
                result = simulate_with_faults(None, faults, program=program, graph=graph)
                assert np.array_equal(result.lengths, execution.report.hops), (label, family)
                assert np.array_equal(result.outcome, execution.report.outcome)
                assert (result.steps, result.mode) == (execution.steps, execution.mode)
            checked += 1
    assert checked > 50


@pytest.mark.parametrize("size", ["small", "medium"])
def test_registry_state_hops_match_the_peel(size):
    # The resolver's per-state stop analysis of every header-state program
    # and masked view equals the backwards peel, state for state.
    checked = 0
    for family, graph in sorted(_corpus(size).items()):
        scenarios = fault_scenarios(graph, seed=5, edge_ks=(2,), node_ks=(2,), per_k=1)
        for label, scheme in sorted(scheme_registry(seed=0).items()):
            try:
                program = compile_scheme_program(scheme, graph)
            except (SchemeInapplicableError, HeaderStateExplosionError):
                continue
            if program.kind != "header-state":
                continue
            views = [program] + [apply_faults(program, graph, f) for _, f in scenarios]
            for view in views:
                stopping = view.deliver | (view.succ == DROPPED)
                expected = functional_hops(view.succ, stopping)
                state_hops = resolve_fates(view).state_hops
                assert np.array_equal(state_hops, expected), (label, family)
            checked += 1
    assert checked > 5


@pytest.mark.parametrize("size", ["small", "medium"])
def test_resolve_fates_is_verify_program_without_issues(size):
    for family, graph in sorted(_corpus(size).items()):
        for label in ("tables-lowest-port", "landmark-rewriting"):
            try:
                program = compile_scheme_program(scheme_registry(seed=0)[label], graph)
            except SchemeInapplicableError:
                continue
            alive = np.arange(graph.n) % 3 != 1
            for mask in (None, alive):
                fates = resolve_fates(program, mask)
                report = verify_program(program, alive=mask)
                assert fates.issues == ()
                assert (fates.kind, fates.n, fates.num_states, fates.masked) == (
                    report.kind, report.n, report.num_states, report.masked
                )
                assert np.array_equal(fates.outcome, report.outcome), (label, family)
                assert np.array_equal(fates.hops, report.hops), (label, family)


def test_resolve_functional_degenerate_inputs():
    empty = np.zeros(0, dtype=np.int16)
    target, hops = resolve_functional(empty, np.zeros(0, dtype=bool))
    assert target.size == 0 and hops.size == 0
    # Every state terminal: no round runs, each state is its own target.
    succ = np.array([1, 2, 0], dtype=np.int16)
    target, hops = resolve_functional(succ, np.ones(3, dtype=bool))
    assert target.tolist() == [0, 1, 2] and hops.tolist() == [0, 0, 0]
    # No terminal at all: a pure cycle never stops.
    _, hops = resolve_functional(succ, np.zeros(3, dtype=bool))
    assert hops.tolist() == [-1, -1, -1]


@pytest.fixture()
def resolve_calls(monkeypatch):
    """State counts of every ``resolve_functional`` call, in call order.

    The counter replaces the function in every loaded ``repro`` module that
    holds it, so a call through any import path is seen.
    """
    calls = []
    real = resolve_functional

    def counting(succ, terminal, limit=None):
        calls.append(int(succ.shape[0]))
        return real(succ, terminal, limit)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "repro" and getattr(module, "resolve_functional", None) is real:
            monkeypatch.setattr(module, "resolve_functional", counting)
    return calls


def test_each_header_state_question_resolves_at_most_once(resolve_calls):
    # A program stores transitions only: lowering and masking never
    # resolve, and a verification or a flow cell resolves exactly once.
    graph = generators.random_connected_graph(16, extra_edge_prob=0.2, seed=3)
    scheme = CowenLandmarkScheme(seed=3, rewriting=True)
    program = lower_header_state(scheme.build(graph.copy()))
    assert isinstance(program, HeaderStateProgram)
    assert resolve_calls == []
    for faults in (FaultSet.empty(), random_fault_set(graph, 2, kind="edge", seed=1)):
        apply_faults(program, graph, faults)
    assert resolve_calls == []
    verify_program(program)
    assert resolve_calls == [program.num_states]
    del resolve_calls[:]
    rows = flow_cell(
        scheme, graph, "random", "landmark-rewriting", ("uniform", "zipf"), ExperimentCache(None)
    )
    assert [row.kind for row in rows] == ["header-state"] * 2
    assert resolve_calls == [program.num_states]


def test_masked_execution_rejects_a_wrong_alive_shape():
    program = ShortestPathTableScheme().build(generators.cycle_graph(5)).compile_program()
    with pytest.raises(ValueError, match="alive mask"):
        execute_masked_program(program, np.ones(4, dtype=bool))


# ----------------------------------------------------------------------
# hand-built cases
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "name,graph,program", list(_next_hop_programs()), ids=lambda v: v if isinstance(v, str) else ""
)
def test_next_hop_matches_dense(name, graph, program):
    _assert_plain_matches(program)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_header_state_matches_dense(seed):
    graph = generators.random_connected_graph(16, extra_edge_prob=0.2, seed=seed)
    program = CowenLandmarkScheme(seed=seed, rewriting=True).build(graph).compile_program()
    _assert_plain_matches(program)


@pytest.mark.parametrize("kind,k", [("edge", 3), ("node", 2)])
def test_masked_next_hop_matches_dense_under_faults(kind, k):
    graph = generators.random_connected_graph(18, extra_edge_prob=0.2, seed=4)
    program = ShortestPathTableScheme().build(graph).compile_program()
    faults = random_fault_set(graph, k, kind=kind, seed=9)
    masked = apply_faults(program, graph, faults)
    alive = faults.alive_mask(graph.n)
    _assert_masked_matches(masked, alive)


@pytest.mark.parametrize("kind,k", [("edge", 3), ("node", 2)])
def test_masked_header_state_matches_dense_under_faults(kind, k):
    graph = generators.random_connected_graph(16, extra_edge_prob=0.2, seed=6)
    program = CowenLandmarkScheme(seed=6, rewriting=True).build(graph).compile_program()
    faults = random_fault_set(graph, k, kind=kind, seed=2)
    masked = apply_faults(program, graph, faults)
    alive = faults.alive_mask(graph.n)
    _assert_masked_matches(masked, alive)


def test_livelock_ring_agrees_and_exhausts_budget():
    # A unanimous "route clockwise, never absorb" table: every off-diagonal
    # pair livelocks, lengths stay -1, and steps report the n-hop walk.
    n = 8
    table = np.empty((n, n), dtype=np.int16)
    for cur in range(n):
        table[cur, :] = (cur + 1) % n
    program = NextHopProgram(next_node=table)
    result = _assert_plain_matches(program)
    assert result.steps == n
    offdiag = ~np.eye(n, dtype=bool)
    assert (result.lengths[offdiag] == -1).all()
    assert not result.delivered[offdiag].any()


def test_misdelivery_sentinels_agree():
    graph = generators.cycle_graph(7)
    program = ShortestPathTableScheme().build(graph).compile_program()
    table = program.next_node.copy()
    table[2, 5] = MISDELIVER
    table[3, 0] = MISDELIVER
    bad = NextHopProgram(next_node=table)
    result = _assert_plain_matches(bad)
    assert result.misdelivered.any()
    assert (result.lengths[result.misdelivered] == -1).all()
    _assert_masked_matches(bad)


def test_non_absorbing_destinations_pass_messages_through():
    # Destination 2 forwards onwards instead of delivering: messages for it
    # pass through and circle forever, every other destination delivers.
    graph = generators.cycle_graph(6)
    program = ShortestPathTableScheme().build(graph).compile_program()
    table = program.next_node.copy()
    table[2, 2] = 3
    bad = NextHopProgram(next_node=table)
    assert verify_structure(bad)  # a semantic issue, not a structural error
    result = _assert_plain_matches(bad)
    assert not result.delivered[[0, 1, 3, 4, 5], 2].any()
    assert result.steps == graph.n
    _assert_masked_matches(bad)


@pytest.mark.parametrize("kind", ["next-hop", "header-state"])
def test_unmasked_dropped_program_is_rejected(kind):
    graph = generators.cycle_graph(6)
    if kind == "next-hop":
        program = ShortestPathTableScheme().build(graph).compile_program()
        table = program.next_node.copy()
        table[1, 4] = DROPPED
        masked = program.with_next_node(table)
    else:
        program = CowenLandmarkScheme(seed=0, rewriting=True).build(graph).compile_program()
        succ = program.succ.copy()
        succ[np.flatnonzero(~program.deliver)[0]] = DROPPED
        masked = program.with_transitions(succ=succ)
    with pytest.raises(ValueError, match="masked"):
        execute_program(masked)
    _assert_masked_matches(masked)


@pytest.mark.parametrize("n", [0, 1])
def test_degenerate_sizes_agree(n):
    program = NextHopProgram(next_node=np.zeros((n, n), dtype=np.int16))
    result = _assert_plain_matches(program)
    assert result.steps == 0
    _assert_masked_matches(program)


def test_all_dead_and_single_survivor_masks():
    graph = generators.grid_2d(3, 3)
    next_hop = ShortestPathTableScheme().build(graph).compile_program()
    header_state = CowenLandmarkScheme(seed=1, rewriting=True).build(graph).compile_program()
    n = graph.n
    for program in (next_hop, header_state):
        for alive in (np.zeros(n, dtype=bool), np.eye(1, n, 4, dtype=bool)[0]):
            result = _assert_masked_matches(program, alive)
            assert result.steps == 0  # no alive pair is ever simulated


# ----------------------------------------------------------------------
# corrupt programs raise instead of "delivering"
# ----------------------------------------------------------------------
def _corrupt_programs():
    graph = generators.cycle_graph(6)
    program = ShortestPathTableScheme().build(graph).compile_program()
    for value in (-4, 9):
        table = program.next_node.copy()
        table[1, 3] = value
        yield f"next-hop-{value}", NextHopProgram(next_node=table)
    hs = CowenLandmarkScheme(seed=0, rewriting=True).build(graph).compile_program()
    for value in (-4, hs.num_states):
        succ = hs.succ.copy()
        succ[np.flatnonzero(~hs.deliver)[0]] = value
        yield f"header-state-{value}", HeaderStateProgram(
            succ=succ, deliver=hs.deliver, node_of=hs.node_of, initial=hs.initial
        )


@pytest.mark.parametrize(
    "name,program", list(_corrupt_programs()), ids=lambda v: v if isinstance(v, str) else ""
)
def test_corrupt_program_raises_in_both_executors(name, program):
    with pytest.raises(ProgramVerificationError) as expected:
        verify_structure(program)
    for execute in (execute_program, execute_masked_program):
        with pytest.raises(ProgramVerificationError) as raised:
            execute(program)
        assert str(raised.value) == str(expected.value)


# ----------------------------------------------------------------------
# random programs: sentinels, cycles, masked and unmasked
# ----------------------------------------------------------------------
def _random_next_hop(seed, n, p_sentinel, p_absorbing):
    rng = np.random.default_rng(seed)
    table = rng.integers(0, n, size=(n, n))
    sentinel = rng.random((n, n)) < p_sentinel
    table[sentinel] = rng.choice([MISDELIVER, DROPPED], size=int(sentinel.sum()))
    absorbing = rng.random(n) < p_absorbing
    diag = np.arange(n)
    table[diag[absorbing], diag[absorbing]] = diag[absorbing]
    return NextHopProgram(next_node=table.astype(transition_dtype(n)))


def _random_header_state(seed, n, num_states, p_drop, p_deliver):
    rng = np.random.default_rng(seed)
    idx = np.arange(num_states)
    succ = rng.integers(0, num_states, size=num_states)
    succ[rng.random(num_states) < p_drop] = DROPPED
    deliver = rng.random(num_states) < p_deliver
    succ[deliver] = idx[deliver]  # delivering states self-loop
    initial = rng.integers(0, num_states, size=(n, n))
    np.fill_diagonal(initial, -1)
    sdt = transition_dtype(num_states)
    return HeaderStateProgram(
        succ=succ.astype(sdt),
        deliver=deliver,
        node_of=rng.integers(0, n, size=num_states).astype(transition_dtype(n)),
        initial=initial.astype(sdt),
    )


_probability = st.sampled_from([0.0, 0.1, 0.3, 0.7])


@profile_settings(base_examples=40)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(2, 9),
    p_sentinel=_probability,
    p_absorbing=st.sampled_from([0.5, 0.9, 1.0]),
    p_alive=st.sampled_from([None, 0.5, 0.8]),
)
def test_random_next_hop_programs_match_oracle(seed, n, p_sentinel, p_absorbing, p_alive):
    program = _random_next_hop(seed, n, p_sentinel, p_absorbing)
    alive = None if p_alive is None else np.random.default_rng(seed + 1).random(n) < p_alive
    _assert_matches_oracle(program, alive)
    if alive is None:
        _assert_matches_oracle(_without_drops(program))


@profile_settings(base_examples=40)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(2, 7),
    num_states=st.integers(1, 40),
    p_drop=_probability,
    p_deliver=st.sampled_from([0.1, 0.3, 0.6]),
    p_alive=st.sampled_from([None, 0.5, 0.8]),
)
def test_random_header_state_programs_match_oracle(
    seed, n, num_states, p_drop, p_deliver, p_alive
):
    program = _random_header_state(seed, n, num_states, p_drop, p_deliver)
    stopping = program.deliver | (program.succ == DROPPED)
    # The resolver's stop analysis is the peel's, state for state.
    _, hops = resolve_functional(program.succ, stopping)
    assert np.array_equal(hops, functional_hops(program.succ, stopping))
    alive = None if p_alive is None else np.random.default_rng(seed + 1).random(n) < p_alive
    _assert_matches_oracle(program, alive)
    if alive is None:
        _assert_matches_oracle(_without_drops(program))
