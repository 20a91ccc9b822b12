"""The flow engine: differential, conservation, and integration suites.

Layers of guarantees over :mod:`repro.analysis.flow`:

* **Differential** — the subtree-sum accumulator (``mode == "subtree"``
  for every program), the per-hop frontier walk of ``conftest.walk_loads``
  and a brute-force pure-python per-pair path walk agree **byte for
  byte** (``np.array_equal``, no tolerance) on every compiled registry
  cell: next-hop programs, header-state programs, and fault-masked views
  of both.  The demand generators emit integer-valued float64 counts
  precisely so this equality is exact — see the module docstring of
  ``flow.py``.  Hypothesis extends the equality to random graphs, random
  fault sets and random integer demand matrices, scaled by
  ``REPRO_HYP_PROFILE``.  One :class:`~repro.analysis.flow.FlowPlan`
  routed over several demand matrices equals a fresh ``route_demand`` per
  matrix, byte for byte, from n = 1 up.

* **Conservation** — total arc load equals demand-weighted route length,
  node load equals arc load plus one origination visit per message, and
  the LRSIM-style allocation never undercuts the uniform scaling.

* **Generators** — seeded demand matrices are deterministic, zero-diagonal,
  integer-valued, and hit the requested total.

* **Integration** — ``lengths`` is the verification report's ``hops`` array
  (shared, not copied), a report that ignores ``alive`` is refused, and
  the runner's ``flow_sweep`` / ``resilience_sweep(flow=)`` /
  ``churn_sweep(flow=)`` run end-to-end on the small registry.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.flow import (
    DEMAND_MODELS,
    DemandMatrix,
    FlowPlan,
    demand_matrix,
    demand_models,
    flow_cell,
    format_flow,
    graph_demand,
    gravity_demand,
    route_demand,
    uniform_demand,
    zipf_demand,
)
from repro.analysis.runner import ShardedRunner
from repro.graphs import generators
from repro.graphs.shortest_paths import distance_matrix
from repro.routing.program import (
    GenericProgram,
    HeaderStateProgram,
    NextHopProgram,
)
from repro.routing.verify import VERDICT_DELIVERED, resolve_fates, verify_program
from repro.sim.faults import FaultSet, apply_faults, random_fault_set, simulate_with_faults
from repro.sim.registry import fault_scenarios, graph_families, scheme_registry

from conftest import connected_graphs, profile_settings, walk_loads

SCHEMES = scheme_registry()
FAMILIES = graph_families(size="small", seed=0)


def _compiled_cells():
    """Every registry (scheme, family) cell that compiles to a next-hop or
    header-state program — the conformance corpus of the differential."""
    for family_name, graph in FAMILIES.items():
        for scheme_name, scheme in SCHEMES.items():
            try:
                rf = scheme.build(graph.copy())
            except ValueError:
                continue
            program = rf.compile_program()
            if isinstance(program, GenericProgram):
                continue
            yield scheme_name, family_name, graph, program


CELLS = list(_compiled_cells())
CELL_IDS = [f"{s}-{f}" for s, f, _, _ in CELLS]

#: A small cross-section used where running all ~200 cells would be waste:
#: one next-hop table scheme, the header-state rewriting scheme, and the
#: masked e-cube scheme, over structurally distinct families.
SUBSET = [
    (s, f, g, p)
    for s, f, g, p in CELLS
    if (s, f)
    in {
        ("tables-lowest-port", "hypercube"),
        ("tables-lowest-port", "random-sparse"),
        ("landmark-rewriting", "petersen"),
        ("landmark-rewriting", "random-dense"),
        ("ecube", "hypercube"),
        ("interval", "cycle"),
    }
]
SUBSET_IDS = [f"{s}-{f}" for s, f, _, _ in SUBSET]


# ----------------------------------------------------------------------
# the brute-force oracle
# ----------------------------------------------------------------------
def _pair_route(program, s, d, hops):
    """The arc sequence of one delivered pair, walked one hop at a time."""
    arcs = []
    if isinstance(program, NextHopProgram):
        cur = s
        for _ in range(hops):
            nxt = int(program.next_node[cur, d])
            arcs.append((cur, nxt))
            cur = nxt
    else:
        assert isinstance(program, HeaderStateProgram)
        node_of = program.node_of
        state = int(program.initial[s, d])
        for _ in range(hops):
            nxt = int(program.succ[state])
            arcs.append((int(node_of[state]), int(node_of[nxt])))
            state = nxt
    return arcs


def _brute_force_loads(program, demand, report):
    """Per-pair python walk: the slow, obviously-correct accumulator."""
    n = program.n
    delivered = report.outcome == VERDICT_DELIVERED
    edge = np.zeros((n, n))
    node = np.zeros(n)
    routes = {}
    for s in range(n):
        for d in range(n):
            if not delivered[s, d]:
                continue
            w = float(demand[s, d])
            arcs = _pair_route(program, s, d, int(report.hops[s, d]))
            routes[(s, d)] = arcs
            node[s] += w
            for u, v in arcs:
                edge[u, v] += w
                node[v] += w
    path_max = np.zeros((n, n))
    for (s, d), arcs in routes.items():
        path_max[s, d] = max(edge[u, v] for u, v in arcs)
    return edge, node, path_max


def _assert_flow_equals_oracle(flow, program, dm, report):
    """Subtree sums == per-hop walk == per-pair python walk, byte for byte."""
    assert flow.mode == "subtree"
    for edge, node, path_max in (
        _brute_force_loads(program, dm.demand, report),
        walk_loads(program, dm.demand, report),
    ):
        assert np.array_equal(flow.edge_load, edge)
        assert np.array_equal(flow.node_load, node)
        assert np.array_equal(flow.path_max_load, path_max)
    routed = np.where(report.outcome == VERDICT_DELIVERED, dm.demand, 0.0)
    assert flow.delivered_demand == routed.sum()


# ----------------------------------------------------------------------
# differential: registry corpus vs the oracle
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scheme_name,family,graph,program", CELLS, ids=CELL_IDS)
def test_loads_match_brute_force_across_registry(scheme_name, family, graph, program):
    # Every compiled registry cell, zipf demand: the subtree sums (over the
    # destination in-trees of a next-hop program, over the interned states
    # of a header-state one) must equal both walks byte for byte —
    # integer-valued demand makes float64 accumulation order-independent,
    # so there is no tolerance here.
    report = verify_program(program)
    dm = zipf_demand(graph.n, total=10_000.0, seed=3)
    flow = route_demand(program, dm, report=report)
    _assert_flow_equals_oracle(flow, program, dm, report)


@pytest.mark.parametrize("scheme_name,family,graph,program", SUBSET, ids=SUBSET_IDS)
@pytest.mark.parametrize("model", DEMAND_MODELS)
def test_all_demand_models_match_brute_force(scheme_name, family, graph, program, model):
    report = verify_program(program)
    dist = distance_matrix(graph)
    dm = demand_matrix(model, graph.n, total=50_000.0, seed=7, dist=dist)
    flow = route_demand(program, dm, report=report)
    _assert_flow_equals_oracle(flow, program, dm, report)


@pytest.mark.parametrize("scheme_name,family,graph,program", SUBSET, ids=SUBSET_IDS)
def test_fault_masked_loads_match_brute_force(scheme_name, family, graph, program):
    # Masked views of both kinds go through the same subtree sums and
    # still match both walks, loading only the traffic the masked program
    # provably delivers (DROPPED successors carry zero weight).
    for label, faults in fault_scenarios(graph, seed=5, edge_ks=(1, 2), node_ks=(1,), per_k=1):
        masked = apply_faults(program, graph, faults)
        alive = faults.alive_mask(graph.n)
        report = verify_program(masked, alive=alive)
        dm = zipf_demand(graph.n, total=10_000.0, seed=13)
        flow = route_demand(masked, dm, report=report)
        _assert_flow_equals_oracle(flow, masked, dm, report)


# ----------------------------------------------------------------------
# differential: hypothesis over random graphs and demand matrices
# ----------------------------------------------------------------------
@st.composite
def integer_demands(draw, n):
    """Random integer-valued demand matrices, shrinking toward sparse."""
    flat = draw(
        st.lists(
            st.integers(min_value=0, max_value=1000),
            min_size=n * n,
            max_size=n * n,
        )
    )
    demand = np.array(flat, dtype=np.float64).reshape(n, n)
    np.fill_diagonal(demand, 0.0)
    return demand


def _draw_demand(data, n):
    demand = data.draw(integer_demands(n))
    if demand.sum() == 0.0:
        demand[0, 1] = 1.0
    return DemandMatrix(demand=demand, model="custom", seed=None)


def _draw_faults(data, graph):
    """A seeded random edge or node fault set, possibly empty."""
    kind = data.draw(st.sampled_from(["edge", "node"]))
    limit = graph.num_edges if kind == "edge" else graph.n - 2
    k = data.draw(st.integers(min_value=0, max_value=min(3, limit)))
    seed = data.draw(st.integers(min_value=0, max_value=10**6))
    return random_fault_set(graph, k, kind=kind, seed=seed)


@profile_settings(base_examples=25)
@given(data=st.data())
def test_next_hop_matches_oracle_on_random_graphs(data):
    graph = data.draw(connected_graphs(min_n=4, max_n=14))
    program = SCHEMES["tables-lowest-port"].build(graph.copy()).compile_program()
    assert isinstance(program, NextHopProgram)
    dm = _draw_demand(data, graph.n)
    report = verify_program(program)
    flow = route_demand(program, dm, report=report)
    _assert_flow_equals_oracle(flow, program, dm, report)


@profile_settings(base_examples=15)
@given(data=st.data())
def test_header_state_matches_oracle_on_random_graphs(data):
    graph = data.draw(connected_graphs(min_n=4, max_n=10))
    scheme = SCHEMES["landmark-rewriting"]
    program = scheme.build(graph.copy()).compile_program()
    assert isinstance(program, HeaderStateProgram)
    dm = _draw_demand(data, graph.n)
    report = verify_program(program)
    flow = route_demand(program, dm, report=report)
    _assert_flow_equals_oracle(flow, program, dm, report)


@profile_settings(base_examples=20)
@given(data=st.data())
def test_masked_next_hop_matches_oracle_under_random_faults(data):
    graph = data.draw(connected_graphs(min_n=4, max_n=14))
    program = SCHEMES["tables-lowest-port"].build(graph.copy()).compile_program()
    faults = _draw_faults(data, graph)
    masked = apply_faults(program, graph, faults)
    alive = faults.alive_mask(graph.n)
    dm = _draw_demand(data, graph.n)
    report = verify_program(masked, alive=alive)
    flow = route_demand(masked, dm, report=report)
    _assert_flow_equals_oracle(flow, masked, dm, report)


@profile_settings(base_examples=15)
@given(data=st.data())
def test_masked_header_state_matches_oracle_under_random_faults(data):
    graph = data.draw(connected_graphs(min_n=4, max_n=10))
    program = SCHEMES["landmark-rewriting"].build(graph.copy()).compile_program()
    assert isinstance(program, HeaderStateProgram)
    faults = _draw_faults(data, graph)
    masked = apply_faults(program, graph, faults)
    alive = faults.alive_mask(graph.n)
    dm = _draw_demand(data, graph.n)
    report = verify_program(masked, alive=alive)
    flow = route_demand(masked, dm, report=report)
    _assert_flow_equals_oracle(flow, masked, dm, report)


# ----------------------------------------------------------------------
# conservation + throughput invariants
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scheme_name,family,graph,program", SUBSET, ids=SUBSET_IDS)
def test_conservation_laws(scheme_name, family, graph, program):
    report = verify_program(program)
    dm = zipf_demand(graph.n, total=40_000.0, seed=2)
    flow = route_demand(program, dm, report=report)
    routed = np.where(flow.delivered, dm.demand, 0.0)
    # Every delivered message crosses exactly lengths[s, d] arcs...
    assert flow.edge_load.sum() == (routed * flow.lengths).sum()
    # ...and visits lengths[s, d] + 1 nodes (origin included).
    assert flow.node_load.sum() == (routed * (flow.lengths + 1)).sum()
    assert flow.delivered_demand == routed.sum()
    # The bottleneck of a delivered pair is a real arc load.
    delivered = flow.delivered & (dm.demand > 0)
    if delivered.any():
        assert (flow.path_max_load[delivered] > 0).all()
        assert flow.path_max_load.max() <= flow.max_congestion


@pytest.mark.parametrize("scheme_name,family,graph,program", SUBSET, ids=SUBSET_IDS)
def test_allocated_throughput_dominates_uniform(scheme_name, family, graph, program):
    # A flow's own bottleneck is never more loaded than the global maximum,
    # so the per-interface allocation always grants at least the uniform
    # scaling — the analytic form of the LRSIM comparison.
    report = verify_program(program)
    for model in DEMAND_MODELS:
        dm = demand_matrix(model, graph.n, total=30_000.0, seed=1)
        flow = route_demand(program, dm, report=report)
        for capacity in (0.5, 1.0, 8.0):
            assert (
                flow.allocated_throughput(capacity)
                >= flow.uniform_throughput(capacity) - 1e-9
            )


def test_uniform_scale_caps_every_arc(petersen):
    program = SCHEMES["tables-lowest-port"].build(petersen.copy()).compile_program()
    flow = route_demand(program, uniform_demand(petersen.n, total=10_000.0))
    scale = flow.uniform_scale(capacity=3.0)
    assert np.all(flow.edge_load * scale <= 3.0 + 1e-9)
    assert np.isclose(flow.edge_load.max() * scale, 3.0)


# ----------------------------------------------------------------------
# demand generators
# ----------------------------------------------------------------------
@pytest.mark.parametrize("model", DEMAND_MODELS)
def test_generated_demand_is_integer_zero_diagonal_on_total(model):
    dm = demand_matrix(model, 12, total=5_000.0, seed=4)
    assert dm.demand.shape == (12, 12)
    assert np.array_equal(dm.demand, np.floor(dm.demand))  # integer counts
    assert (dm.demand >= 0).all()
    assert np.all(np.diag(dm.demand) == 0)
    assert dm.total == pytest.approx(5_000.0, rel=0.01)


def test_generators_are_seed_deterministic():
    a = zipf_demand(10, total=1000.0, seed=6)
    b = zipf_demand(10, total=1000.0, seed=6)
    c = zipf_demand(10, total=1000.0, seed=7)
    assert np.array_equal(a.demand, b.demand)
    assert not np.array_equal(a.demand, c.demand)
    g1 = gravity_demand(10, total=1000.0, seed=6)
    g2 = gravity_demand(10, total=1000.0, seed=6)
    assert np.array_equal(g1.demand, g2.demand)


def test_zipf_is_skewed_uniform_is_not():
    uni = uniform_demand(16, total=16_000.0)
    zip_ = zipf_demand(16, total=16_000.0, seed=0)
    assert uni.demand[~np.eye(16, dtype=bool)].std() == 0.0
    assert zip_.demand.max() > uni.demand.max() * 4


def test_gravity_distance_deterrence(grid_4x4):
    dist = distance_matrix(grid_4x4)
    near = gravity_demand(16, total=10_000.0, seed=0, dist=dist)
    far = gravity_demand(16, total=10_000.0, seed=0)
    # With deterrence, demand-weighted distance drops.
    off = ~np.eye(16, dtype=bool)
    mean_near = (near.demand * dist)[off].sum() / near.demand[off].sum()
    mean_far = (far.demand * dist)[off].sum() / far.demand[off].sum()
    assert mean_near < mean_far


def test_demand_models_covers_registry():
    registry = demand_models(8, total=1000.0, seed=0)
    assert set(registry) == set(DEMAND_MODELS)


def test_demand_matrix_rejects_bad_specs():
    with pytest.raises(ValueError, match="unknown demand model"):
        demand_matrix("poisson", 8)
    with pytest.raises(ValueError, match="n="):
        demand_matrix(uniform_demand(8), 9)
    with pytest.raises(ValueError, match="square"):
        demand_matrix(np.ones((3, 4)), 3)
    with pytest.raises(ValueError, match="sum to zero"):
        demand_matrix(np.zeros((4, 4)), 4)
    with pytest.raises(ValueError, match="n >= 2"):
        uniform_demand(1)


def test_tiny_totals_degrade_to_one_message_per_pair():
    dm = uniform_demand(40, total=1.0)
    off = ~np.eye(40, dtype=bool)
    assert np.all(dm.demand[off] == 1.0)


# ----------------------------------------------------------------------
# the per-graph demand memo
# ----------------------------------------------------------------------
@pytest.mark.parametrize("model", DEMAND_MODELS)
@pytest.mark.parametrize("total", [1_000_000.0, 5_000.0, 1.0])
def test_graph_demand_is_byte_equal_to_demand_matrix(model, total):
    graph = generators.torus_2d(5, 6)
    want = demand_matrix(model, graph.n, total=total, seed=3, dist=distance_matrix(graph))
    for _ in range(2):  # the miss, then a hit
        got = graph_demand(graph, model, total=total, seed=3)
        assert got.demand.dtype == np.float64 and got.demand.tobytes() == want.demand.tobytes()
        assert (got.model, got.seed) == (want.model, want.seed)
    counts, _ = graph.derived.demands[(model, total, 3)]
    assert counts.dtype == np.min_scalar_type(int(want.demand.max()))
    assert counts.dtype.kind == "u"


@pytest.mark.parametrize("total", [1_000_000.0, 1e30])  # 1e30: counts past uint64 stay float64
def test_graph_demand_readers_get_fresh_matrices(grid_4x4, total):
    first = graph_demand(grid_4x4, "zipf", total=total, seed=2)
    expected = first.demand.copy()
    first.demand[:] = 7.0
    again = graph_demand(grid_4x4, "zipf", total=total, seed=2)
    assert again.demand is not first.demand
    assert np.array_equal(again.demand, expected)
    copy_read = graph_demand(grid_4x4.copy(), "zipf", total=total, seed=2)
    assert copy_read.demand.tobytes() == expected.tobytes()


def test_graph_demand_keys_on_model_total_and_seed(grid_4x4):
    graph_demand(grid_4x4, "zipf", seed=2)
    graph_demand(grid_4x4, "zipf", seed=3)
    graph_demand(grid_4x4, "zipf", total=10.0, seed=2)
    graph_demand(grid_4x4, "uniform")
    assert set(grid_4x4.derived.demands) == {
        ("zipf", 1_000_000.0, 2), ("zipf", 1_000_000.0, 3), ("zipf", 10.0, 2),
        ("uniform", 1_000_000.0, 0),
    }


def test_a_mutated_copy_gets_its_own_gravity_matrix():
    graph = generators.cycle_graph(12)
    before = graph_demand(graph, "gravity", seed=1)
    chorded = graph.copy()
    chorded.add_edge(0, 6)  # gravity reads the distances, which the chord moves
    after = graph_demand(chorded, "gravity", seed=1)
    want = demand_matrix("gravity", 12, seed=1, dist=distance_matrix(chorded))
    assert after.demand.tobytes() == want.demand.tobytes()
    assert not np.array_equal(after.demand, before.demand)
    assert graph_demand(graph, "gravity", seed=1).demand.tobytes() == before.demand.tobytes()


def test_matrices_pass_through_unmemoised(grid_4x4):
    dm = zipf_demand(grid_4x4.n, seed=5)
    assert graph_demand(grid_4x4, dm) is dm
    raw = graph_demand(grid_4x4, np.ones((16, 16)))
    assert raw.model == "custom"
    with pytest.raises(ValueError, match="unknown demand model"):
        graph_demand(grid_4x4, "poisson")
    assert grid_4x4.derived.demands == {}


def test_sweeps_generate_each_matrix_once_per_graph(monkeypatch):
    import repro.analysis.flow as flow_module

    calls = []
    real = flow_module.demand_matrix

    def counting(model, *args, **kwargs):
        calls.append(model)
        return real(model, *args, **kwargs)

    monkeypatch.setattr(flow_module, "demand_matrix", counting)
    schemes = {k: SCHEMES[k] for k in ("tables-lowest-port", "tables-highest-port", "landmark-rewriting")}
    # Fresh graphs: a registry instance may carry other tests' memos.
    families = {"hypercube": generators.hypercube(4), "grid": generators.grid_2d(3, 4)}
    runner = ShardedRunner(processes=1)
    runner.flow_sweep(schemes=schemes, families=families, models=DEMAND_MODELS)
    assert sorted(calls) == sorted(DEMAND_MODELS * len(families))
    runner.resilience_sweep(schemes=schemes, families=families, flow="uniform", per_k=1)
    assert len(calls) == len(DEMAND_MODELS) * len(families)  # flow's uniform matrix, reused


# ----------------------------------------------------------------------
# node loads and bottlenecks on first read
# ----------------------------------------------------------------------
def _eager_node_and_bottleneck(plan, flow):
    """Node loads and per-path bottlenecks as an eager route computed them:
    row sums plus delivered arrivals, and one ascending max pass with a
    fresh gather per layer."""
    bounds, local, arc, start = plan._layout
    routed = np.where(flow.delivered, flow.demand, 0.0)
    node_load = flow.edge_load.sum(axis=1) + routed.sum(axis=0)
    bottleneck = np.zeros(local.size, dtype=np.float64)
    for layer in range(2, len(bounds) - 1):
        prev, lo, hi = bounds[layer - 1], bounds[layer], bounds[layer + 1]
        bottleneck[lo:hi] = np.maximum(
            flow.edge_load.ravel()[arc[lo:hi]], bottleneck[prev:lo][local[lo:hi]]
        )
    return node_load, np.where(flow.delivered, bottleneck[start], 0.0)


@pytest.mark.parametrize("scheme_name,family,graph,program", SUBSET, ids=SUBSET_IDS)
@pytest.mark.parametrize("masked", [False, True], ids=["intact", "masked"])
def test_lazy_loads_equal_the_eager_pass(scheme_name, family, graph, program, masked):
    alive = None
    if masked:
        faults = fault_scenarios(graph, seed=4, edge_ks=(), node_ks=(1,), per_k=1)[0][1]
        program, alive = apply_faults(program, graph, faults), faults.alive_mask(graph.n)
    plan = FlowPlan(program, resolve_fates(program, alive))
    for model in DEMAND_MODELS:
        flow = route_demand(plan, graph_demand(graph, model, total=50_000.0, seed=1))
        assert "node_load" not in vars(flow) and "path_max_load" not in vars(flow)
        node_load, path_max = _eager_node_and_bottleneck(plan, flow)
        if model == "zipf":  # either read order
            assert flow.path_max_load.tobytes() == path_max.tobytes()
        assert flow.node_load.tobytes() == node_load.tobytes()
        assert flow.path_max_load.tobytes() == path_max.tobytes()
        assert flow.path_max_load is flow.path_max_load  # computed once
        _, walk_node, walk_path_max = walk_loads(program, flow.demand, plan.report)
        assert np.array_equal(flow.node_load, walk_node)
        assert np.array_equal(flow.path_max_load, walk_path_max)


# ----------------------------------------------------------------------
# route_demand edge cases
# ----------------------------------------------------------------------
def test_generic_program_raises(petersen):
    program = GenericProgram(num_vertices=petersen.n)
    with pytest.raises(ValueError, match="generic program"):
        route_demand(program, uniform_demand(petersen.n))


def test_the_alive_report_keeps_dead_endpoint_demand_off_the_books(petersen):
    # Dead-endpoint demand is excluded by the report's infeasible pairs:
    # resolved with the scenario's alive mask, 7200 of the 9000 offered
    # units remain; resolved without it, all 9000 count.
    program = SCHEMES["tables-lowest-port"].build(petersen.copy()).compile_program()
    faults = FaultSet.from_nodes([3])
    masked = apply_faults(program, petersen, faults)
    alive = faults.alive_mask(petersen.n)
    dm = uniform_demand(petersen.n, total=9_000.0)
    expected = route_demand(masked, dm, report=resolve_fates(masked, alive))
    assert expected.offered_demand == 7_200.0
    assert route_demand(masked, dm).offered_demand == 9_000.0
    flow = route_demand(masked, dm, report=verify_program(masked, alive=alive))
    assert flow.offered_demand == expected.offered_demand
    assert flow.delivered_fraction == expected.delivered_fraction
    assert np.array_equal(flow.edge_load, expected.edge_load)


@pytest.mark.parametrize("scheme_name", ["tables-lowest-port", "landmark-rewriting"])
def test_single_vertex_program_routes_nothing(scheme_name):
    # n = 1 has no pairs; its header-state program has no states at all.
    from repro.graphs.digraph import PortLabeledGraph

    program = SCHEMES[scheme_name].build(PortLabeledGraph(1)).compile_program()
    flow = route_demand(program, np.zeros((1, 1)))
    for array in (flow.edge_load, flow.node_load, flow.path_max_load):
        assert array.dtype == np.float64 and not array.any()
    assert flow.delivered_fraction == 1.0


def _assert_results_byte_equal(got, want):
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape, field.name
            assert a.tobytes() == b.tobytes(), field.name
        else:
            assert a == b, field.name


def _plan_reuse_cases():
    """(label, program, alive, demands): every shape a plan must serve."""
    from repro.graphs.digraph import PortLabeledGraph
    from repro.graphs.generators import path_graph

    cases = []
    for scheme_name, family in (
        ("tables-lowest-port", "random-sparse"),
        ("landmark-rewriting", "random-dense"),  # pairs share start states
    ):
        graph = FAMILIES[family]
        program = SCHEMES[scheme_name].build(graph.copy()).compile_program()
        demands = list(demand_models(graph.n, total=50_000.0, seed=3,
                                     dist=distance_matrix(graph)).values())
        cases.append((f"{scheme_name}-{family}", program, None, demands))
        for label, faults in fault_scenarios(graph, seed=4, edge_ks=(2,), node_ks=(1,), per_k=1):
            masked = apply_faults(program, graph, faults)
            cases.append((f"{scheme_name}-{family}-{label}", masked, faults.alive_mask(graph.n), demands))
    for scheme_name in ("tables-lowest-port", "landmark-rewriting"):
        pair = SCHEMES[scheme_name].build(path_graph(2)).compile_program()
        cases.append((f"{scheme_name}-n2", pair, None, list(demand_models(2, total=10.0).values())))
        single = SCHEMES[scheme_name].build(PortLabeledGraph(1)).compile_program()
        cases.append((f"{scheme_name}-n1", single, None, [np.zeros((1, 1))] * 3))
    return cases


PLAN_CASES = _plan_reuse_cases()


@pytest.mark.parametrize(
    "label,program,alive,demands", PLAN_CASES, ids=[c[0] for c in PLAN_CASES]
)
def test_plan_reuse_is_byte_equal_to_fresh_routes(label, program, alive, demands):
    # One plan routed over every demand matrix == one fresh route_demand
    # per matrix, array for array and byte for byte.
    report = resolve_fates(program, alive)
    plan = FlowPlan(program, report)
    for demand in demands:
        reused = plan.route(demand)
        fresh = route_demand(program, demand, report=resolve_fates(program, alive))
        _assert_results_byte_equal(reused, fresh)
        _assert_results_byte_equal(route_demand(plan, demand), reused)
    if program.n == 1:
        for array in (reused.edge_load, reused.node_load, reused.path_max_load):
            assert array.dtype == np.float64 and not array.any()


def test_plan_refuses_a_second_report(petersen):
    program = SCHEMES["tables-lowest-port"].build(petersen.copy()).compile_program()
    plan = FlowPlan(program, resolve_fates(program))
    with pytest.raises(ValueError, match="carries its own report"):
        route_demand(plan, uniform_demand(petersen.n), report=plan.report)


def test_shape_mismatch_raises(petersen):
    program = SCHEMES["tables-lowest-port"].build(petersen.copy()).compile_program()
    with pytest.raises(ValueError, match="does not match"):
        route_demand(program, uniform_demand(petersen.n + 1))


# ----------------------------------------------------------------------
# integration: lengths sharing and the sweeps
# ----------------------------------------------------------------------
def test_lengths_is_the_reports_hops_array(petersen):
    program = SCHEMES["tables-lowest-port"].build(petersen.copy()).compile_program()
    report = verify_program(program)
    flow = route_demand(program, uniform_demand(petersen.n), report=report)
    assert flow.lengths is report.hops  # shared, never copied


def test_flow_sweep_smoke():
    schemes = {k: SCHEMES[k] for k in ("tables-lowest-port", "landmark-rewriting")}
    families = {k: FAMILIES[k] for k in ("cycle", "petersen")}
    cells, skipped, stats = ShardedRunner(processes=1).flow_sweep(
        schemes=schemes, families=families, models=("uniform", "zipf")
    )
    assert len(cells) == 8  # 2 schemes x 2 families x 2 models
    assert {c.demand_model for c in cells} == {"uniform", "zipf"}
    table = format_flow(cells)
    assert "maxload" in table and "thru(a)" in table


def test_resilience_sweep_flow_hook():
    from repro.analysis.resilience import format_resilience, survival_curves

    schemes = {"tables-lowest-port": SCHEMES["tables-lowest-port"]}
    families = {"petersen": FAMILIES["petersen"]}
    runner = ShardedRunner(processes=1)
    cells, skipped, stats = runner.resilience_sweep(
        schemes=schemes,
        families=families,
        edge_ks=(1, 2),
        node_ks=(1,),
        per_k=1,
        flow="zipf",
    )
    curves = survival_curves(cells)
    assert all(c.delivered_traffic is not None for c in cells)
    assert all(0.0 <= c.delivered_traffic <= 1.0 + 1e-9 for c in cells)
    assert all(c.peak_load is not None and c.peak_load >= 0.0 for c in cells)
    assert all(curve.traffic for curve in curves)
    assert "traffic" in format_resilience(curves)
    # Without the hook the fields stay None and the column disappears.
    cells2, _, _ = runner.resilience_sweep(
        schemes=schemes, families=families, edge_ks=(1,), node_ks=(), per_k=1
    )
    assert all(c.delivered_traffic is None for c in cells2)
    assert "traffic" not in format_resilience(survival_curves(cells2))


@pytest.mark.parametrize("scheme_name", ["tables-lowest-port", "landmark-rewriting"])
def test_resilience_flow_reuses_the_scenarios_masked_view(scheme_name):
    # The compiled fault path hands its masked view and fate report to the
    # flow metrics; they must equal an independent mask + alive-aware
    # resolution of the same scenario, field for field.
    from repro.analysis.resilience import resilience_cell
    from repro.analysis.runner import ExperimentCache
    from repro.graphs.shortest_paths import UNREACHABLE

    graph = FAMILIES["petersen"]
    scheme = SCHEMES[scheme_name]
    program = scheme.build(graph.copy()).compile_program()
    scenarios = fault_scenarios(graph, seed=2, edge_ks=(1, 2), node_ks=(1, 2), per_k=1)
    rows = resilience_cell(
        scheme, graph, "petersen", scheme_name, scenarios, ExperimentCache(None), flow="zipf"
    )
    dm = demand_matrix("zipf", graph.n, seed=0, dist=distance_matrix(graph))
    assert len(rows) == len(scenarios)
    for row, (_, faults) in zip(rows, scenarios):
        result = simulate_with_faults(None, faults, program=program, graph=graph)
        alive = faults.alive_mask(graph.n)
        masked = apply_faults(program, graph, faults)
        assert result.program.to_bytes() == masked.to_bytes()
        assert np.array_equal(result.report.outcome, resolve_fates(masked, alive).outcome)
        flow = route_demand(masked, dm, report=resolve_fates(masked, alive))
        routable = (result.dist != UNREACHABLE) & ~np.eye(graph.n, dtype=bool)
        routable_demand = float(dm.demand[routable].sum())
        assert row.delivered_traffic == flow.delivered_demand / routable_demand
        assert row.peak_load == flow.max_congestion


def test_churn_sweep_flow_hook():
    from repro.analysis.churn import churn_summary, format_churn

    schemes = {"tables-lowest-port": SCHEMES["tables-lowest-port"]}
    families = {"cycle": FAMILIES["cycle"]}
    cells, skipped, stats = ShardedRunner(processes=1).churn_sweep(
        schemes=schemes, families=families, steps=2, flow="zipf"
    )
    summaries = churn_summary(cells)
    measured = [c for c in cells if c.load_delta_fraction is not None]
    assert measured, "flow metrics missing from every churn step"
    assert all(c.max_congestion >= 0.0 for c in measured)
    assert all(c.load_delta_fraction >= 0.0 for c in measured)
    assert all(s.mean_load_delta is not None for s in summaries)
    assert "moved" in format_churn(summaries)


def test_flow_cell_declines_generic_schemes(petersen):
    from repro.analysis.runner import ExperimentCache
    from repro.routing.model import SchemeInapplicableError

    class OpaqueScheme:
        name = "opaque"

        def config_fingerprint(self):
            return "opaque"

        def build(self, graph):
            class RF:
                def compile_program(self):
                    return GenericProgram(num_vertices=graph.n)

            return RF()

    with pytest.raises(SchemeInapplicableError):
        flow_cell(
            OpaqueScheme(), petersen, "petersen", "opaque", ("uniform",), ExperimentCache(None)
        )


def test_flow_cell_raises_on_a_structurally_corrupt_program(petersen):
    from repro.analysis.runner import ExperimentCache
    from repro.routing.verify import ProgramVerificationError

    program = SCHEMES["landmark-rewriting"].build(petersen.copy()).compile_program()
    succ = np.array(program.succ, copy=True)
    succ[0] = program.num_states + 3
    corrupt = HeaderStateProgram(
        succ=succ, deliver=program.deliver, node_of=program.node_of, initial=program.initial
    )

    class CorruptScheme:
        name = "corrupt"

        def config_fingerprint(self):
            return "corrupt"

        def build(self, graph):
            class RF:
                def compile_program(self):
                    return corrupt

            return RF()

    with pytest.raises(ProgramVerificationError, match="succ contains"):
        flow_cell(
            CorruptScheme(), petersen, "petersen", "corrupt", ("uniform",), ExperimentCache(None)
        )
