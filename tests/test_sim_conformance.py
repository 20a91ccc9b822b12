"""Differential conformance suite for the batched routing simulator.

Three layers of guarantees:

* **Differential** — for every scheme in :func:`repro.sim.registry.scheme_registry`
  and every generator family in :func:`repro.sim.registry.graph_families`
  (seeded, small sizes), the batched simulator produces exactly the per-pair
  lengths of the oracle router (``route`` in ``tests/oracles.py``),
  delivers all pairs, and measures stretch >= 1 with equality on the
  shortest-path table schemes.  Property-based: random graphs cross-check
  compiled == generic == per-pair, and a header-rewriting scheme exercises
  the generic fallback against the per-pair oracle.  A test forces an
  execution path by passing its program: ``lower_next_hop(rf)``,
  ``lower_header_state(rf)`` or ``GenericProgram(num_vertices=n)``.

* **Failure modes** — livelocks are detected (exactly, within ``n`` steps on
  the compiled path), misdelivery is recorded per pair, invalid ports raise
  the oracle's error.

* **Conformance** — :meth:`repro.analysis.runner.ShardedRunner.conformance_suite`
  passes for every applicable scheme x family cell of the registries: all
  pairs delivered, stretch within guarantees, memory under the universal
  Table 1 ceiling (the issue's acceptance criterion).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import build_next_hop_matrix, profile_settings
from oracles import RoutingLoopError, all_pairs_routing_lengths, route, stretch_factor
from repro.analysis.runner import ShardedRunner
from repro.graphs import generators
from repro.graphs.shortest_paths import distance_matrix
from repro.routing.model import DELIVER, DestinationBasedRoutingFunction, RoutingFunction
from repro.routing.program import GenericProgram, lower_header_state, lower_next_hop
from repro.routing.tables import ShortestPathTableScheme
from repro.routing.verify import resolve_fates
from repro.sim import (
    HeaderStateExplosionError,
    simulate_all_pairs,
    simulated_stretch_factor,
)
from repro.sim.registry import connected_instance, graph_families, scheme_registry

# Example counts come from the shared REPRO_HYP_PROFILE knob (conftest):
# 40 per property in PR CI, scaled up for the nightly deep profile.
_SETTINGS = profile_settings(40)

SCHEMES = scheme_registry(seed=7)
FAMILIES = graph_families("small", seed=7)


def _build(scheme_name, family_name):
    """Build the scheme on a copy of the family instance, or skip if partial."""
    graph = FAMILIES[family_name].copy()
    try:
        return SCHEMES[scheme_name].build(graph)
    except ValueError:
        pytest.skip(f"{scheme_name} does not apply to {family_name}")


class _TTLRewritingFunction(RoutingFunction):
    """Shortest-path routing with a rewritten (dest, hop count) header.

    The hop counter makes the header genuinely mutable, forcing the
    simulator onto the generic fallback; routing behaviour matches the
    shortest-path tables so lengths are exactly graph distances.
    """

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


class _BounceFunction(DestinationBasedRoutingFunction):
    """Livelock: bounce between vertices 0 and 1 forever."""

    def port_to(self, node, dest):
        return self._graph.port(node, 1 if node == 0 else 0)


class _EagerDeliverFunction(DestinationBasedRoutingFunction):
    """Misdelivery: claim delivery at the source for every destination."""

    def port(self, node, header):
        return DELIVER

    def port_to(self, node, dest):  # pragma: no cover - unreachable
        return 1


# ----------------------------------------------------------------------
# differential: simulator == per-pair oracle for every scheme x family
# ----------------------------------------------------------------------
@pytest.mark.parametrize("family_name", sorted(FAMILIES))
@pytest.mark.parametrize("scheme_name", sorted(SCHEMES))
def test_simulator_matches_legacy_per_pair(scheme_name, family_name):
    rf = _build(scheme_name, family_name)
    result = simulate_all_pairs(rf)
    assert result.all_delivered, result.undelivered_pairs()
    legacy = all_pairs_routing_lengths(rf)
    assert np.array_equal(result.lengths, legacy)

    dist = distance_matrix(rf.graph)
    stretch = result.max_stretch(dist=dist)
    assert stretch >= 1
    assert stretch == stretch_factor(rf, dist=dist)
    guarantee = getattr(SCHEMES[scheme_name], "stretch_guarantee", None)
    if guarantee == 1.0:
        assert stretch == Fraction(1)
        assert np.array_equal(result.lengths, dist)


#: Registry schemes that genuinely rewrite headers (the header-compiled
#: path's production workload); everything else is header-constant.
REWRITING_SCHEMES = ("ecube-mask", "landmark-rewriting", "spanner3-rewriting")


@pytest.mark.parametrize("scheme_name", sorted(SCHEMES))
def test_every_scheme_uses_a_compiled_path_on_some_family(scheme_name):
    # The capability protocol must route every registry scheme onto a
    # compiled path wherever it applies: header-constant schemes onto the
    # next-hop matrix, header-rewriting schemes (which all declare
    # can_vectorize) onto the header-state engine.  Nothing in the registry
    # may silently fall back to the generic interpreter.
    for family_name in sorted(FAMILIES):
        graph = FAMILIES[family_name].copy()
        try:
            rf = SCHEMES[scheme_name].build(graph)
        except ValueError:
            continue
        if scheme_name in REWRITING_SCHEMES:
            assert rf.program_kind() == "header-state"
            assert simulate_all_pairs(rf).mode == "header-compiled"
        else:
            assert rf.program_kind() == "next-hop"
            assert simulate_all_pairs(rf).mode == "compiled"
        return
    pytest.fail(f"{scheme_name} applied to no family at all")


@_SETTINGS
@given(
    n=st.integers(min_value=3, max_value=26),
    extra=st.floats(min_value=0.0, max_value=0.4),
    seed=st.integers(min_value=0, max_value=10**6),
    tie_break=st.sampled_from(["lowest_neighbor", "lowest_port", "highest_port"]),
)
def test_compiled_generic_and_legacy_agree_on_random_graphs(n, extra, seed, tie_break):
    graph = generators.random_connected_graph(n, extra_edge_prob=extra, seed=seed)
    rf = ShortestPathTableScheme(tie_break=tie_break).build(graph)
    compiled = simulate_all_pairs(rf, program=lower_next_hop(rf))
    generic = simulate_all_pairs(rf, program=GenericProgram(num_vertices=n))
    assert np.array_equal(compiled.lengths, generic.lengths)
    assert compiled.all_delivered and generic.all_delivered
    assert np.array_equal(compiled.lengths, all_pairs_routing_lengths(rf))
    assert np.array_equal(compiled.lengths, distance_matrix(graph))


@_SETTINGS
@given(
    n=st.integers(min_value=3, max_value=20),
    extra=st.floats(min_value=0.0, max_value=0.4),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_generic_fallback_matches_legacy_for_header_rewriting(n, extra, seed):
    graph = generators.random_connected_graph(n, extra_edge_prob=extra, seed=seed)
    rf = _TTLRewritingFunction(graph)
    assert rf.program_kind() == "generic"
    result = simulate_all_pairs(rf)
    assert result.mode == "generic"
    assert np.array_equal(result.lengths, all_pairs_routing_lengths(rf))
    # Spot-check header traces against the per-pair oracle.
    rng = np.random.default_rng(seed)
    for _ in range(3):
        x, y = (int(v) for v in rng.choice(n, size=2, replace=False))
        legacy = route(rf, x, y)
        assert legacy.delivered
        assert legacy.length == result.lengths[x, y]
        assert legacy.headers[-1] == (y, legacy.length)


# ----------------------------------------------------------------------
# header-compiled path: rewriting schemes across the graph corpus
# ----------------------------------------------------------------------
@pytest.mark.parametrize("family_name", sorted(FAMILIES))
@pytest.mark.parametrize("scheme_name", ["ecube-mask", "landmark-rewriting", "spanner3-rewriting"])
def test_header_compiled_matches_generic_and_legacy_per_family(scheme_name, family_name):
    rf = _build(scheme_name, family_name)
    compiled = simulate_all_pairs(rf, program=lower_header_state(rf))
    generic = simulate_all_pairs(rf, program=GenericProgram(num_vertices=rf.graph.n))
    assert compiled.mode == "header-compiled" and generic.mode == "generic"
    assert np.array_equal(compiled.lengths, generic.lengths)
    assert np.array_equal(compiled.delivered, generic.delivered)
    assert np.array_equal(compiled.misdelivered, generic.misdelivered)
    assert compiled.all_delivered
    assert np.array_equal(compiled.lengths, all_pairs_routing_lengths(rf))


@pytest.mark.parametrize(
    "rewriting_name, constant_name",
    [
        ("ecube-mask", "ecube"),
        ("landmark-rewriting", "landmark-sqrt"),
        ("spanner3-rewriting", "spanner3-landmark"),
    ],
)
@pytest.mark.parametrize("family_name", ["hypercube", "grid", "random-sparse"])
def test_rewriting_formulations_route_exactly_like_their_constant_siblings(
    rewriting_name, constant_name, family_name
):
    # Each header-rewriting registry scheme is a reformulation of a
    # header-constant one: same per-hop decisions, different H.  Their
    # all-pairs length matrices must be bit-for-bit identical.
    rewriting = _build(rewriting_name, family_name)
    constant = _build(constant_name, family_name)
    assert np.array_equal(
        simulate_all_pairs(rewriting).lengths, simulate_all_pairs(constant).lengths
    )


def test_header_program_states_are_shared_across_sources():
    # The win of the header-state engine: messages from different sources
    # to one destination share their tail states, so the program is far
    # smaller than the sum of route lengths the generic interpreter pays.
    graph = FAMILIES["random-sparse"].copy()
    rf = SCHEMES["landmark-rewriting"].build(graph)
    program = lower_header_state(rf)
    n = graph.n
    # Phase-1 states are (node, address(dest)) pairs, phase-2 states
    # (node, dest) pairs: at most 2 n^2 in total, and every initial state
    # is accounted for.
    assert program.num_states <= 2 * n * n
    assert (program.initial[~np.eye(n, dtype=bool)] >= 0).all()
    assert (np.diag(program.initial) == -1).all()
    # All-delivered scheme: every reachable state has a finite hop count.
    assert (resolve_fates(program).state_hops >= 0).all()


@_SETTINGS
@given(
    n=st.integers(min_value=4, max_value=24),
    extra=st.floats(min_value=0.0, max_value=0.4),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_rewriting_landmark_header_compiled_generic_legacy_agree(n, extra, seed):
    graph = generators.random_connected_graph(n, extra_edge_prob=extra, seed=seed)
    from repro.routing.landmark import CowenLandmarkScheme

    rf = CowenLandmarkScheme(seed=seed, rewriting=True).build(graph)
    assert rf.program_kind() == "header-state"
    compiled = simulate_all_pairs(rf, program=lower_header_state(rf))
    generic = simulate_all_pairs(rf, program=GenericProgram(num_vertices=n))
    assert np.array_equal(compiled.lengths, generic.lengths)
    assert compiled.all_delivered and generic.all_delivered
    assert np.array_equal(compiled.lengths, all_pairs_routing_lengths(rf))
    # The rewriting formulation is route-identical to the constant one.
    constant = CowenLandmarkScheme(seed=seed).build(graph)
    assert np.array_equal(compiled.lengths, simulate_all_pairs(constant).lengths)


@_SETTINGS
@given(dim=st.integers(min_value=1, max_value=5))
def test_mask_ecube_header_compiled_equals_legacy_on_hypercubes(dim):
    from repro.routing.ecube import MaskECubeRoutingScheme

    graph = generators.hypercube(dim)
    rf = MaskECubeRoutingScheme().build(graph)
    compiled = simulate_all_pairs(rf, program=lower_header_state(rf))
    assert compiled.all_delivered
    dist = distance_matrix(graph)
    assert np.array_equal(compiled.lengths, dist)  # dimension-order = shortest paths
    assert np.array_equal(compiled.lengths, all_pairs_routing_lengths(rf))


# ----------------------------------------------------------------------
# failure modes
# ----------------------------------------------------------------------
def test_livelock_detected_within_n_steps():
    graph = generators.complete_graph(5)
    result = simulate_all_pairs(_BounceFunction(graph))
    assert not result.all_delivered
    assert result.steps <= graph.n
    assert (result.lengths[~result.delivered] == -1).all()
    with pytest.raises(ValueError):
        result.report.require_all_delivered()
    with pytest.raises(ValueError):
        simulate_all_pairs(_BounceFunction(graph)).report.require_all_delivered()


def test_livelock_matches_legacy_loop_error():
    graph = generators.complete_graph(4)
    rf = _BounceFunction(graph)
    result = simulate_all_pairs(rf)
    for x, y in result.undelivered_pairs():
        with pytest.raises(RoutingLoopError):
            route(rf, x, y)


def test_misdelivery_recorded_per_pair():
    graph = generators.path_graph(4)
    result = simulate_all_pairs(_EagerDeliverFunction(graph))
    assert not result.all_delivered
    assert len(result.undelivered_pairs()) == 4 * 3
    # Misdelivery is recorded distinctly from livelock.
    assert len(result.misdelivered_pairs()) == 4 * 3
    assert result.livelocked_pairs() == []


#: Execution mode -> the program that forces it for a routing function.
FORCED_PROGRAMS = {
    "compiled": lower_next_hop,
    "header-compiled": lower_header_state,
    "generic": lambda rf: GenericProgram(num_vertices=rf.graph.n),
}


def _forced(rf, mode):
    """Simulate ``rf`` through the execution path named ``mode``."""
    return simulate_all_pairs(rf, program=FORCED_PROGRAMS[mode](rf))


@pytest.mark.parametrize("method", sorted(FORCED_PROGRAMS))
def test_misdelivery_parity_across_all_simulation_paths(method):
    # The satellite guarantee: a DELIVER at the wrong node is recorded in
    # SimulationResult.misdelivered identically on every path —
    # indistinguishable -1 sentinels are no longer the only signal.
    graph = generators.path_graph(5)
    reference = _forced(_EagerDeliverFunction(graph), "generic")
    result = _forced(_EagerDeliverFunction(graph), method)
    assert result.mode == method
    assert np.array_equal(result.misdelivered, reference.misdelivered)
    assert np.array_equal(result.delivered, reference.delivered)
    assert result.misdelivered.any()
    assert not (result.misdelivered & result.delivered).any()


@pytest.mark.parametrize("method", sorted(FORCED_PROGRAMS))
def test_livelock_parity_across_all_simulation_paths(method):
    graph = generators.complete_graph(5)
    reference = _forced(_BounceFunction(graph), "generic")
    result = _forced(_BounceFunction(graph), method)
    assert np.array_equal(result.delivered, reference.delivered)
    assert np.array_equal(result.misdelivered, reference.misdelivered)
    assert result.livelocked_pairs() == reference.livelocked_pairs()
    assert not result.misdelivered.any()
    assert (result.lengths[~result.delivered] == -1).all()


def test_livelock_detected_exactly_on_header_compiled_path():
    graph = generators.complete_graph(5)
    result = _forced(_BounceFunction(graph), "header-compiled")
    assert result.mode == "header-compiled"
    assert not result.all_delivered
    # The exact functional-graph budget: no 4n interpretation slack.
    assert result.steps <= graph.n
    assert set(result.livelocked_pairs()) == set(result.undelivered_pairs())


def test_max_stretch_raises_clear_error_on_undelivered_pairs():
    # Satellite regression: max_stretch must never fold the -1 sentinels of
    # lost pairs into a ratio; the error must say what was lost and how.
    graph = generators.complete_graph(4)
    livelocked = simulate_all_pairs(_BounceFunction(graph))
    with pytest.raises(ValueError, match="max_stretch is undefined.*livelocked"):
        livelocked.max_stretch(graph=graph)

    misdelivered = simulate_all_pairs(_EagerDeliverFunction(generators.path_graph(4)))
    with pytest.raises(ValueError, match="misdelivered"):
        misdelivered.max_stretch(graph=generators.path_graph(4))

    # require_all_delivered distinguishes the two loss modes too.
    with pytest.raises(ValueError, match="livelocked"):
        livelocked.report.require_all_delivered()


def test_invalid_port_raises_like_legacy():
    class _BadPort(DestinationBasedRoutingFunction):
        def port_to(self, node, dest):
            return 9

    graph = generators.path_graph(3)
    with pytest.raises(ValueError, match="invalid port"):
        simulate_all_pairs(_BadPort(graph))


def test_forward_past_destination_detected_on_compiled_path():
    # A subclass overriding port() to forward *past* its own destination
    # must livelock under the simulator exactly as under the legacy
    # interpreter — delivery is the scheme's decision, never assumed.
    class _NeverDeliver(DestinationBasedRoutingFunction):
        def port(self, node, header):
            return self._graph.port(node, (node + 1) % self._graph.n)

        def port_to(self, node, dest):  # pragma: no cover - port() overridden
            return 1

    graph = generators.cycle_graph(5)
    rf = _NeverDeliver(graph)
    result = simulate_all_pairs(rf)
    assert result.mode == "compiled"
    assert not result.delivered[~np.eye(5, dtype=bool)].any()
    with pytest.raises(RoutingLoopError):
        route(rf, 0, 2)


class _SourceTagged(DestinationBasedRoutingFunction):
    """Source-dependent headers: next-hop compilation would fabricate a source."""

    def initial_header(self, source, dest):
        return (source, dest)

    def port(self, node, header):
        source, dest = header
        if node == dest:
            return DELIVER
        return self._graph.port(node, int(self._next_hop[node, dest]))

    def port_to(self, node, dest):  # pragma: no cover - port() overridden
        return 1


def test_source_dependent_initial_header_uses_header_states_not_next_hops():
    # Overriding initial_header drops next-hop eligibility: compiling a
    # dest -> port matrix would fabricate a source.  The header-state engine
    # has no such restriction (states carry the full header), so the
    # inherited can_vectorize routes the scheme there — and the result still
    # matches the legacy interpreter exactly.
    graph = generators.grid_2d(3, 3)
    rf = _SourceTagged(graph)
    rf._next_hop = build_next_hop_matrix(graph)
    assert rf.program_kind() == "header-state"
    result = simulate_all_pairs(rf)
    assert result.mode == "header-compiled"
    assert np.array_equal(result.lengths, all_pairs_routing_lengths(rf))


def test_can_vectorize_opt_out_falls_back_to_generic():
    # The capability protocol is explicit: a subclass revoking the
    # can_vectorize promise (say, because its real header space is huge)
    # must land on the generic interpreter under auto.
    class _OptedOut(_SourceTagged):
        can_vectorize = False

    graph = generators.grid_2d(3, 3)
    rf = _OptedOut(graph)
    rf._next_hop = build_next_hop_matrix(graph)
    assert rf.program_kind() == "generic"
    result = simulate_all_pairs(rf)
    assert result.mode == "generic"


def test_header_state_explosion_raises_forced_and_falls_back_on_auto():
    # A scheme whose can_vectorize promise is broken (unbounded hop counter
    # on a livelocking route) must explode loudly when lowered directly and
    # degrade to the generic interpreter in the simulator.
    class _UnboundedCounter(RoutingFunction):
        can_vectorize = True

        def initial_header(self, source, dest):
            return (dest, 0)

        def port(self, node, header):
            dest, _ = header
            if node == dest:
                return DELIVER
            return self._graph.port(node, 1 if node == 0 else 0)

        def next_header(self, node, header):
            dest, hops = header
            return (dest, hops + 1)

    graph = generators.complete_graph(4)
    rf = _UnboundedCounter(graph)
    with pytest.raises(HeaderStateExplosionError, match="can_vectorize"):
        lower_header_state(rf)
    result = simulate_all_pairs(rf)
    assert result.mode == "generic"


def test_malformed_unvalidated_tables_raise_specific_errors():
    from repro.routing.model import TableRoutingFunction

    graph = generators.path_graph(3)
    complete = {0: {1: 1, 2: 1}, 1: {0: 1, 2: 2}, 2: {0: 1, 1: 1}}

    with_self = {x: dict(t) for x, t in complete.items()}
    with_self[0] = {0: 1, 2: 1}  # self-entry shadowing a real destination
    with pytest.raises(ValueError, match="self-entry"):
        simulate_all_pairs(TableRoutingFunction(graph, with_self, validate=False))

    missing = {x: dict(t) for x, t in complete.items()}
    del missing[1][2]
    with pytest.raises(ValueError, match="expected 2"):
        simulate_all_pairs(TableRoutingFunction(graph, missing, validate=False))


def test_compiled_next_hop_matrix_shape_and_diagonal():
    graph = generators.grid_2d(3, 3)
    rf = ShortestPathTableScheme().build(graph)
    next_node = lower_next_hop(rf).next_node
    assert next_node.shape == (9, 9)
    assert (np.diag(next_node) == np.arange(9)).all()
    dist = distance_matrix(graph)
    for x in range(9):
        for dest in range(9):
            if x != dest:
                assert dist[int(next_node[x, dest]), dest] == dist[x, dest] - 1


def test_single_vertex_and_two_vertex_graphs():
    from repro.graphs.digraph import PortLabeledGraph

    rf = ShortestPathTableScheme().build(PortLabeledGraph(1))
    result = simulate_all_pairs(rf)
    assert result.all_delivered and result.steps == 0

    rf = ShortestPathTableScheme().build(PortLabeledGraph(2, [(0, 1)]))
    result = simulate_all_pairs(rf)
    assert result.all_delivered
    assert result.lengths[0, 1] == result.lengths[1, 0] == 1


def test_simulated_stretch_factor_exact_fraction(cycle_8):
    class _Clockwise(DestinationBasedRoutingFunction):
        def port_to(self, node, dest):
            return self._graph.port(node, (node + 1) % self._graph.n)

    rf = _Clockwise(cycle_8)
    assert simulated_stretch_factor(rf) == Fraction(7, 1)
    assert simulated_stretch_factor(rf) == stretch_factor(rf)


# ----------------------------------------------------------------------
# conformance suite (the acceptance criterion)
# ----------------------------------------------------------------------
def test_conformance_suite_passes_for_every_registry_cell():
    reports, skipped, _ = ShardedRunner(processes=1).conformance_suite(size="small", seed=3)
    failures = [(r.scheme, r.family, r.failures) for r in reports if not r.ok]
    assert not failures, failures
    # Every scheme and every family is exercised at least once.
    assert {r.scheme for r in reports} == set(scheme_registry())
    assert {r.family for r in reports} == set(graph_families("small"))
    # Partial schemes are skipped only outside their domain; universal
    # schemes are never skipped.
    universal = {
        "tables-lowest-port",
        "tables-lowest-neighbor",
        "tables-highest-port",
        "interval",
        "landmark-sqrt",
        "landmark-degree",
        "landmark-rewriting",
        "spanner3-landmark",
        "spanner5-landmark",
        "spanner3-rewriting",
    }
    assert not [pair for pair in skipped if pair[0] in universal]
    # The rewriting cells exercised the header-compiled path end to end.
    rewriting_modes = {r.mode for r in reports if r.scheme in REWRITING_SCHEMES}
    assert rewriting_modes == {"header-compiled"}


def test_conformance_report_fields_are_consistent():
    from repro.sim import conformance_report

    graph = FAMILIES["grid"].copy()
    report = conformance_report(ShortestPathTableScheme(), graph, family="grid")
    assert report.ok
    assert report.mode == "compiled"
    assert report.max_stretch == 1.0
    assert report.stretch_fraction == Fraction(1)
    assert report.regime.startswith("shortest paths")
    assert report.local_bits <= 2 * report.table_upper_bits + 128
    assert report.n == graph.n


# ----------------------------------------------------------------------
# registry hygiene: capped retries and pinned instances
# ----------------------------------------------------------------------
def test_connected_instance_cap_names_family_and_base_seed():
    from repro.graphs.digraph import PortLabeledGraph

    def always_disconnected(seed):
        return PortLabeledGraph(2)  # two isolated vertices, never connected

    with pytest.raises(RuntimeError) as excinfo:
        connected_instance(always_disconnected, seed=42, attempts=7, family="toy-family")
    message = str(excinfo.value)
    assert "toy-family" in message
    assert "42" in message and "7" in message
    # Anonymous callers still get the cap diagnostics.
    with pytest.raises(RuntimeError, match="anonymous family"):
        connected_instance(always_disconnected, seed=3, attempts=2)


def test_connected_instance_bumps_seed_only_until_connected():
    from repro.graphs.digraph import PortLabeledGraph

    calls = []

    def builder(seed):
        calls.append(seed)
        g = PortLabeledGraph(2)
        if seed >= 12:  # connected only from the third bump onwards
            g.add_edge(0, 1)
        return g

    graph = connected_instance(builder, seed=10, family="toy-family")
    assert calls == [10, 11, 12]
    assert graph.num_edges == 1


#: Pinned fingerprints (first 16 hex digits) of every seed-0 registry
#: instance.  A generator change, a seed-retry change in
#: connected_instance, or a silent numpy RNG drift shows up here instead of
#: corrupting downstream measurements unnoticed.  Regenerate with:
#:   PYTHONPATH=src python -c "from repro.sim.registry import graph_families;
#:   [print(k, g.fingerprint()[:16]) for k, g in graph_families('small', seed=0).items()]"
PINNED_FINGERPRINTS = {
    "small": {
        "path": "726dd4b36d30d79c",
        "cycle": "dba584ae4a2acdd8",
        "star": "5e4f1387c56b69ea",
        "complete": "d481141e2c6c6b96",
        "complete-bipartite": "6916432953af6fda",
        "hypercube": "179b5c10317e4929",
        "grid": "d13e4166e7b4dd8c",
        "torus": "ad2aa7f9cbbe5dd4",
        "petersen": "04de311afb92ed9d",
        "binary-tree": "604ae293021bf90c",
        "random-tree": "ae9f4202be461ba0",
        "caterpillar": "b0782f495cd1d20e",
        "outerplanar": "96921411c5f010fb",
        "unit-circular-arc": "550f4375b8c9a802",
        "random-interval": "840bb84d76e8eb29",
        "chordal": "290d7b9d87de82f5",
        "random-sparse": "31e569e02d14ea34",
        "random-dense": "6bfc305ee0cb2dd0",
        "random-regular": "c79ac3ac514f90b2",
        "expander": "70b01cf4e4f2e8f7",
    },
    "medium": {
        "path": "9742d83dcbf2b552",
        "cycle": "530cb43f10b298e4",
        "star": "98f61403113e60e4",
        "complete": "0e2ea4aee23581e9",
        "complete-bipartite": "d7af170479d26a48",
        "hypercube": "d914814c5d0d0652",
        "grid": "416baead0b711fad",
        "torus": "e6dd50a989356187",
        "petersen": "04de311afb92ed9d",
        "binary-tree": "546fc49488e4c852",
        "random-tree": "45a12ba69b1d5985",
        "caterpillar": "0ddc56aaef242f07",
        "outerplanar": "e32dda174295ad06",
        "unit-circular-arc": "b1811ad960bac3bb",
        "random-interval": "76dc3895eff07548",
        "chordal": "cafe1c33762a575b",
        "random-sparse": "c33a250c3afcc18b",
        "random-dense": "644ae1a8d5425eab",
        "random-regular": "8e6beb8884df9a2b",
        "expander": "ec42d0ec37e33bdc",
    },
}


@pytest.mark.parametrize("size", ["small", "medium"])
def test_registry_instances_are_pinned_by_fingerprint(size):
    families = graph_families(size, seed=0)
    measured = {name: graph.fingerprint()[:16] for name, graph in families.items()}
    assert measured == PINNED_FINGERPRINTS[size]


def test_conformance_report_flags_broken_scheme():
    from repro.sim import conformance_report

    class _BrokenScheme:
        name = "broken"
        stretch_guarantee = 1.0

        def build(self, graph):
            return _BounceFunction(graph)

    report = conformance_report(_BrokenScheme(), generators.complete_graph(4), family="complete")
    assert not report.ok
    assert any("undelivered" in f for f in report.failures)
    # A failed cell belongs to no Table 1 regime.
    assert "undelivered" in report.regime
    assert np.isnan(report.regime_local_upper_bits)
