"""The compiled routing-program IR: lowering, execution, serialization, caching.

Four layers of guarantees:

* **Differential** — for every scheme in the registry and every seeded
  generator family, ``execute(rf.compile_program())`` produces exactly the
  matrices of the generic interpreter and of the per-pair oracle router
  (``route`` in ``tests/oracles.py``).  Hypothesis property tests extend
  this to random graphs for both program kinds.

* **Serialization** — ``program_from_bytes(p.to_bytes())`` executes
  identically, array for array, and the content fingerprint is stable
  across processes and hash seeds (pinned by a subprocess round-trip with
  a different ``PYTHONHASHSEED``).

* **Lowering ownership** — every registry scheme lowers to the program
  kind its class declares (``program_kind()``); the deprecated engine-side
  sniffers warn and are gone from the ``repro.sim`` namespace.

* **Compile-once pipeline** — the sharded runner caches program bytes
  under ``(graph, scheme)`` fingerprints; a warm ``program_sweep``
  executes cached programs without re-building a single scheme (compile
  hit-rate 1.0 — the acceptance criterion pins >= 0.95), and memory
  profiles scored against the artifact equal the scheme-level profiles.
"""

from __future__ import annotations

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import profile_settings
from oracles import (
    all_pairs_routing_lengths,
    decode_program_states,
    encode_program_states,
    program_local_map,
)
from repro.graphs import generators
from repro.memory.requirement import memory_profile, program_artifact_bits, program_memory_profile
from repro.routing.landmark import CowenLandmarkScheme
from repro.routing.program import (
    KIND_GENERIC,
    KIND_HEADER_STATE,
    KIND_NEXT_HOP,
    GenericProgram,
    HeaderStateProgram,
    NextHopProgram,
    compile_scheme_program,
    program_from_bytes,
)
from repro.routing.tables import ShortestPathTableScheme
from repro.sim import execute_program, simulate_all_pairs
from repro.sim.registry import graph_families, scheme_registry

# Example counts come from the shared REPRO_HYP_PROFILE knob (conftest).
_SETTINGS = profile_settings(25)

SCHEMES = scheme_registry(seed=7)
FAMILIES = graph_families("small", seed=7)

#: Registry schemes that genuinely rewrite headers; everything else is
#: header-constant and must lower to the next-hop matrix form.
REWRITING_SCHEMES = ("ecube-mask", "landmark-rewriting", "spanner3-rewriting")


def _build(scheme_name, family_name):
    graph = FAMILIES[family_name].copy()
    try:
        return SCHEMES[scheme_name].build(graph)
    except ValueError:
        pytest.skip(f"{scheme_name} does not apply to {family_name}")


def _results_equal(a, b):
    assert a.mode == b.mode
    assert np.array_equal(a.lengths, b.lengths)
    assert np.array_equal(a.delivered, b.delivered)
    assert np.array_equal(a.misdelivered, b.misdelivered)


# ----------------------------------------------------------------------
# differential: execute(compile_program) == generic == legacy, plus a
# serialization round-trip, for every registry scheme x family cell
# ----------------------------------------------------------------------
@pytest.mark.parametrize("family_name", sorted(FAMILIES))
@pytest.mark.parametrize("scheme_name", sorted(SCHEMES))
def test_program_execution_matches_generic_and_legacy(scheme_name, family_name):
    rf = _build(scheme_name, family_name)
    expected_kind = (
        KIND_HEADER_STATE if scheme_name in REWRITING_SCHEMES else KIND_NEXT_HOP
    )
    assert rf.program_kind() == expected_kind

    program = rf.compile_program()
    assert program.kind == expected_kind
    assert program.n == rf.graph.n

    compiled = execute_program(program)
    generic = simulate_all_pairs(rf, program=GenericProgram(num_vertices=rf.graph.n))
    assert np.array_equal(compiled.lengths, generic.lengths)
    assert np.array_equal(compiled.delivered, generic.delivered)
    assert np.array_equal(compiled.misdelivered, generic.misdelivered)
    assert compiled.all_delivered
    assert np.array_equal(compiled.lengths, all_pairs_routing_lengths(rf))

    # Bytes round-trip: the reloaded artifact executes identically and the
    # content fingerprint is preserved.
    clone = program_from_bytes(program.to_bytes())
    assert clone.kind == program.kind
    assert clone.fingerprint() == program.fingerprint()
    _results_equal(execute_program(clone), compiled)

    # simulate_all_pairs executes a pre-compiled program= artifact as is.
    _results_equal(simulate_all_pairs(rf, program=program), compiled)


@pytest.mark.parametrize("scheme_name", sorted(SCHEMES))
def test_scheme_level_compile_program_on_one_family(scheme_name):
    # BaseRoutingScheme.compile_program(graph) = build-then-lower on a copy.
    for family_name in sorted(FAMILIES):
        graph = FAMILIES[family_name].copy()
        before = graph.fingerprint()
        try:
            program = SCHEMES[scheme_name].compile_program(graph)
        except Exception:
            continue
        assert program.kind in (KIND_NEXT_HOP, KIND_HEADER_STATE)
        # The input graph is never mutated (port-relabelling schemes work
        # on the internal copy).
        assert graph.fingerprint() == before
        assert program.n == graph.n
        return
    pytest.fail(f"{scheme_name} applied to no family at all")


@_SETTINGS
@given(
    n=st.integers(min_value=3, max_value=24),
    extra=st.floats(min_value=0.0, max_value=0.4),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_next_hop_round_trip_on_random_graphs(n, extra, seed):
    graph = generators.random_connected_graph(n, extra_edge_prob=extra, seed=seed)
    rf = ShortestPathTableScheme().build(graph)
    program = rf.compile_program()
    assert isinstance(program, NextHopProgram)
    clone = program_from_bytes(program.to_bytes())
    assert np.array_equal(clone.next_node, program.next_node)
    assert clone.fingerprint() == program.fingerprint()
    _results_equal(execute_program(clone), execute_program(program))


@_SETTINGS
@given(
    n=st.integers(min_value=4, max_value=20),
    extra=st.floats(min_value=0.0, max_value=0.4),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_header_state_round_trip_on_random_graphs(n, extra, seed):
    graph = generators.random_connected_graph(n, extra_edge_prob=extra, seed=seed)
    rf = CowenLandmarkScheme(seed=seed, rewriting=True).build(graph)
    program = rf.compile_program()
    assert isinstance(program, HeaderStateProgram)
    clone = program_from_bytes(program.to_bytes())
    assert clone.headers is None  # debug metadata is not serialized
    for field in ("succ", "deliver", "node_of", "initial"):
        assert np.array_equal(getattr(clone, field), getattr(program, field))
    assert clone.fingerprint() == program.fingerprint()
    result = execute_program(clone)
    _results_equal(result, execute_program(program))
    assert np.array_equal(result.lengths, all_pairs_routing_lengths(rf))


def test_fingerprint_stable_across_processes_and_hash_seeds():
    rf = SCHEMES["landmark-rewriting"].build(FAMILIES["random-sparse"].copy())
    local = rf.compile_program().fingerprint()
    script = (
        "from repro.sim.registry import graph_families, scheme_registry;"
        "rf = scheme_registry(seed=7)['landmark-rewriting'].build("
        "graph_families('small', seed=7)['random-sparse'].copy());"
        "print(rf.compile_program().fingerprint())"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": "src", "PYTHONHASHSEED": "4242", "PATH": "/usr/bin:/bin"},
        cwd=str((__import__("pathlib").Path(__file__).resolve().parent.parent)),
    )
    assert out.stdout.strip() == local


# ----------------------------------------------------------------------
# serialization hygiene
# ----------------------------------------------------------------------
def test_generic_program_round_trips_and_requires_live_function():
    program = GenericProgram(num_vertices=9)
    clone = program_from_bytes(program.to_bytes())
    assert isinstance(clone, GenericProgram) and clone.n == 9
    assert clone.fingerprint() == program.fingerprint()
    with pytest.raises(ValueError, match="live routing function"):
        execute_program(clone)
    # With the live function it runs the generic interpreter.
    rf = ShortestPathTableScheme().build(generators.cycle_graph(9))
    result = simulate_all_pairs(rf, program=clone)
    assert result.mode == "generic" and result.all_delivered


def test_from_bytes_rejects_garbage_wrong_versions_and_truncation():
    with pytest.raises(ValueError, match="magic"):
        program_from_bytes(b"not a program at all")
    good = GenericProgram(num_vertices=3).to_bytes()
    tampered = good[:4] + bytes([99]) + good[5:]  # bump the version byte
    with pytest.raises(ValueError, match="version"):
        program_from_bytes(tampered)
    # Truncation anywhere in the framed payload stays a ValueError (the
    # cache's corruption handling depends on it), never a struct.error.
    for blob in (good, ShortestPathTableScheme().compile_program(generators.path_graph(4)).to_bytes()):
        for cut in (4, 5, 6, len(blob) // 2, len(blob) - 1):
            with pytest.raises(ValueError):
                program_from_bytes(blob[:cut])


def test_mismatched_programs_are_rejected_for_every_kind():
    rf = ShortestPathTableScheme().build(generators.path_graph(4))
    with pytest.raises(ValueError, match="n=7"):
        simulate_all_pairs(rf, program=GenericProgram(num_vertices=7))
    # Compiled kinds must fail loudly too: silently executing a program of
    # another graph would feed wrong lengths into stretch ratios.
    other = ShortestPathTableScheme().build(generators.cycle_graph(6)).compile_program()
    with pytest.raises(ValueError, match="n=6"):
        simulate_all_pairs(rf, program=other)


def test_cold_cells_build_each_scheme_exactly_once(tmp_path):
    from repro.analysis.runner import ShardedRunner

    _CountingScheme.builds = builds = []
    schemes = {"landmark-sqrt": _CountingScheme(CowenLandmarkScheme(seed=2))}
    families = {"grid": FAMILIES["grid"].copy()}
    runner = ShardedRunner(cache_dir=tmp_path, processes=1)
    runner.conformance_suite(schemes=schemes, families=families)
    assert builds == ["cowen-landmark"]  # compile + report share one build
    builds.clear()
    runner.table1_report([("grid", FAMILIES["grid"].copy())], schemes=list(schemes.values()))
    assert builds == ["cowen-landmark"]


# ----------------------------------------------------------------------
# deprecation hygiene
# ----------------------------------------------------------------------
def test_capability_shims_are_fully_removed():
    """The deprecated ``can_compile``/``can_header_compile`` sniffers are gone.

    They shipped as ``DeprecationWarning`` shims for one release cycle;
    eligibility is the routing classes' own ``program_kind()`` /
    ``can_vectorize`` declarations now, everywhere.
    """
    import repro.sim as sim
    import repro.sim.engine as engine

    for module in (sim, engine):
        assert not hasattr(module, "can_compile")
        assert not hasattr(module, "can_header_compile")
    assert "can_compile" not in sim.__all__ and "can_header_compile" not in sim.__all__


# ----------------------------------------------------------------------
# memory is scored from the artifact
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "scheme_name", ["tables-lowest-port", "interval", "landmark-sqrt", "ecube-mask"]
)
def test_memory_profile_from_artifact_equals_live_profile(scheme_name):
    for family_name in sorted(FAMILIES):
        graph = FAMILIES[family_name].copy()
        try:
            rf = SCHEMES[scheme_name].build(graph)
        except ValueError:
            continue
        program = rf.compile_program()
        with_artifact = memory_profile(rf, program=program)
        live = memory_profile(rf)
        assert np.array_equal(with_artifact.bits_per_node, live.bits_per_node)
        assert with_artifact.coder_per_node == live.coder_per_node
        return
    pytest.fail(f"{scheme_name} applied to no family at all")


def test_program_local_map_reads_the_artifact_back():
    graph = generators.grid_2d(3, 4)
    rf = ShortestPathTableScheme().build(graph)
    program = rf.compile_program()
    for node in range(graph.n):
        assert program_local_map(program, graph, node) == rf.local_map(node)


def test_program_memory_profile_for_both_compiled_kinds():
    graph = FAMILIES["grid"].copy()
    table_rf = SCHEMES["tables-lowest-port"].build(graph)
    next_hop = table_rf.compile_program()
    artifact_profile = program_memory_profile(next_hop, graph)
    # A next-hop artifact is exactly the universal routing table, so its
    # per-node encodings match the scheme-level measurement.
    assert np.array_equal(
        artifact_profile.bits_per_node, memory_profile(table_rf).bits_per_node
    )
    assert program_artifact_bits(next_hop) == 8 * len(next_hop.to_bytes())

    rewriting = SCHEMES["landmark-rewriting"].build(FAMILIES["random-sparse"].copy())
    header_program = rewriting.compile_program()
    state_profile = program_memory_profile(header_program, rewriting.graph)
    assert state_profile.bits_per_node.shape == (rewriting.graph.n,)
    assert (state_profile.bits_per_node > 0).all()
    assert set(state_profile.coder_per_node) == {"program-states"}
    # Each closed-form slice length is the length of a bit string that
    # decodes back to the node's states, deliver flags, ports and successors.
    g = rewriting.graph
    for node in range(g.n):
        payload = encode_program_states(header_program, g, node)
        assert len(payload) == state_profile.bits_per_node[node]
        flags, ports, succs = decode_program_states(payload, g.degree(node), header_program.num_states)
        states = np.flatnonzero(header_program.node_of == node)
        assert flags == header_program.deliver[states].tolist()
        assert succs == header_program.succ[states[~header_program.deliver[states]]].tolist()
        assert ports == [g.port(node, int(header_program.node_of[s])) for s in succs]

    with pytest.raises(TypeError, match="opt-out"):
        program_memory_profile(GenericProgram(num_vertices=5), graph)


# ----------------------------------------------------------------------
# the compile-once pipeline: cached bytes across runner sweeps
# ----------------------------------------------------------------------
class _CountingScheme:
    """Wraps a scheme and counts how often a sweep actually builds it.

    The counter is class-level on purpose: an instance attribute would
    enter ``scheme_fingerprint`` (which canonicalises every attribute the
    scheme holds) and destabilise the cache keys between sweeps.
    """

    builds: list = []

    def __init__(self, inner):
        self._inner = inner
        self.name = getattr(inner, "name", type(inner).__name__)

    @property
    def stretch_guarantee(self):
        return getattr(self._inner, "stretch_guarantee", None)

    def build(self, graph):
        _CountingScheme.builds.append(self.name)
        return self._inner.build(graph)

    def compile_program(self, graph):
        return compile_scheme_program(self, graph)


def test_warm_program_sweep_executes_cached_bytes_without_rebuilding(tmp_path):
    from repro.analysis.runner import ShardedRunner

    _CountingScheme.builds = builds = []
    schemes = {
        name: _CountingScheme(scheme)
        for name, scheme in scheme_registry(seed=5).items()
    }
    families = {
        name: FAMILIES[name].copy() for name in ("grid", "cycle", "random-sparse")
    }
    runner = ShardedRunner(cache_dir=tmp_path, processes=1)
    cold, skipped_cold, stats_cold = runner.program_sweep(
        schemes=schemes, families=families
    )
    assert builds  # the cold sweep had to build in order to compile
    assert stats_cold.compile_misses > 0 and stats_cold.compile_hits == 0

    builds.clear()
    warm, skipped_warm, stats_warm = runner.program_sweep(
        schemes=schemes, families=families
    )
    # The acceptance criterion: the re-sweep executes cached programs
    # without re-building any scheme, compile hit-rate >= 95%.
    assert builds == []
    assert stats_warm.compile_hit_rate == 1.0 >= 0.95
    assert stats_warm.compile_misses == 0
    assert warm == cold
    assert skipped_warm == skipped_cold
    assert "compiled-cache hits" in stats_warm.describe()
    # Every non-skipped registry cell lowered to a real compiled kind, and
    # every scheme shows up either executed or as a (cached) domain skip.
    assert {cell.kind for cell in warm} <= {KIND_NEXT_HOP, KIND_HEADER_STATE}
    assert all(cell.all_delivered for cell in warm)
    executed = {cell.scheme for cell in warm}
    assert executed | {name for name, _ in skipped_warm} == set(schemes)


def test_program_bytes_are_shared_across_cache_instances(tmp_path):
    from repro.analysis.runner import ExperimentCache, cached_program

    graph = FAMILIES["grid"].copy()
    scheme = ShortestPathTableScheme()
    first = ExperimentCache(tmp_path)
    program, _ = cached_program(scheme, graph, first)
    assert (first.program_hits, first.program_misses) == (0, 1)
    second = ExperimentCache(tmp_path)
    again, _ = cached_program(scheme, graph, second)
    assert (second.program_hits, second.program_misses) == (1, 0)
    assert again.fingerprint() == program.fingerprint()
    _results_equal(execute_program(again), execute_program(program))


def test_pooled_program_sweep_matches_serial(tmp_path):
    from repro.analysis.runner import ShardedRunner

    schemes = {
        "tables": ShortestPathTableScheme(),
        "landmark-rewriting": CowenLandmarkScheme(seed=3, rewriting=True),
    }
    families = {"grid": FAMILIES["grid"].copy(), "cycle": FAMILIES["cycle"].copy()}
    serial = ShardedRunner(cache_dir=tmp_path / "serial", processes=1)
    serial_results, _, _ = serial.program_sweep(schemes=schemes, families=families)
    pooled = ShardedRunner(cache_dir=tmp_path / "pooled", processes=2)
    pooled_results, _, pooled_stats = pooled.program_sweep(
        schemes=schemes, families=families
    )
    assert pooled_results == serial_results
    assert pooled_stats.compile_misses == len(serial_results)
    # The pooled warm pass serves every program from the shared directory.
    again, _, warm_stats = pooled.program_sweep(schemes=schemes, families=families)
    assert again == serial_results
    assert warm_stats.compile_hit_rate == 1.0


def test_partial_schemes_skip_in_program_sweep(tmp_path):
    from repro.analysis.runner import ShardedRunner
    from repro.routing.ecube import ECubeRoutingScheme

    runner = ShardedRunner(cache_dir=tmp_path, processes=1)
    results, skipped, _ = runner.program_sweep(
        schemes={"tables": ShortestPathTableScheme(), "ecube": ECubeRoutingScheme()},
        families={"cycle": FAMILIES["cycle"].copy()},
    )
    assert [cell.scheme for cell in results] == ["tables"]
    assert skipped == [("ecube", "cycle")]


def test_generic_kind_cells_are_cached_and_interpreted(tmp_path):
    from repro.analysis.runner import ShardedRunner
    from repro.routing.model import RoutingFunction
    from conftest import build_next_hop_matrix

    class _TTLFunction(RoutingFunction):
        def __init__(self, graph):
            super().__init__(graph)
            self._next_hop = build_next_hop_matrix(graph)

        def initial_header(self, source, dest):
            return (dest, 0)

        def port(self, node, header):
            dest, _ = header
            if node == dest:
                return 0
            return self._graph.port(node, int(self._next_hop[node, dest]))

        def next_header(self, node, header):
            dest, hops = header
            return (dest, hops + 1)

    class _TTLScheme:
        name = "ttl"

        def build(self, graph):
            return _TTLFunction(graph)

    runner = ShardedRunner(cache_dir=tmp_path, processes=1)
    families = {"grid": FAMILIES["grid"].copy()}
    cold, _, _ = runner.program_sweep(schemes={"ttl": _TTLScheme()}, families=families)
    warm, _, stats = runner.program_sweep(schemes={"ttl": _TTLScheme()}, families=families)
    assert warm == cold
    assert [cell.kind for cell in warm] == [KIND_GENERIC]
    assert [cell.mode for cell in warm] == ["generic"]
    assert stats.compile_hit_rate == 1.0  # the opt-out marker caches too
