"""Format versioning, domain dtypes, and the zero-copy mmap program store.

Pins the v2 container contract end to end:

* **Version negotiation** — v1 blobs still load (cast down to domain
  dtypes on the way in), v2 blobs decode to zero-copy views, and the
  fingerprint is canonical: a program loaded from a v1 blob, a v2 blob,
  an mmap'd ``.rpg`` file, or hand-built with int64 arrays all fingerprint
  identically, so cache keys never split across format generations.
* **Domain-sized dtypes** — transition arrays shrink to the smallest
  signed dtype that holds the domain, and the negative MISDELIVER /
  DROPPED sentinels survive the shrink at every width.
* **File store** — ``save_program`` / ``load_program`` round-trip through
  a memory-mapped file without copying array payloads, reject corrupt
  files loudly, and the :class:`ExperimentCache` program store degrades to
  a cache miss (never an exception) on a corrupt ``.rpg`` artifact while
  still reading legacy pickled entries.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.runner import ExperimentCache, cached_program, scheme_fingerprint
from repro.graphs import generators
from repro.routing.landmark import CowenLandmarkScheme
from repro.routing.model import SchemeInapplicableError
from repro.routing.program import (
    DROPPED,
    MISDELIVER,
    HeaderStateProgram,
    NextHopProgram,
    load_program,
    program_from_bytes,
    save_program,
    transition_dtype,
)
from repro.routing.tables import ShortestPathTableScheme
from repro.sim.engine import execute_program


def _next_hop_program(n=18, seed=3):
    graph = generators.random_connected_graph(n, extra_edge_prob=0.2, seed=seed)
    program = ShortestPathTableScheme().build(graph).compile_program()
    assert isinstance(program, NextHopProgram)
    return program


def _header_state_program(n=14, seed=5):
    graph = generators.random_connected_graph(n, extra_edge_prob=0.2, seed=seed)
    program = CowenLandmarkScheme(seed=seed, rewriting=True).build(graph).compile_program()
    assert isinstance(program, HeaderStateProgram)
    return program


# ----------------------------------------------------------------------
# domain dtypes
# ----------------------------------------------------------------------
def test_transition_dtype_is_smallest_signed_width():
    assert transition_dtype(2) == np.dtype(np.int16)
    assert transition_dtype(1 << 15) == np.dtype(np.int16)  # max value 32767
    assert transition_dtype((1 << 15) + 1) == np.dtype(np.int32)
    assert transition_dtype(1 << 31) == np.dtype(np.int32)
    assert transition_dtype((1 << 31) + 1) == np.dtype(np.int64)


def test_lowered_programs_carry_domain_dtypes():
    next_hop = _next_hop_program()
    assert next_hop.next_node.dtype == transition_dtype(next_hop.n)
    header = _header_state_program()
    num_states = header.succ.shape[0]
    state_dtype = transition_dtype(num_states)
    assert header.succ.dtype == state_dtype
    assert header.initial.dtype == state_dtype
    assert header.hops_to_deliver.dtype == state_dtype
    assert header.node_of.dtype == transition_dtype(header.n)


@pytest.mark.parametrize("wide_dtype", [np.int16, np.int32, np.int64])
def test_sentinels_survive_the_dtype_shrink(wide_dtype):
    # Sentinels are representable at every signed width: plant both in a
    # table stored wider than the domain needs, and check they survive the
    # decoder's shrink to the canonical domain dtype of n.
    n = 6
    ring = np.array([[(d if c == d else (c + 1) % n) for d in range(n)] for c in range(n)])
    table = ring.astype(wide_dtype)
    table[0, 2] = MISDELIVER
    table[1, 3] = DROPPED
    program = NextHopProgram(next_node=table)
    clone = program_from_bytes(program.to_bytes())
    assert clone.next_node.dtype == transition_dtype(n)
    assert np.array_equal(clone.next_node, table)
    assert (clone.next_node == MISDELIVER).sum() == 1
    assert (clone.next_node == DROPPED).sum() == 1


# ----------------------------------------------------------------------
# version negotiation + canonical fingerprints
# ----------------------------------------------------------------------
def test_v1_blobs_still_load_and_cast_down():
    program = _next_hop_program()
    v1 = program_from_bytes(program.to_bytes(version=1))
    assert np.array_equal(v1.next_node, program.next_node)
    # v1 payloads are int64 on disk; the loader casts to the domain dtype.
    assert v1.next_node.dtype == transition_dtype(program.n)

    header = _header_state_program()
    v1h = program_from_bytes(header.to_bytes(version=1))
    for field in ("succ", "deliver", "node_of", "hops_to_deliver", "initial"):
        reloaded, original = getattr(v1h, field), getattr(header, field)
        assert np.array_equal(reloaded, original)
        assert reloaded.dtype == original.dtype


def test_fingerprint_is_canonical_across_formats_and_dtypes(tmp_path):
    program = _next_hop_program()
    expected = program.fingerprint()
    via_v1 = program_from_bytes(program.to_bytes(version=1)).fingerprint()
    via_v2 = program_from_bytes(program.to_bytes()).fingerprint()
    int64_layout = NextHopProgram(
        next_node=program.next_node.astype(np.int64)
    ).fingerprint()
    path = tmp_path / "p.rpg"
    save_program(program, path)
    via_mmap = load_program(path).fingerprint()
    assert via_v1 == via_v2 == int64_layout == via_mmap == expected


def test_v1_and_v2_loads_execute_identically():
    program = _header_state_program()
    a = execute_program(program_from_bytes(program.to_bytes(version=1)))
    b = execute_program(program_from_bytes(program.to_bytes()))
    assert np.array_equal(a.lengths, b.lengths)
    assert np.array_equal(a.delivered, b.delivered)
    assert np.array_equal(a.misdelivered, b.misdelivered)
    assert a.steps == b.steps


# ----------------------------------------------------------------------
# zero-copy mmap store
# ----------------------------------------------------------------------
def test_load_program_returns_readonly_views_over_the_mapping(tmp_path):
    program = _header_state_program()
    path = tmp_path / "header.rpg"
    save_program(program, path)
    loaded = load_program(path)
    for field in ("succ", "deliver", "node_of", "hops_to_deliver", "initial"):
        array = getattr(loaded, field)
        assert not array.flags["OWNDATA"], f"{field} was copied, not mapped"
        assert not array.flags["WRITEABLE"]
        assert np.array_equal(array, getattr(program, field))
    with pytest.raises(ValueError):
        loaded.succ[0] = 0


def test_v2_decode_from_bytes_is_zero_copy_too():
    program = _next_hop_program()
    blob = program.to_bytes()
    clone = program_from_bytes(blob)
    assert not clone.next_node.flags["OWNDATA"]
    assert np.array_equal(clone.next_node, program.next_node)


def test_load_program_rejects_corrupt_files(tmp_path):
    program = _next_hop_program()
    good = tmp_path / "good.rpg"
    save_program(program, good)
    blob = good.read_bytes()

    empty = tmp_path / "empty.rpg"
    empty.write_bytes(b"")
    with pytest.raises(ValueError):
        load_program(empty)

    garbage = tmp_path / "garbage.rpg"
    garbage.write_bytes(b"not a program at all")
    with pytest.raises(ValueError):
        load_program(garbage)

    truncated = tmp_path / "truncated.rpg"
    truncated.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(ValueError):
        load_program(truncated)

    bad_version = tmp_path / "bad_version.rpg"
    tampered = bytearray(blob)
    tampered[4] = 99  # the format-version byte
    bad_version.write_bytes(bytes(tampered))
    with pytest.raises(ValueError):
        load_program(bad_version)


def test_save_program_is_atomic(tmp_path):
    program = _next_hop_program()
    path = tmp_path / "sub" / "p.rpg"
    path.parent.mkdir()
    save_program(program, path)
    # No temp litter left behind, and the payload loads.
    assert [p.name for p in path.parent.iterdir()] == ["p.rpg"]
    assert load_program(path).fingerprint() == program.fingerprint()


# ----------------------------------------------------------------------
# ExperimentCache program store
# ----------------------------------------------------------------------
def test_cache_program_store_round_trips_via_rpg(tmp_path):
    cache = ExperimentCache(tmp_path)
    program = _next_hop_program()
    key = cache.key("program", "round-trip")
    cache.store_program_entry(key, program)
    artifact = cache.program_artifact_path(key)
    assert artifact is not None and artifact.exists()

    fresh = ExperimentCache(tmp_path)  # cold memory: must hit the .rpg
    found, loaded = fresh.load_program_entry(key)
    assert found
    assert loaded.fingerprint() == program.fingerprint()
    assert not loaded.next_node.flags["OWNDATA"]  # mmap view, not a pickle copy


def test_cache_program_store_keeps_inapplicable_verdicts(tmp_path):
    class RefusingScheme:
        builds = 0

        def build(self, graph):
            RefusingScheme.builds += 1
            raise ValueError("scheme rejects the family")

    scheme, graph = RefusingScheme(), generators.cycle_graph(6)
    with pytest.raises(SchemeInapplicableError):
        cached_program(scheme, graph, ExperimentCache(tmp_path))
    assert RefusingScheme.builds == 1

    fresh = ExperimentCache(tmp_path)  # cold memory: the verdict is on disk
    key = fresh.program_key(graph.fingerprint(), scheme_fingerprint(scheme))
    assert fresh.load_program_entry(key) == (
        True, ("inapplicable", "scheme rejects the family")
    )
    with pytest.raises(SchemeInapplicableError, match="rejects the family"):
        cached_program(scheme, graph, fresh)
    assert RefusingScheme.builds == 1  # served from the verdict, never rebuilt
    assert (fresh.program_hits, fresh.program_misses) == (1, 0)


def test_corrupt_rpg_degrades_to_a_cache_miss(tmp_path):
    cache = ExperimentCache(tmp_path)
    program = _next_hop_program()
    key = cache.key("program", "corrupt")
    cache.store_program_entry(key, program)
    artifact = cache.program_artifact_path(key)
    artifact.write_bytes(b"scribbled over by a crash")

    found, _ = ExperimentCache(tmp_path).load_program_entry(key)
    assert not found  # miss, not an exception: the cell recomputes


def test_in_memory_cache_has_no_artifact_path():
    cache = ExperimentCache(None)
    program = _next_hop_program()
    key = cache.key("program", "memory-only")
    assert cache.program_artifact_path(key) is None
    cache.store_program_entry(key, program)
    found, loaded = cache.load_program_entry(key)
    assert found and loaded is program
