"""Format versioning, domain dtypes, and the zero-copy mmap program store.

Pins the container contract end to end:

* **One format version** — blobs decode to zero-copy views, every other
  version (the retired ``<i8`` version 1 and the version 2 layout that
  still carried a per-state stop-hops section) is refused, and a store
  object in an old layout degrades to a recompile.  The fingerprint is
  canonical: a program loaded from a blob, an mmap'd ``.rpg`` file, or
  hand-built with int64 arrays all fingerprint identically.
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

import struct

import numpy as np
import pytest

from repro.analysis.runner import ExperimentCache, cached_program, scheme_fingerprint
from repro.graphs import generators
from repro.routing.landmark import CowenLandmarkScheme
from repro.routing.model import SchemeInapplicableError
from repro.routing.program import (
    _KIND_CODES,
    _MAGIC,
    DROPPED,
    MISDELIVER,
    HeaderStateProgram,
    NextHopProgram,
    _pack_section,
    load_program,
    program_from_bytes,
    resolve_functional,
    save_program,
    transition_dtype,
)
from repro.routing.tables import ShortestPathTableScheme


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
# one format version + canonical fingerprints
# ----------------------------------------------------------------------
def _version_2_blob(program):
    """``program`` in the retired version-2 layout.

    Version 2 framed the same sections as today, plus a per-state stop-hops
    section between ``node_of`` and ``initial``.
    """
    head = _MAGIC + struct.pack("<BB", 2, _KIND_CODES[program.kind])
    parts = [head]
    offset = len(head)
    sdt = transition_dtype(program.num_states)
    _, hops = resolve_functional(program.succ, program.deliver)
    for array, dtype in (
        (program.succ, sdt),
        (program.deliver, np.dtype(bool)),
        (program.node_of, transition_dtype(program.n)),
        (hops, sdt),
        (program.initial, sdt),
    ):
        offset = _pack_section(parts, offset, array, dtype)
    return b"".join(parts)


def _with_version_byte(blob, version):
    return blob[:4] + bytes([version]) + blob[5:]


@pytest.mark.parametrize("version", [1, 2])
def test_blobs_of_retired_versions_are_refused(version):
    for program in (_next_hop_program(), _header_state_program()):
        blob = _with_version_byte(program.to_bytes(), version)
        with pytest.raises(ValueError, match="unsupported RoutingProgram format version"):
            program_from_bytes(blob)
    with pytest.raises(ValueError, match=f"format version {version}"):
        program_from_bytes(_with_version_byte(_version_2_blob(_header_state_program()), version))


def test_fingerprint_is_canonical_across_loads_and_dtypes(tmp_path):
    program = _next_hop_program()
    expected = program.fingerprint()
    via_bytes = program_from_bytes(program.to_bytes()).fingerprint()
    int64_layout = NextHopProgram(
        next_node=program.next_node.astype(np.int64)
    ).fingerprint()
    path = tmp_path / "p.rpg"
    save_program(program, path)
    via_mmap = load_program(path).fingerprint()
    assert via_bytes == int64_layout == via_mmap == expected


def test_header_state_fingerprint_ignores_in_memory_widths():
    program = _header_state_program()
    wide = HeaderStateProgram(
        **{f: getattr(program, f).astype(np.int64) for f in ("succ", "node_of", "initial")},
        deliver=program.deliver,
    )
    assert wide.to_bytes() == program.to_bytes()
    assert wide.fingerprint() == program.fingerprint()


# ----------------------------------------------------------------------
# zero-copy mmap store
# ----------------------------------------------------------------------
def test_load_program_returns_readonly_views_over_the_mapping(tmp_path):
    program = _header_state_program()
    path = tmp_path / "header.rpg"
    save_program(program, path)
    loaded = load_program(path)
    for field in ("succ", "deliver", "node_of", "initial"):
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
    store = cache.program_store
    assert store.object_path(store.lookup(key).object_id).exists()

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
    store = cache.program_store
    store.object_path(store.lookup(key).object_id).write_bytes(b"scribbled over by a crash")

    found, _ = ExperimentCache(tmp_path).load_program_entry(key)
    assert not found  # miss, not an exception: the cell recomputes


def test_old_layout_store_object_degrades_recompiles_then_hits(tmp_path):
    scheme = CowenLandmarkScheme(seed=5, rewriting=True)
    graph = generators.random_connected_graph(14, extra_edge_prob=0.2, seed=5)
    cache = ExperimentCache(tmp_path)
    program, _ = cached_program(scheme, graph, cache)
    key = cache.program_key(graph.fingerprint(), scheme_fingerprint(scheme))
    # The object a version-2 writer left under the same address.
    store = cache.program_store
    store.object_path(store.lookup(key).object_id).write_bytes(_version_2_blob(program))

    cold = ExperimentCache(tmp_path)
    with pytest.warns(RuntimeWarning, match="format version 2"):
        again, _ = cached_program(scheme, graph, cold)
    assert cold.degraded_entries == 1
    assert (cold.program_hits, cold.program_misses) == (0, 1)
    assert again.fingerprint() == program.fingerprint()

    warm = ExperimentCache(tmp_path)
    loaded, _ = cached_program(scheme, graph, warm)
    assert (warm.program_hits, warm.program_misses, warm.degraded_entries) == (1, 0, 0)
    assert loaded.to_bytes() == program.to_bytes()


def test_in_memory_cache_has_no_artifact_path():
    cache = ExperimentCache(None)
    program = _next_hop_program()
    key = cache.key("program", "memory-only")
    assert cache.program_store is None
    cache.store_program_entry(key, program)
    found, loaded = cache.load_program_entry(key)
    assert found and loaded is program
