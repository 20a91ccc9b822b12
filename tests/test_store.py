"""Tests for the content-addressed program store (`repro.store`).

Four layers:

* **Round trips** — programs and verdicts survive ``put``/``get``, across
  store instances (cross-run persistence), and two keys whose compiles
  produce the same program share one content-addressed object.  A put
  serialises once, recreates removed directories, and a failed object
  write leaves no trace.
* **Concurrency** — two processes storing the same fingerprint never tear
  an object, and a reader tails manifest lines appended by another store
  instance mid-run; partially-written manifest lines stay unread instead
  of misparsing once.  Interleaved writers agree on file order, a
  store never reads back its own appends, and a reader re-reads a
  manifest that another instance's ``gc`` replaced or that shrank.
* **Eviction** — ``gc`` removes orphans, respects a ``max_bytes`` bound in
  LRU order, never leaves a manifest record pointing at a deleted object
  (the closure invariant), and every survivor still passes a strict
  ``verify=True`` load.
* **Degradation** — corrupt objects and corrupt manifest lines warn, count
  in ``degraded``, and degrade to misses; a content-address mismatch on
  load raises before any payload is trusted.  The ``verify=True`` gate
  (``verify_structure``, any issue fatal) degrades exactly the corrupted programs
  that the full ``verify_program`` rejects (or reports an issue for).
"""

from __future__ import annotations

import dataclasses
import errno
import json
import multiprocessing
import os
import shutil
import warnings
from concurrent.futures import ProcessPoolExecutor
from typing import Optional

import numpy as np
import pytest

from repro.graphs import generators
from repro.routing.landmark import CowenLandmarkScheme
from repro.routing.program import (
    DROPPED,
    MISDELIVER,
    HeaderStateProgram,
    NextHopProgram,
    RoutingProgram,
    load_program,
)
from repro.routing.tables import ShortestPathTableScheme
from repro.routing.verify import ProgramVerificationError, verify_program
from repro.store import (
    ProgramStore,
    StoreRecord,
    VERDICT_INAPPLICABLE,
    default_store_root,
)


def _program(n=10, seed=2):
    graph = generators.random_connected_graph(n, extra_edge_prob=0.2, seed=seed)
    return ShortestPathTableScheme().build(graph).compile_program()


def _put_from_subprocess(payload):
    """Top-level worker: store a freshly-compiled program (picklable entry)."""
    root, key, n, seed = payload
    store = ProgramStore(root)
    record = store.put(key, _program(n=n, seed=seed))
    return record.object_id


def _append_from_subprocess(payload):
    """Top-level worker: interleave puts and verdicts; return what it sees."""
    root, writer, count = payload
    store = ProgramStore(root)
    program = _program(n=9, seed=writer)
    for i in range(count):
        store.put(f"program-{writer}-{i}", program)
        store.put_verdict(f"verdict-{writer}-{i}", f"refused by writer {writer}")
    return store.records()


# ----------------------------------------------------------------------
# layout and root resolution
# ----------------------------------------------------------------------
def test_default_store_root_honours_environment(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_STORE", str(tmp_path / "elsewhere"))
    assert default_store_root() == tmp_path / "elsewhere"
    monkeypatch.delenv("REPRO_STORE")
    assert default_store_root().name == "repro"
    assert default_store_root().parent.name == ".cache"


def test_object_paths_are_fanned_out_by_prefix(tmp_path):
    store = ProgramStore(tmp_path)
    path = store.object_path("abcdef0123")
    assert path == tmp_path / "objects" / "ab" / "abcdef0123.rpg"


# ----------------------------------------------------------------------
# round trips
# ----------------------------------------------------------------------
def test_put_get_round_trip(tmp_path):
    store = ProgramStore(tmp_path)
    program = _program()
    record = store.put("cell-1", program, graph_fp="gfp", scheme_fp="sfp")
    assert record.object_id == program.fingerprint()
    assert record.kind == program.kind
    assert record.n == program.n
    assert record.nbytes > 0
    assert record.graph == "gfp"
    assert record.scheme == "sfp"
    found, loaded = store.get("cell-1")
    assert found
    assert isinstance(loaded, RoutingProgram)
    assert loaded.fingerprint() == program.fingerprint()
    # Strict verification also passes on an intact object.
    found, loaded = store.get("cell-1", verify=True)
    assert found and loaded.fingerprint() == program.fingerprint()
    assert store.degraded == 0


def test_missing_key_is_a_silent_miss(tmp_path):
    store = ProgramStore(tmp_path)
    assert store.get("never-stored") == (False, None)
    assert store.lookup("never-stored") is None
    assert store.degraded == 0


def test_identical_programs_share_one_object(tmp_path):
    store = ProgramStore(tmp_path)
    first = store.put("key-a", _program(seed=7))
    second = store.put("key-b", _program(seed=7))
    assert first.object_id == second.object_id
    objects = list((tmp_path / "objects").glob("??/*.rpg"))
    assert len(objects) == 1
    # Both keys resolve, through the one shared object.
    assert store.get("key-a")[0] and store.get("key-b")[0]
    assert len(store.records()) == 2


def test_re_put_same_key_is_idempotent_and_latest_wins(tmp_path):
    store = ProgramStore(tmp_path)
    store.put("key", _program(seed=1))
    replacement = _program(seed=9)
    store.put("key", replacement)
    found, loaded = store.get("key")
    assert found and loaded.fingerprint() == replacement.fingerprint()
    # records() collapses to the latest record per key.
    assert [r.object_id for r in store.records() if r.key == "key"] == [
        replacement.fingerprint()
    ]


def test_verdicts_round_trip_without_objects(tmp_path):
    store = ProgramStore(tmp_path)
    record = store.put_verdict("cell-x", "graph too dense", graph_fp="g", scheme_fp="s")
    assert record.verdict == VERDICT_INAPPLICABLE
    assert record.object_id is None
    assert store.get("cell-x") == (True, ("inapplicable", "graph too dense"))
    assert not (tmp_path / "objects").exists() or not list(
        (tmp_path / "objects").glob("??/*.rpg")
    )


def test_store_persists_across_instances(tmp_path):
    program = _program()
    ProgramStore(tmp_path).put("cell", program)
    reopened = ProgramStore(tmp_path)
    found, loaded = reopened.get("cell", verify=True)
    assert found and loaded.fingerprint() == program.fingerprint()
    info = reopened.info()
    assert info["records"] == 1
    assert info["programs"] == 1
    assert info["verdicts"] == 0
    assert info["objects"] == 1
    assert info["object_bytes"] > 0
    assert info["degraded"] == 0


def test_put_serialises_a_program_once(tmp_path, monkeypatch):
    program = _program()
    expected = program.to_bytes()
    serialised = []
    original = NextHopProgram.to_bytes

    def counting(self):
        serialised.append(self)
        return original(self)

    monkeypatch.setattr(NextHopProgram, "to_bytes", counting)
    store = ProgramStore(tmp_path)
    record = store.put("cell", program)
    assert len(serialised) == 1
    again = store.put("again", program)  # the object exists: bytes only hashed
    assert len(serialised) == 2
    monkeypatch.undo()
    # The address is the sha256 of the written bytes; nbytes their length.
    path = store.object_path(record.object_id)
    assert path.read_bytes() == expected
    assert record.object_id == again.object_id == program.fingerprint()
    assert record.nbytes == again.nbytes == len(expected) == path.stat().st_size


def test_removed_fan_out_and_root_are_recreated(tmp_path):
    root = tmp_path / "store"
    store = ProgramStore(root)
    first = store.put("a", _program(seed=1))
    shutil.rmtree(store.object_path(first.object_id).parent)
    store.put("a-again", _program(seed=1))  # same object, its fan-out is gone
    assert store.get("a-again", verify=True)[0]
    shutil.rmtree(root)
    third = store.put("b", _program(n=12, seed=3))
    assert store.get("b", verify=True)[0]
    # The recreated manifest holds only what was appended after the removal.
    assert store.records() == ProgramStore(root).records() == [third]
    assert store.degraded == 0


@pytest.mark.parametrize("short", [False, True], ids=["failing", "short"])
def test_failed_object_write_leaves_nothing_behind(tmp_path, monkeypatch, short):
    store = ProgramStore(tmp_path)
    store.put("before", _program(seed=1))
    manifest = store.manifest_path.read_bytes()
    offset = store._offset
    real_write = os.write
    calls = []

    def disk_full(fd, data):
        calls.append(len(data))
        if short and len(calls) == 1:
            return real_write(fd, bytes(data[: len(data) // 2]))
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    program = _program(n=12, seed=4)
    monkeypatch.setattr(os, "write", disk_full)
    with pytest.raises(OSError) as failure:
        store.put("after", program)
    monkeypatch.undo()
    assert failure.value.errno == errno.ENOSPC
    assert len(calls) == 1 + short
    assert not [p for p in tmp_path.rglob("*") if p.name.endswith(".tmp")]
    assert not store.object_path(program.fingerprint()).exists()
    assert store.manifest_path.read_bytes() == manifest
    assert store._offset == offset
    assert store.lookup("after") is None
    # The store still works once the disk has room again.
    assert store.put("after", program).nbytes == len(program.to_bytes())
    assert store.get("after", verify=True)[0]


# ----------------------------------------------------------------------
# concurrency
# ----------------------------------------------------------------------
def test_concurrent_same_fingerprint_writers_never_tear(tmp_path):
    payloads = [(str(tmp_path), f"writer-{i}", 12, 4) for i in range(4)]
    with ProcessPoolExecutor(max_workers=2) as pool:
        object_ids = list(pool.map(_put_from_subprocess, payloads))
    assert len(set(object_ids)) == 1  # same compile -> same content address
    store = ProgramStore(tmp_path)
    assert len(store.records()) == 4
    for i in range(4):
        found, loaded = store.get(f"writer-{i}", verify=True)
        assert found and loaded.fingerprint() == object_ids[0]
    assert store.degraded == 0


def test_reader_tails_entries_appended_by_another_instance(tmp_path):
    reader = ProgramStore(tmp_path)
    assert reader.get("late") == (False, None)  # prime the (empty) index
    writer = ProgramStore(tmp_path)
    program = _program()
    writer.put("late", program)
    found, loaded = reader.get("late")  # miss refreshes from the manifest tail
    assert found and loaded.fingerprint() == program.fingerprint()


def test_partial_manifest_line_is_not_misparsed(tmp_path):
    store = ProgramStore(tmp_path)
    store.put("whole", _program())
    # Simulate a concurrent writer caught mid-append: no trailing newline.
    with open(store.manifest_path, "ab") as handle:
        handle.write(b'{"key": "torn", "object_id": "deadbeef"')
    reader = ProgramStore(tmp_path)
    assert reader.lookup("whole") is not None
    assert reader.lookup("torn") is None  # unread, not degraded
    assert reader.degraded == 0
    # Once the line completes, the next refresh picks it up.
    with open(store.manifest_path, "ab") as handle:
        handle.write(b"}\n")
    assert reader.lookup("torn") is not None


def test_interleaved_instances_keep_file_order(tmp_path):
    a = ProgramStore(tmp_path)
    b = ProgramStore(tmp_path)
    a.put("k1", _program(seed=1))
    b.put("k2", _program(n=11, seed=2))
    a.put("k3", _program(n=12, seed=3))
    assert a.lookup("k2") is not None
    fresh = ProgramStore(tmp_path)
    assert [r.key for r in fresh.records()] == ["k1", "k2", "k3"]
    assert a.records() == fresh.records()
    # The latest record in file order wins, whichever instance wrote it.
    b.put("k1", _program(n=13, seed=4))
    a.put("k3", _program(n=14, seed=5))
    assert a.records() == b.records() == ProgramStore(tmp_path).records()


def test_concurrent_appenders_each_see_a_prefix_of_file_order(tmp_path):
    # More writers than cores: appends interleave, so most puts land behind
    # other writers' lines and fold them in before their own.
    writers, count = 4, 25
    payloads = [(str(tmp_path), writer, count) for writer in range(writers)]
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=writers, mp_context=context) as pool:
        futures = [pool.submit(_append_from_subprocess, p) for p in payloads]
        seen = [future.result(timeout=120) for future in futures]
    fresh = ProgramStore(tmp_path).records()
    assert len(fresh) == writers * count * 2
    for writer, records in enumerate(seen):
        # A writer's index is the manifest up to its last read, in file order.
        assert records == fresh[: len(records)]
        assert {f"program-{writer}-{i}" for i in range(count)} <= {r.key for r in records}


def test_a_miss_without_manifest_growth_does_not_open_it(tmp_path, monkeypatch):
    import repro.store

    store = ProgramStore(tmp_path)
    store.put("own", _program())
    other = ProgramStore(tmp_path)
    assert other.lookup("own") is not None  # caught up: its puts read nothing
    opened = []

    def spying_open(*args, **kwargs):
        opened.append(args[0])
        return open(*args, **kwargs)

    monkeypatch.setattr(repro.store, "open", spying_open, raising=False)
    assert store.lookup("absent") is None
    assert store.get("absent") == (False, None)
    assert store.lookup("own") is not None  # its own append, never read back
    assert opened == []
    other.put("foreign", _program(seed=5))
    assert opened == []
    assert store.lookup("foreign") is not None  # growth: the miss re-tails
    assert len(opened) == 1


def test_a_reader_re_reads_a_manifest_another_instance_gc_replaced(tmp_path):
    # A's read mark is a byte offset into the manifest file it read.  B's
    # gc replaces that file with a compacted one, which C then grows back
    # to about the mark: A must notice the new file, not resume mid-line.
    a = ProgramStore(tmp_path)
    for i in range(6):
        a.put(f"a-{i % 2}", _program(seed=i % 2))  # six lines, two live records
    assert ProgramStore(tmp_path).gc().records_kept == 2
    c = ProgramStore(tmp_path)
    for i in range(4):
        c.put(f"c-{i}", _program(seed=2 + i))
    assert a.lookup("c-0") is not None
    assert a.degraded == 0
    assert a.records() == ProgramStore(tmp_path).records()


def test_a_reader_re_reads_a_manifest_shrunk_in_place(tmp_path):
    a = ProgramStore(tmp_path)
    for i in range(3):
        a.put(f"k-{i}", _program(seed=i))
    first = a.manifest_path.read_bytes().split(b"\n")[0] + b"\n"
    with open(a.manifest_path, "r+b") as handle:  # same file, shorter
        handle.truncate(len(first))
    assert a.lookup("absent") is None
    assert [r.key for r in a.records()] == ["k-0"]
    assert a.degraded == 0


# ----------------------------------------------------------------------
# eviction
# ----------------------------------------------------------------------
def _closure_holds(store):
    """Post-gc invariant: records and disk objects reference each other."""
    disk = {p.stem for p in (store.root / "objects").glob("??/*.rpg")}
    referenced = {r.object_id for r in store.records() if r.object_id is not None}
    return disk == referenced


def test_gc_removes_orphans_and_keeps_live_objects(tmp_path):
    store = ProgramStore(tmp_path)
    store.put("live", _program(seed=1))
    orphan = store.object_path("ff" + "0" * 62)
    orphan.parent.mkdir(parents=True, exist_ok=True)
    orphan.write_bytes(b"stale object no record references")
    stats = store.gc()
    assert stats.orphans_removed == 1
    assert stats.live_objects == 1
    assert not orphan.exists()
    assert store.get("live", verify=True)[0]
    assert _closure_holds(store)


def test_gc_respects_max_bytes_and_evicts_lru_first(tmp_path):
    store = ProgramStore(tmp_path)
    records = {}
    for i, seed in enumerate([1, 2, 3]):
        records[i] = store.put(f"cell-{i}", _program(n=10 + i, seed=seed))
    assert len({r.object_id for r in records.values()}) == 3
    # Age the objects oldest-first, then touch cell-0 via a hit: LRU order
    # becomes cell-1 (coldest), cell-2, cell-0 (hottest).
    for i in range(3):
        os.utime(store.object_path(records[i].object_id), (100 + i, 100 + i))
    assert store.get("cell-0")[0]  # hit refreshes mtime
    keep_bytes = records[0].nbytes + records[2].nbytes
    stats = store.gc(max_bytes=keep_bytes)
    assert stats.evicted_objects == 1
    assert stats.evicted_bytes == records[1].nbytes
    assert stats.live_bytes <= keep_bytes
    assert not store.object_path(records[1].object_id).exists()
    # The evicted object's record went with it: no dangling manifest entry.
    assert store.lookup("cell-1") is None
    assert store.get("cell-1") == (False, None)
    assert _closure_holds(store)
    # Survivors still strict-verify.
    for key in ("cell-0", "cell-2"):
        found, loaded = store.get(key, verify=True)
        assert found and isinstance(loaded, RoutingProgram)
    assert store.degraded == 0


def test_gc_never_evicts_live_objects_without_a_bound(tmp_path):
    store = ProgramStore(tmp_path)
    for i in range(3):
        store.put(f"cell-{i}", _program(n=9 + i, seed=i))
    store.put_verdict("refused", "no compact labels")
    stats = store.gc()
    assert stats.evicted_objects == 0
    assert stats.live_objects == 3
    assert stats.records_kept == 4  # three programs + the verdict
    for i in range(3):
        assert store.get(f"cell-{i}", verify=True)[0]
    assert store.get("refused") == (True, ("inapplicable", "no compact labels"))
    assert _closure_holds(store)


def test_gc_compacts_superseded_manifest_appends(tmp_path):
    store = ProgramStore(tmp_path)
    for _ in range(5):
        store.put("same-key", _program(seed=3))  # five appends, one live record
    before = store.manifest_path.stat().st_size
    stats = store.gc()
    assert stats.records_kept == 1
    assert store.manifest_path.stat().st_size < before
    assert len(store.manifest_path.read_bytes().strip().split(b"\n")) == 1
    assert store.get("same-key", verify=True)[0]


def _asdict_manifest_line(record):
    """The manifest line as first encoded: ``asdict`` minus the unset fields."""
    payload = {k: v for k, v in dataclasses.asdict(record).items() if v is not None}
    return (json.dumps(payload, sort_keys=True) + "\n").encode()


@dataclasses.dataclass(frozen=True)
class _Row:
    scheme: str
    n: int
    stretch: float
    note: Optional[str] = None


def test_manifest_bytes_equal_the_asdict_encoding(tmp_path):
    # store_bytes counts the manifest, so appends and gc rewrites keep the
    # exact bytes of the original encoding (a row's own None fields stay).
    store = ProgramStore(tmp_path)
    appended = [
        store.put("prog", _program(), graph_fp="g", scheme_fp="s"),
        store.put_verdict("verdict", "graph too dense"),
        store.put_row("row", "table1", _Row("tables", 10, 1.5), graph_fp="g"),
        store.put("prog", _program(seed=3)),
    ]
    expected = b"".join(_asdict_manifest_line(r) for r in appended)
    assert store.manifest_path.read_bytes() == expected
    store.gc()
    expected = b"".join(_asdict_manifest_line(r) for r in store.records())
    assert len(store.records()) == 3
    assert store.manifest_path.read_bytes() == expected


def test_gc_reclaims_records_of_a_superseded_cache_schema(tmp_path, monkeypatch):
    import repro.store
    from repro.analysis.runner import ShardedRunner
    from repro.sim.registry import graph_families

    families = graph_families("small")
    both = {name: families[name] for name in ("petersen", "cycle")}
    ShardedRunner(tmp_path, processes=1).program_sweep(families=both)
    store = ProgramStore(tmp_path)
    old = store.records()
    old_objects = {r.object_id for r in old if r.object_id is not None}
    assert any(r.verdict for r in old) and old_objects
    # Under the schema that wrote them every record is live.
    assert store.gc().orphans_removed == 0 and len(store.records()) == len(old)

    monkeypatch.setattr(repro.store, "CACHE_SCHEMA", repro.store.CACHE_SCHEMA + 1)
    ShardedRunner(tmp_path, processes=1).program_sweep(families={"petersen": both["petersen"]})
    manual = store.put("hand-written", _program(n=13, seed=4))  # no provenance: kept
    store = ProgramStore(tmp_path)
    current = [r for r in store.records() if r.key not in {o.key for o in old}]
    current_objects = {r.object_id for r in current if r.object_id is not None}
    superseded = old_objects - current_objects
    assert superseded  # the cycle's programs were not recompiled under the bump
    stats = store.gc()
    assert stats.orphans_removed == len(superseded)
    for object_id in superseded:
        assert not store.object_path(object_id).exists()
    assert {r.key for r in store.records()} == {r.key for r in current}
    for record in current:
        if record.key == manual.key:
            continue
        assert record.key == repro.store.cache_key("program", record.graph, record.scheme)
        found, _ = store.get(record.key, verify=record.object_id is not None)
        assert found
    assert store.get("hand-written", verify=True)[0]
    assert _closure_holds(store)


def test_gc_removes_the_legacy_result_pickles_of_an_older_store(tmp_path):
    # An older version kept result rows and surviving-graph distances as
    # <root>/<key[:2]>/<key>.pkl beside the store; nothing reads them now.
    import pickle

    store = ProgramStore(tmp_path)
    live = store.put("cell", _program())
    legacy = []
    for key in ("ab" + "0" * 62, "ab" + "1" * 62, "cd" + "2" * 62):
        path = tmp_path / key[:2] / f"{key}.pkl"
        path.parent.mkdir(exist_ok=True)
        path.write_bytes(pickle.dumps(np.zeros((4, 4), dtype=np.int64)))
        legacy.append(path)
    # Pickles outside that layout are not the store's: gc leaves them.
    foreign = [
        tmp_path / "ef" / "notes.pkl",  # not a sha256 hex stem
        tmp_path / "ef" / ("ab" + "3" * 62 + ".pkl"),  # folder is not key[:2]
        tmp_path / "AB" / ("AB" + "4" * 62 + ".pkl"),  # not lower-case hex
    ]
    for path in foreign:
        path.parent.mkdir(exist_ok=True)
        path.write_bytes(b"not ours")
    stats = ProgramStore(tmp_path).gc()
    assert stats.legacy_removed == 3
    assert (stats.orphans_removed, stats.records_kept) == (0, 1)
    assert not any(path.exists() for path in legacy)
    assert not (tmp_path / "ab").exists() and not (tmp_path / "cd").exists()
    assert all(path.read_bytes() == b"not ours" for path in foreign)
    assert store.object_path(live.object_id).exists()
    assert ProgramStore(tmp_path).gc().legacy_removed == 0


def test_gc_keeps_shared_object_while_any_record_references_it(tmp_path):
    store = ProgramStore(tmp_path)
    shared = store.put("key-a", _program(seed=5))
    store.put("key-b", _program(seed=5))  # same object, second record
    other = store.put("key-c", _program(n=14, seed=6))
    assert shared.object_id != other.object_id
    # A bound that only fits one object must keep the shared one iff it
    # survives LRU; either way no surviving record may dangle.
    os.utime(store.object_path(other.object_id), (100, 100))  # make it coldest
    stats = store.gc(max_bytes=shared.nbytes)
    assert stats.evicted_objects == 1
    assert store.get("key-a")[0] and store.get("key-b")[0]
    assert store.lookup("key-c") is None
    assert _closure_holds(store)


# ----------------------------------------------------------------------
# degradation
# ----------------------------------------------------------------------
def test_corrupt_object_warns_degrades_and_self_heals(tmp_path):
    store = ProgramStore(tmp_path)
    program = _program()
    record = store.put("cell", program)
    path = store.object_path(record.object_id)
    path.write_bytes(b"scribbled over the program artifact")
    with pytest.warns(RuntimeWarning, match="degraded store entry"):
        assert store.get("cell") == (False, None)
    assert store.degraded == 1
    assert not path.exists()  # bad bytes deleted so a re-put heals the slot
    store.put("cell", program)
    assert store.get("cell", verify=True)[0]


def test_bitflip_is_caught_by_content_address_verification(tmp_path):
    store = ProgramStore(tmp_path)
    record = store.put("cell", _program())
    path = store.object_path(record.object_id)
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0xFF  # flip payload bits without breaking the container
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="content-address mismatch"):
        load_program(path, expected_fingerprint=record.object_id)
    with pytest.warns(RuntimeWarning, match="degraded store entry"):
        assert store.get("cell", verify=True) == (False, None)
    assert store.degraded == 1


def _gate_corpus():
    """``(name, program, truncate)``: intact programs and corruptions of them.

    Some corruptions are structural (out-of-range entries), some semantic
    (a broken absorbing destination, a live initial diagonal) and some
    legal (a successor flipped to another node or state, a sentinel): the
    gate must tell them apart exactly as the full strict verifier does.
    """
    graph = generators.random_connected_graph(10, extra_edge_prob=0.2, seed=2)
    nh = ShortestPathTableScheme().build(graph).compile_program()
    n = nh.n

    def next_hop(x, d, value):
        table = np.array(nh.next_node, dtype=np.int64)
        table[x, d] = value
        return nh.with_next_node(table)

    yield "next-hop-intact", nh, False
    yield "next-hop-truncated", nh, True
    yield "next-hop-flipped-successor", next_hop(0, 5, (int(nh.next_node[0, 5]) + 1) % n), False
    yield "next-hop-misdeliver", next_hop(1, 4, MISDELIVER), False
    yield "next-hop-dropped", next_hop(1, 4, DROPPED), False
    yield "next-hop-node-out-of-range", next_hop(2, 5, n + 7), False
    yield "next-hop-stray-minus-one", next_hop(2, 5, -1), False
    yield "next-hop-below-sentinels", next_hop(2, 5, -4), False
    yield "next-hop-broken-absorbing", next_hop(3, 3, int(nh.next_node[0, 3])), False

    hs = CowenLandmarkScheme(seed=0, rewriting=True).build(graph).compile_program()
    fields = dict(succ=hs.succ, deliver=hs.deliver, node_of=hs.node_of, initial=hs.initial)
    moving = int(np.flatnonzero(~np.asarray(hs.deliver))[0])

    def header_state(name, index, value):
        array = np.array(fields[name], copy=True)
        array[index] = value
        return HeaderStateProgram(**{**fields, name: array})

    yield "header-state-intact", hs, False
    yield "header-state-truncated", hs, True
    yield "header-state-flipped-successor", header_state(
        "succ", moving, (int(hs.succ[moving]) + 1) % hs.num_states
    ), False
    yield "header-state-successor-out-of-range", header_state("succ", moving, hs.num_states), False
    yield "header-state-node-out-of-range", header_state("node_of", moving, n), False
    yield "header-state-initial-out-of-range", header_state("initial", (0, 1), hs.num_states), False
    yield "header-state-live-diagonal", header_state("initial", (2, 2), int(hs.initial[2, 3])), False


def _full_gate_rejects(path, object_id):
    """The gate as it was: content address, then the full verifier, any issue fatal."""
    try:
        report = verify_program(load_program(path, expected_fingerprint=object_id))
    except (OSError, ValueError, ProgramVerificationError):
        return True
    return bool(report.issues)


def test_verify_gate_rejects_exactly_what_the_full_strict_verifier_rejects(tmp_path):
    store = ProgramStore(tmp_path)
    rejected = []
    for name, program, truncate in _gate_corpus():
        record = store.put(name, program)
        path = store.object_path(record.object_id)
        if truncate:
            path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        expect_reject = _full_gate_rejects(path, record.object_id)
        degraded = store.degraded
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            found, loaded = store.get(name, verify=True)
        assert found != expect_reject, name
        assert path.exists() != expect_reject, name
        assert store.degraded == degraded + expect_reject, name
        if found:
            assert loaded.fingerprint() == record.object_id
        else:
            rejected.append(name)
        # Heal the slot for the next case sharing the object.
        path.unlink(missing_ok=True)
    assert sorted(rejected) == sorted(
        [
            "next-hop-truncated",
            "next-hop-node-out-of-range",
            "next-hop-stray-minus-one",
            "next-hop-below-sentinels",
            "next-hop-broken-absorbing",
            "header-state-truncated",
            "header-state-successor-out-of-range",
            "header-state-node-out-of-range",
            "header-state-initial-out-of-range",
            "header-state-live-diagonal",
        ]
    )


def test_corrupt_manifest_line_skips_only_that_record(tmp_path):
    store = ProgramStore(tmp_path)
    store.put("good-1", _program(seed=1))
    with open(store.manifest_path, "ab") as handle:
        handle.write(b"{this is not json}\n")
        handle.write(b'["not", "an", "object"]\n')
    store.put("good-2", _program(n=11, seed=2))
    reader = ProgramStore(tmp_path)
    with pytest.warns(RuntimeWarning, match="unreadable line"):
        records = reader.records()
    assert {r.key for r in records} == {"good-1", "good-2"}
    assert reader.degraded == 2
    assert reader.get("good-1")[0] and reader.get("good-2")[0]


def test_manifest_records_with_unknown_fields_still_load(tmp_path):
    store = ProgramStore(tmp_path)
    record = store.put("cell", _program())
    line = json.loads(store.manifest_path.read_bytes().splitlines()[0])
    line["future_field"] = {"nested": True}  # a newer writer's extension
    with open(store.manifest_path, "ab") as handle:
        handle.write((json.dumps(line) + "\n").encode())
    reader = ProgramStore(tmp_path)
    assert reader.lookup("cell") == record
    assert reader.degraded == 0


def test_verify_objects_reports_per_record_health(tmp_path):
    store = ProgramStore(tmp_path)
    good = store.put("good", _program(seed=1))
    bad = store.put("bad", _program(n=13, seed=2))
    store.put_verdict("refused", "partial scheme")
    store.object_path(bad.object_id).write_bytes(b"garbage")
    with pytest.warns(RuntimeWarning):
        health = {record.key: ok for record, ok in store.verify_objects()}
    assert health == {"good": True, "bad": False}  # verdicts are skipped
    assert store.degraded == 1
    assert good.object_id is not None


def test_records_are_plain_dataclasses_for_cli_serialisation(tmp_path):
    store = ProgramStore(tmp_path)
    store.put("cell", _program())
    (record,) = store.records()
    assert isinstance(record, StoreRecord)
    payload = json.dumps({k: v for k, v in record.__dict__.items()})
    assert json.loads(payload)["key"] == "cell"
