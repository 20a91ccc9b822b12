"""Content-addressed store for compiled routing programs.

Every workload since the compile-once refactor runs off sha256-fingerprinted
:class:`~repro.routing.program.RoutingProgram` artifacts, but until now those
artifacts lived in hand-versioned per-directory caches: keyed files with no
manifest, no eviction, and no cross-run identity.  This module is the
promotion of that cache into a real registry:

* **Objects are content-addressed.**  A program's bytes live exactly once at
  ``objects/<fp[:2]>/<fp>.rpg`` where ``fp`` is the sha256 of the bytes
  written — the program's canonical ``to_bytes`` form, serialised once per
  put, so ``fp`` equals its
  :meth:`~repro.routing.program.RoutingProgram.fingerprint`.  Two cache keys
  whose compiles produce the same program (a churn delta patched back to a
  previously-seen snapshot, two scheme configs lowering identically) share
  one object; writing an object that already exists is a no-op.  Writes are
  atomic (:func:`~repro.routing.program.write_atomic`, the writer
  :func:`~repro.routing.program.save_program` uses too: temp file +
  ``os.replace``), so concurrent writers — even two processes storing the
  same fingerprint — can never produce a torn object.  The root and each
  fan-out directory are created by the first write that finds them
  missing (the ``FileNotFoundError`` of its open, retried once), so a
  store makes each once, and again only if it vanished, not on every put.

* **Keys live in a JSONL manifest.**  ``manifest.jsonl`` is an append-only
  log of one JSON object per line mapping a lookup key (the runner's
  ``(CACHE_SCHEMA, "program", graph fp, scheme fp)`` hash) to its object id
  plus graph/scheme metadata — or to an ``"inapplicable"`` verdict for a
  scheme whose build refused the graph, so warm sweeps never re-attempt a
  refused build — or to a **row**: a measured result (a Table 1 cell, a
  conformance report, an E7/E8 measurement) as its kind plus its fields,
  rebuilt into the caller's frozen dataclass on a hit.  Appends are single
  ``O_APPEND`` writes (atomic for manifest-sized lines on POSIX) and
  readers tail the file incrementally, so shard workers pick up each
  other's entries mid-sweep without rescanning.  A store does not re-read
  its own appends: a line that lands exactly where its last read ended
  joins its index directly, and a line preceded by other writers' lines
  folds them in first, in file order.  A lookup miss re-tails the manifest
  only when it has grown past what was read.
  The latest record for a key wins.  A corrupt or truncated line degrades to
  a skipped record with a :class:`RuntimeWarning` naming the file and line —
  never an exception, never a silent global miss; so does a row record
  whose fields no longer rebuild its dataclass.

* **Integrity is verifiable.**  ``get(key, verify=True)`` re-hashes the
  mapped object against its content address and runs the structural check
  (:func:`repro.routing.verify.verify_structure`, any issue fatal) over the
  decoded program; an object corrupted on disk degrades to a miss, is
  deleted (the next ``put`` rewrites correct bytes at the same address), and
  is counted in :attr:`ProgramStore.degraded`.

* **Eviction is explicit, size-bounded, and LRU.**  :meth:`ProgramStore.gc`
  first removes orphaned objects (on disk but referenced by no manifest
  record), then — when ``max_bytes`` is given — evicts least-recently-used
  objects (every hit touches the object's mtime) together with *all* manifest
  records naming them until the surviving objects fit the bound, and finally
  rewrites the manifest atomically to exactly the surviving records.  The
  invariant: after ``gc``, every manifest-referenced object exists on disk,
  and everything on disk is manifest-referenced.

The store root defaults to ``~/.cache/repro``, overridable with the
``REPRO_STORE`` environment variable (the ``repro`` CLI adds a ``--store``
flag on top); :class:`~repro.analysis.runner.ExperimentCache` roots a store
at its cache directory, which is how ``ShardedRunner`` sweeps, churn deltas,
and mmap program loading all read and write through this module.  See
``docs/architecture.md`` for the dataflow and ``docs/cli.md`` for the
``repro store {ls,gc,info}`` surface.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import tempfile
import warnings
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.routing.program import (
    GenericProgram,
    RoutingProgram,
    load_program,
    write_atomic,
)
from repro.routing.verify import ProgramVerificationError, verify_structure

__all__ = [
    "CACHE_SCHEMA",
    "GcStats",
    "ProgramStore",
    "StoreRecord",
    "cache_key",
    "default_store_root",
]

#: Environment variable overriding the default store root.
STORE_ENV = "REPRO_STORE"

#: Verdict tag for cached build refusals of partial schemes.
VERDICT_INAPPLICABLE = "inapplicable"

#: Version tag baked into every cache key; bump on any change to what a
#: cached value means (fields, measurement semantics) to orphan old
#: entries instead of replaying them.  3: compile-once measurement cells
#: (simulation and memory scored against the cached RoutingProgram).
#: 4: program format version 3 (header-state programs store transitions
#: only).  5: result rows are manifest records (no pickles beside the
#: store).  :meth:`ProgramStore.gc` drops the records an older schema left.
CACHE_SCHEMA = 5


def cache_key(*parts: object) -> str:
    """Hash key of ``parts`` (strings/ints/fingerprints) under :data:`CACHE_SCHEMA`."""
    return hashlib.sha256(repr((CACHE_SCHEMA,) + parts).encode()).hexdigest()


def default_store_root() -> Path:
    """The store root: ``$REPRO_STORE`` if set, else ``~/.cache/repro``."""
    env = os.environ.get(STORE_ENV)
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro"


@dataclass(frozen=True)
class StoreRecord:
    """One manifest entry: a lookup key bound to an object, a verdict or a row.

    ``object_id`` is the referenced program's content fingerprint (``None``
    for verdict and row records); ``graph`` / ``scheme`` carry the cell
    fingerprints when the writer knew them, so ``repro store ls`` can say
    *what* an object is without decoding it.  A row record holds a result's
    fields in ``row``, its row kind in ``kind`` and the :data:`CACHE_SCHEMA`
    it was measured under in ``schema``.
    """

    key: str
    object_id: Optional[str] = None
    kind: Optional[str] = None
    n: Optional[int] = None
    nbytes: int = 0
    graph: Optional[str] = None
    scheme: Optional[str] = None
    verdict: Optional[str] = None
    reason: Optional[str] = None
    row: Optional[Dict[str, object]] = None
    schema: Optional[int] = None


@dataclass
class GcStats:
    """Outcome of one :meth:`ProgramStore.gc` pass."""

    live_objects: int = 0
    live_bytes: int = 0
    evicted_objects: int = 0
    evicted_bytes: int = 0
    orphans_removed: int = 0
    records_kept: int = 0
    records_dropped: int = 0
    legacy_removed: int = 0


#: Field names of :class:`StoreRecord`: a manifest line's other keys are a
#: newer writer's extensions and are dropped on read.
_RECORD_FIELDS = frozenset(f.name for f in fields(StoreRecord))

#: Flags of a manifest append: one ``O_APPEND`` write per record.
_APPEND_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_APPEND


def _manifest_line(record: StoreRecord) -> bytes:
    """The record's manifest line: its set fields as one sorted-key JSON object.

    Reads the fields off the instance (no :func:`dataclasses.asdict` deep
    copy: a row record's ``row`` is already a plain dict).
    """
    payload = {k: v for k, v in vars(record).items() if v is not None}
    return (json.dumps(payload, sort_keys=True) + "\n").encode()


def _current(record: StoreRecord) -> bool:
    """Whether ``record`` can still be looked up under :data:`CACHE_SCHEMA`."""
    if record.row is not None:
        return record.schema == CACHE_SCHEMA
    if record.graph is None or record.scheme is None:
        return True
    return record.key == cache_key("program", record.graph, record.scheme)


def _is_legacy_pickle(path: Path) -> bool:
    """Whether ``path`` is ``<root>/<key[:2]>/<key>.pkl`` for a sha256 hex key."""
    key = path.stem
    return len(key) == 64 and set(key) <= set("0123456789abcdef") and path.parent.name == key[:2]


class ProgramStore:
    """Content-addressed registry of compiled routing programs.

    Parameters
    ----------
    root:
        Store directory (created on demand).  Objects live under
        ``root/objects``, the key manifest at ``root/manifest.jsonl``.
    """

    def __init__(self, root: Union[str, os.PathLike[str]]) -> None:
        self.root = Path(root)
        #: Corrupt entries (objects or manifest lines) degraded to misses.
        self.degraded = 0
        self._index: Dict[str, StoreRecord] = {}
        #: Manifest bytes folded into the index: every line before it is read.
        self._offset = 0
        #: ``(st_dev, st_ino)`` of the manifest file those bytes came from.
        self._identity: Optional[Tuple[int, int]] = None
        # Hot-path paths as strings, built once.
        self._root = os.fspath(self.root)
        self._manifest = os.path.join(self._root, "manifest.jsonl")
        self._objects = os.path.join(self._root, "objects")

    # -- layout ----------------------------------------------------------
    @property
    def objects_root(self) -> Path:
        """Directory holding the content-addressed ``.rpg`` objects."""
        return Path(self._objects)

    @property
    def manifest_path(self) -> Path:
        """The append-only JSONL key manifest."""
        return Path(self._manifest)

    def object_path(self, object_id: str) -> Path:
        """On-disk path of the object with content fingerprint ``object_id``."""
        return Path(self._object_file(object_id))

    def _object_file(self, object_id: str) -> str:
        return f"{self._objects}{os.sep}{object_id[:2]}{os.sep}{object_id}.rpg"

    # -- manifest --------------------------------------------------------
    def _degrade(self, path: Union[str, Path], detail: object) -> None:
        self.degraded += 1
        warnings.warn(
            f"degraded store entry at {path}: {detail}; treating as a miss",
            RuntimeWarning,
            stacklevel=3,
        )

    def _refresh(self) -> None:
        """Fold manifest lines appended since the last read into the index.

        The manifest is opened only when it has grown past the bytes
        already read (this store's own appends advance that mark as they
        land) or is no longer the file they were read from.  A manifest
        that another instance's :meth:`gc` replaced (a new ``(st_dev,
        st_ino)``), or that shrank below the mark, no longer describes the
        index: the index is dropped and the manifest re-read from its
        start.  Only complete (newline-terminated) lines are consumed: a
        line still being appended by a concurrent writer stays unread until
        its terminator lands, so the tail is re-examined on the next
        refresh instead of being misparsed once.
        """
        manifest = self._manifest
        try:
            stat = os.stat(manifest)
            if (stat.st_dev, stat.st_ino) == self._identity and stat.st_size == self._offset:
                return
            with open(manifest, "rb") as handle:
                stat = os.fstat(handle.fileno())
                identity = (stat.st_dev, stat.st_ino)
                if identity != self._identity or stat.st_size < self._offset:
                    self._index.clear()
                    self._offset = 0
                    self._identity = identity
                handle.seek(self._offset)
                chunk = handle.read()
        except FileNotFoundError:
            return
        except OSError as exc:
            self._degrade(manifest, exc)
            return
        complete, _, partial = chunk.rpartition(b"\n")
        if not complete and partial:
            return
        self._offset += len(complete) + 1
        for line in complete.split(b"\n"):
            if not line.strip():
                continue
            try:
                raw = json.loads(line)
                if not isinstance(raw, dict):
                    raise TypeError("manifest line is not an object")
                record = StoreRecord(**{k: v for k, v in raw.items() if k in _RECORD_FIELDS})
                if not isinstance(record.key, str):
                    raise TypeError("manifest record key must be a string")
            except (TypeError, ValueError) as exc:
                self._degrade(manifest, f"unreadable line ({exc!r})")
                continue
            self._index[record.key] = record

    def _append(self, record: StoreRecord) -> None:
        """Append ``record``'s line in one ``O_APPEND`` write.

        When the line landed exactly at the read mark of the file already
        read, nothing foreign lies before it: the mark moves past it and
        the record joins the index without the manifest being read back.
        Otherwise other writers' lines precede it (or the manifest was
        replaced or recreated), and a refresh folds them and this line in,
        in file order (the latest record for a key wins; keys keep their
        first-seen order).  A missing root is created on the open's
        ``FileNotFoundError``.
        """
        line = _manifest_line(record)
        try:
            fd = os.open(self._manifest, _APPEND_FLAGS, 0o644)
        except FileNotFoundError:
            os.makedirs(self._root, exist_ok=True)
            fd = os.open(self._manifest, _APPEND_FLAGS, 0o644)
        try:
            written = os.write(fd, line)
            end = os.lseek(fd, 0, os.SEEK_CUR)
            stat = os.fstat(fd)
        finally:
            os.close(fd)
        if written != len(line):
            raise OSError(errno.EIO, "short manifest append", self._manifest)
        start = end - written
        if (stat.st_dev, stat.st_ino) == self._identity and start == self._offset:
            self._offset = end
            self._index[record.key] = record
            return
        if start < self._offset:
            # Rewritten shorter in place: what was read no longer describes it.
            self._identity = None
        self._refresh()

    def lookup(self, key: str) -> Optional[StoreRecord]:
        """The latest manifest record for ``key``, or ``None``.

        Misses re-tail the manifest first, so entries appended by other
        processes since the last read are always visible; a miss on a
        manifest that has not grown past the last read opens nothing.
        """
        record = self._index.get(key)
        if record is None:
            self._refresh()
            record = self._index.get(key)
        return record

    def records(self) -> List[StoreRecord]:
        """Live records (latest per key), in first-seen key order."""
        self._refresh()
        return list(self._index.values())

    # -- put/get ---------------------------------------------------------
    def put(
        self,
        key: str,
        program: RoutingProgram,
        graph_fp: Optional[str] = None,
        scheme_fp: Optional[str] = None,
    ) -> StoreRecord:
        """Store ``program`` under ``key``; returns the manifest record.

        The program is serialised once: the object id is the sha256 of
        those bytes and ``nbytes`` their length.  The object write is
        skipped when the content address already exists (content-addressing
        makes re-stores and concurrent same-fingerprint stores idempotent;
        ``nbytes`` is then the existing file's size); the manifest append
        happens either way so the key binding is recorded.  A failing
        object write raises and appends nothing.
        """
        blob = program.to_bytes()
        object_id = hashlib.sha256(blob).hexdigest()
        path = self._object_file(object_id)
        try:
            nbytes = os.stat(path).st_size
        except FileNotFoundError:
            write_atomic(path, blob)
            nbytes = len(blob)
        record = StoreRecord(
            key=key,
            object_id=object_id,
            kind=program.kind,
            n=program.n,
            nbytes=nbytes,
            graph=graph_fp,
            scheme=scheme_fp,
        )
        self._append(record)
        return record

    def put_verdict(
        self,
        key: str,
        reason: str,
        graph_fp: Optional[str] = None,
        scheme_fp: Optional[str] = None,
    ) -> StoreRecord:
        """Record a build-refusal verdict for ``key`` (no object written)."""
        record = StoreRecord(
            key=key,
            graph=graph_fp,
            scheme=scheme_fp,
            verdict=VERDICT_INAPPLICABLE,
            reason=reason,
        )
        self._append(record)
        return record

    def put_row(
        self,
        key: str,
        kind: str,
        row: Any,
        graph_fp: Optional[str] = None,
        scheme_fp: Optional[str] = None,
    ) -> StoreRecord:
        """Record the result row ``row`` (a flat dataclass) of ``kind`` under ``key``."""
        record = StoreRecord(
            key=key,
            kind=kind,
            graph=graph_fp,
            scheme=scheme_fp,
            row=asdict(row),
            schema=CACHE_SCHEMA,
        )
        self._append(record)
        return record

    def get_row(self, key: str, row_type: type) -> Tuple[bool, object]:
        """Look a row record up; ``(found, row_type(**fields))``.

        JSON lists come back as tuples.  A record whose fields do not
        rebuild ``row_type`` (garbled, a missing or an unknown field)
        degrades to a miss, warned and counted in :attr:`degraded`; the
        caller recomputes and its :meth:`put_row` supersedes the record.
        """
        record = self.lookup(key)
        if record is None or record.row is None:
            return False, None
        try:
            values = {
                name: tuple(value) if isinstance(value, list) else value
                for name, value in record.row.items()
            }
            return True, row_type(**values)
        except (AttributeError, TypeError, ValueError) as exc:
            self._degrade(self.manifest_path, f"unusable {record.kind} row ({exc!r})")
            return False, None

    def get(
        self, key: str, verify: bool = False
    ) -> Tuple[bool, Union[RoutingProgram, Tuple[str, str], None]]:
        """Look ``key`` up; ``(found, program-or-verdict-tuple)``.

        Programs come back as zero-copy mmap views
        (:func:`~repro.routing.program.load_program`); verdicts as the
        runner's ``("inapplicable", reason)`` tuples.  ``verify=True``
        checks the object's bytes against its content address and
        checks the decoded program's structure and treats every semantic
        issue as fatal (:func:`~repro.routing.verify.verify_structure`,
        which rejects every program a ``verify_program`` report would
        flag, without resolving fates);
        corruption at either level degrades to a miss (warned and counted
        in :attr:`degraded`) and deletes the bad object so the next store
        rewrites it.  Hits touch the object's mtime — the recency signal
        :meth:`gc` evicts by.
        """
        record = self.lookup(key)
        if record is None:
            return False, None
        if record.verdict is not None:
            return True, (record.verdict, record.reason or "")
        assert record.object_id is not None
        path = self._object_file(record.object_id)
        try:
            program = load_program(
                path, expected_fingerprint=record.object_id if verify else None
            )
        except FileNotFoundError:
            # Evicted by gc (or never synced): an honest miss, not corruption.
            return False, None
        except (OSError, ValueError) as exc:
            self._degrade(path, exc)
            Path(path).unlink(missing_ok=True)
            return False, None
        if verify and not isinstance(program, GenericProgram):
            try:
                issues = verify_structure(program)
                if issues:
                    raise ProgramVerificationError("; ".join(issues))
            except ProgramVerificationError as exc:
                self._degrade(path, exc)
                Path(path).unlink(missing_ok=True)
                return False, None
        try:
            os.utime(path)
        except OSError:
            pass
        return True, program

    # -- maintenance -----------------------------------------------------
    def _disk_objects(self) -> Dict[str, Path]:
        objects: Dict[str, Path] = {}
        if self.objects_root.is_dir():
            for path in sorted(self.objects_root.glob("??/*.rpg")):
                objects[path.stem] = path
        return objects

    def _rewrite_manifest(self, kept: List[StoreRecord]) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=self.root, suffix=".manifest.tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                for record in kept:
                    handle.write(_manifest_line(record))
                handle.flush()
                stat = os.fstat(fd)
            os.replace(tmp_name, self.manifest_path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self._index = {record.key: record for record in kept}
        self._offset = stat.st_size
        self._identity = (stat.st_dev, stat.st_ino)

    def gc(self, max_bytes: Optional[int] = None) -> GcStats:
        """Collect garbage; optionally evict LRU objects down to ``max_bytes``.

        Three passes: (1) delete **orphans** — objects on disk that no live
        manifest record references (a record naming its graph and scheme is
        live only while its key is theirs under :data:`CACHE_SCHEMA`, a row
        record only while it was written under it) — and the legacy
        ``<root>/<key[:2]>/<key>.pkl`` result pickles (``key`` a sha256 hex
        digest) an older version kept beside the store, and no other file; (2)
        with ``max_bytes``, evict least-recently-used referenced objects
        (and every record naming them) until the survivors' total size fits
        the bound; (3) rewrite
        the manifest atomically to exactly the surviving records, compacting
        superseded appends away.  A manifest-referenced object is never
        deleted without its records going with it, so the post-gc store is
        closed: every record's object exists, every object has a record.

        Not safe to run concurrently with writers (the manifest rewrite
        could drop a record appended mid-pass); quiesce sweeps first.
        """
        stats = GcStats()
        live = {r.key: r for r in self.records() if _current(r)}
        referenced: Dict[str, List[str]] = {}
        for key, record in live.items():
            if record.object_id is not None:
                referenced.setdefault(record.object_id, []).append(key)
        disk = self._disk_objects()
        for object_id, path in disk.items():
            if object_id not in referenced:
                stats.orphans_removed += 1
                path.unlink(missing_ok=True)
        legacy = sorted(p for p in self.root.glob("??/*.pkl") if _is_legacy_pickle(p))
        for path in legacy:
            path.unlink(missing_ok=True)
        for folder in {path.parent for path in legacy}:
            try:
                folder.rmdir()
            except OSError:
                pass
        stats.legacy_removed = len(legacy)
        present = {oid: disk[oid] for oid in referenced if oid in disk}
        sizes = {oid: path.stat().st_size for oid, path in present.items()}
        total = sum(sizes.values())
        if max_bytes is not None:
            by_age = sorted(present, key=lambda oid: present[oid].stat().st_mtime)
            for object_id in by_age:
                if total <= max_bytes:
                    break
                present[object_id].unlink(missing_ok=True)
                total -= sizes[object_id]
                stats.evicted_objects += 1
                stats.evicted_bytes += sizes[object_id]
                for key in referenced[object_id]:
                    del live[key]
                del present[object_id]
        stats.live_objects = len(present)
        stats.live_bytes = total
        kept = list(live.values())
        stats.records_kept = len(kept)
        stats.records_dropped = len(self._index) - len(kept)
        self._rewrite_manifest(kept)
        return stats

    def info(self) -> Dict[str, object]:
        """Summary of the store: root, object/record counts, byte totals."""
        records = self.records()
        disk = self._disk_objects()
        object_bytes = sum(path.stat().st_size for path in disk.values())
        try:
            manifest_bytes = self.manifest_path.stat().st_size
        except OSError:
            manifest_bytes = 0
        return {
            "root": str(self.root),
            "objects": len(disk),
            "object_bytes": object_bytes,
            "manifest_bytes": manifest_bytes,
            "records": len(records),
            "programs": sum(1 for r in records if r.object_id is not None),
            "verdicts": sum(1 for r in records if r.verdict is not None),
            "rows": sum(1 for r in records if r.row is not None),
            "degraded": self.degraded,
        }

    def verify_objects(self) -> Iterator[Tuple[StoreRecord, bool]]:
        """Strict-verify every live program record; yields ``(record, ok)``."""
        for record in self.records():
            if record.object_id is None:
                continue
            found, value = self.get(record.key, verify=True)
            yield record, bool(found) and isinstance(value, RoutingProgram)
