"""Sharded, cached experiment runner for the scheme x family x size grids.

The measurement grids of :mod:`repro.analysis.table1`,
:mod:`repro.analysis.experiments` and :mod:`repro.sim.conformance` are
cross-products of independent cells — one ``(scheme, graph)`` build +
all-pairs simulation + memory profile each — so they shard trivially.  This
module provides the two layers that turn a one-shot grid into an
incremental sweep:

* :class:`ExperimentCache` — an in-process memo in front of one
  :class:`repro.store.ProgramStore`, keyed by a **graph fingerprint**
  (:meth:`repro.graphs.digraph.PortLabeledGraph.fingerprint`: topology and
  port labelling, hash-seed independent), a **scheme-config fingerprint**
  (:func:`scheme_fingerprint`: class identity plus every constructor-held
  attribute) and the schema version.  **Compiled routing programs**
  (:func:`cached_program`) are content-addressed
  ``objects/<fp[:2]>/<fp>.rpg`` objects named by the program's own content
  fingerprint, so warm lookups mmap the object and execute zero-copy array
  views instead of re-building schemes or decoding bytes, workers mapping
  the same object share its pages, and identical programs reached through
  different keys share one object; **result rows** (Table 1 cells,
  conformance reports, E7/E8 measurements) are typed manifest records
  beside them (see ``docs/architecture.md``).  Invalidation is purely by
  key: editing a graph changes its fingerprint, reconfiguring a scheme
  changes its fingerprint, and bumping :data:`repro.store.CACHE_SCHEMA`
  orphans every old entry.  Shard workers may share one store; corrupt or
  unreadable entries degrade to misses — loudly: each one emits a
  :class:`RuntimeWarning` naming the offending path and is counted in
  :attr:`ShardStats.degraded`, so a store rotting on disk shows up in sweep
  output instead of silently recomputing forever.

* :class:`ShardedRunner` — one dispatcher for every sweep.  A sweep kind
  is a :class:`SweepSpec` (a module-level cell body, the registry grid and
  the per-cell arguments); :meth:`ShardedRunner.stream` runs its cells in
  deterministic family-major order — serially in-process against the
  runner's own cache (``processes <= 1``), or through one
  :class:`concurrent.futures.ProcessPoolExecutor` mapped with
  ``chunksize=1`` — and yields one typed :class:`CellOutcome` per cell:
  its rows or skip reason plus its cache-counter deltas.  Each sweep
  method is a keyword-only forward to the spec builder that owns its
  parameters and defaults (:func:`cell_spec`, :func:`resilience_spec`,
  :func:`churn_spec`, :func:`flow_spec`), and collects that stream into
  ``(rows, skipped, stats)`` with a
  :class:`ShardStats` carrying the cache hit rate — and the
  compiled-program hit rate — so benchmark output can show how
  incremental a re-run was; the ``repro`` CLI emits the same stream row
  by row.  :meth:`ShardedRunner.program_sweep` is the pure compile-once
  workload: fetch-or-compile every cell's program, execute it straight
  off its mmap, cache no results, so a warm re-sweep runs without
  re-building a single scheme.

Cells whose scheme declines the graph
(:class:`~repro.routing.model.SchemeInapplicableError` from ``build``) are
reported as skipped; any other exception —
including the simulator's own :class:`ValueError` diagnostics for lost
pairs or invalid ports — propagates: it is a bug, not a domain
restriction.
"""

from __future__ import annotations

import hashlib
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.graphs.digraph import PortLabeledGraph
from repro.graphs.shortest_paths import distance_matrix
from repro.routing.model import RoutingFunction, SchemeInapplicableError
from repro.routing.program import GenericProgram, RoutingProgram, compile_or_interpret
from repro.routing.verify import verify_program
from repro.store import ProgramStore, cache_key
from repro.analysis.flow import DEFAULT_TOTAL, DEMAND_MODELS, flow_cell
from repro.analysis.table1 import (
    SchemeMeasurement,
    Table1Row,
    _default_schemes,
    group_measurements,
    measure_scheme,
)

__all__ = [
    "CellOutcome",
    "ExperimentCache",
    "ProgramCellResult",
    "ShardStats",
    "ShardedRunner",
    "SweepSpec",
    "VerifyCellResult",
    "cached_program",
    "cell_spec",
    "churn_spec",
    "flow_spec",
    "measure_cell",
    "resilience_spec",
    "scheme_fingerprint",
]

def _canonical(obj) -> object:
    """Deterministic, hash-seed-independent canonical form of a config object.

    Raises :class:`TypeError` for values it cannot canonicalise stably (an
    object whose only representation embeds its memory address): a cache
    key that silently never repeats — or worse, collides — is strictly more
    dangerous than a loud failure.
    """
    if isinstance(obj, (bool, int, float, str, bytes, type(None))):
        return obj
    # Container canonical forms are type-tagged so that e.g. a list and a
    # tuple holding the same items, or dict keys 1 and "1", cannot collide
    # into one cache key.
    if isinstance(obj, (list, tuple)):
        return (type(obj).__name__,) + tuple(_canonical(item) for item in obj)
    if isinstance(obj, (set, frozenset)):
        return ("set",) + tuple(sorted(repr(_canonical(item)) for item in obj))
    if isinstance(obj, dict):
        items = [(_canonical(k), _canonical(v)) for k, v in obj.items()]
        return ("dict",) + tuple(sorted(items, key=repr))
    if isinstance(obj, PortLabeledGraph):
        return ("graph", obj.fingerprint())
    if isinstance(obj, np.ndarray):
        # repr() truncates large arrays (two different arrays would collide);
        # hash the full contents instead.
        data = np.ascontiguousarray(obj)
        return (
            "ndarray",
            str(data.dtype),
            data.shape,
            hashlib.sha256(data.tobytes()).hexdigest(),
        )
    attrs = getattr(obj, "__dict__", None)
    if attrs is not None:
        return (
            f"{type(obj).__module__}.{type(obj).__qualname__}",
            _canonical(attrs),
        )
    text = repr(obj)
    if f"at 0x{id(obj):x}" in text:
        raise TypeError(
            f"cannot fingerprint {type(obj).__qualname__}: its repr embeds a "
            "memory address, so the cache key would never repeat across runs"
        )
    return (f"{type(obj).__module__}.{type(obj).__qualname__}", text)


def scheme_fingerprint(scheme) -> str:
    """Stable hex digest of a scheme's class and full configuration.

    Covers every attribute the scheme object holds (seeds, tie-breaks,
    stretch parameters, nested sub-schemes), so two scheme instances
    producing identical routing functions on every graph share a
    fingerprint and any config change breaks it.
    """
    return hashlib.sha256(repr(_canonical(scheme)).encode()).hexdigest()


@dataclass
class ShardStats:
    """Cache/shard accounting of one grid run.

    ``compile_hits``/``compile_misses`` single out the compiled-program
    lookups (:func:`cached_program`): a warm re-sweep that executes cached
    program bytes without re-building a single scheme reports a
    :attr:`compile_hit_rate` of 1.0.  ``degraded`` counts store entries
    that *existed* but could not be used — unreadable manifest lines, row
    records that no longer rebuild, objects failing the integrity gate — each of which
    also emitted a :class:`RuntimeWarning` naming the offending path; a
    non-zero count on a warm sweep means the store is rotting, not cold.
    """

    hits: int = 0
    misses: int = 0
    processes: int = 1
    compile_hits: int = 0
    compile_misses: int = 0
    degraded: int = 0

    @property
    def cells(self) -> int:
        """Number of cache lookups performed (cells plus shared artefacts)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 on an empty run)."""
        return self.hits / self.cells if self.cells else 0.0

    @property
    def compile_lookups(self) -> int:
        """Number of compiled-program lookups performed."""
        return self.compile_hits + self.compile_misses

    @property
    def compile_hit_rate(self) -> float:
        """Fraction of program lookups served from cached bytes (0.0 when none ran)."""
        return self.compile_hits / self.compile_lookups if self.compile_lookups else 0.0

    def add(self, outcome: "CellOutcome") -> None:
        """Fold one cell's cache-counter deltas into the totals."""
        self.hits += outcome.hits
        self.misses += outcome.misses
        self.compile_hits += outcome.compile_hits
        self.compile_misses += outcome.compile_misses
        self.degraded += outcome.degraded

    def describe(self) -> str:
        """One-line summary for benchmark output."""
        text = (
            f"cache {self.hits}/{self.cells} hits ({self.hit_rate:.0%}) "
            f"across {self.processes} shard process(es)"
        )
        if self.compile_lookups:
            text += (
                f"; programs {self.compile_hits}/{self.compile_lookups} "
                f"compiled-cache hits ({self.compile_hit_rate:.0%})"
            )
        if self.degraded:
            text += f"; {self.degraded} degraded entrie(s)"
        return text


@dataclass(frozen=True)
class CompileCellResult:
    """Provenance summary of one compile-only cell (``repro compile``).

    ``object_id`` is the program's content fingerprint — the name of its
    ``.rpg`` object in the store — so two cells with equal ``object_id``
    provably share bytes on disk.
    """

    scheme: str
    family: str
    n: int
    kind: str
    object_id: str
    nbytes: int


@dataclass(frozen=True)
class ProgramCellResult:
    """Outcome summary of one compile+execute cell of a program sweep."""

    scheme: str
    family: str
    n: int
    kind: str
    mode: str
    all_delivered: bool
    steps: int


@dataclass(frozen=True)
class VerifyCellResult:
    """Static-verification summary of one (scheme, family) cell.

    ``verified`` is ``False`` only for generic (interpreted) programs,
    which have no transition arrays to analyze — their outcome counts stay
    zero and ``all_delivered`` is vacuously ``False``.  Everything else is
    read off the cell's :class:`~repro.routing.verify.VerificationReport`:
    no message is executed anywhere in a verify sweep.
    """

    scheme: str
    family: str
    n: int
    kind: str
    verified: bool
    all_delivered: bool
    delivered: int
    livelocked: int
    misdelivered: int
    dropped: int
    max_finite_hops: int
    issues: Tuple[str, ...] = ()


class ExperimentCache:
    """Fingerprint-keyed artifact cache, shared safely between shard workers.

    An in-process memo in front of a :class:`repro.store.ProgramStore`:
    compiled *programs* are content-addressed objects, result *rows* are
    typed manifest records, and both share the store's ``gc``, schema rule
    and ``degraded`` counter.

    Parameters
    ----------
    root:
        Store directory; created on demand.  ``None`` keeps the cache
        purely in-memory (still deduplicates within a run, persists
        nothing).
    """

    def __init__(self, root: Optional[os.PathLike] = None) -> None:
        self.hits = 0
        self.misses = 0
        # Compiled-program lookups, tracked separately so ShardStats can
        # report the compile hit-rate of a sweep (see cached_program).
        self.program_hits = 0
        self.program_misses = 0
        self.program_store = ProgramStore(root) if root is not None else None
        self._memory: Dict[str, object] = {}

    @property
    def degraded_entries(self) -> int:
        """Degraded store entries seen (the store's own counter)."""
        store = self.program_store
        return store.degraded if store is not None else 0

    def key(self, *parts) -> str:
        """Hash key of ``parts`` (strings/ints/fingerprints) plus the schema."""
        return cache_key(*parts)

    def program_key(self, graph_fp: str, scheme_fp: str) -> str:
        """Key of the compiled program of a (graph, scheme config) pair."""
        return self.key("program", graph_fp, scheme_fp)

    def get(
        self,
        row_type: type,
        compute: Callable[[], object],
        kind: str,
        graph_fp: str,
        scheme_fp: str,
        *extra: object,
    ) -> object:
        """Memoised ``compute()``, a ``row_type`` row; updates hit/miss stats.

        Keyed by ``(kind, graph_fp, scheme_fp, *extra)``.  Lookup order:
        this process's memory, then the store's row record of that key;
        a miss computes the row and records it.
        """
        key = self.key(kind, graph_fp, scheme_fp, *extra)
        if key in self._memory:
            self.hits += 1
            return self._memory[key]
        store = self.program_store
        found, value = store.get_row(key, row_type) if store is not None else (False, None)
        if found:
            self.hits += 1
        else:
            value = compute()
            if store is not None:
                store.put_row(key, kind, value, graph_fp, scheme_fp)
            self.misses += 1
        self._memory[key] = value
        return value

    # -- compiled-program store (content-addressed mmap artifacts) ------
    def load_program_entry(self, key: str, verify: bool = False) -> Tuple[bool, object]:
        """Look up a compiled program; ``(found, value)``, stats untouched.

        The value is a :class:`~repro.routing.program.RoutingProgram`
        (mmap-backed when it came from disk) or the ``("inapplicable",
        reason)`` verdict of a scheme whose build refused the graph, from
        this process's memory, else from the store.  ``verify=True`` gates
        what comes from disk (:meth:`repro.store.ProgramStore.get`: content
        address and structure), so corrupted bytes degrade to a warned,
        counted miss that the caller recompiles over; entries already in
        memory are trusted.
        """
        if key in self._memory:
            return True, self._memory[key]
        if self.program_store is None:
            return False, None
        found, entry = self.program_store.get(key, verify=verify)
        if found:
            self._memory[key] = entry
        return found, entry

    def store_program_entry(
        self,
        key: str,
        program,
        graph: Optional[str] = None,
        scheme: Optional[str] = None,
    ) -> None:
        """Persist a compiled program into the content-addressed store.

        The object write is atomic (temp file + rename); ``graph``/``scheme``
        are provenance fingerprints for ``repro store ls``, never addresses.
        """
        self._memory[key] = program
        if self.program_store is None:
            return
        self.program_store.put(key, program, graph_fp=graph, scheme_fp=scheme)


def cached_program(
    scheme,
    graph: PortLabeledGraph,
    cache: ExperimentCache,
    rf: Optional[RoutingFunction] = None,
) -> RoutingProgram:
    """The compiled :class:`~repro.routing.program.RoutingProgram` of a cell.

    Cached under ``(graph fingerprint, scheme fingerprint)`` as a raw
    ``.rpg`` object: a warm lookup maps it and hands back zero-copy array
    views, shared between the workers mapping it.  On a miss the scheme is
    built (``rf`` may supply one the caller already built) and lowered once
    through :func:`~repro.routing.program.compile_or_interpret`, so a
    broken ``can_vectorize`` promise caches the explicit
    :class:`~repro.routing.program.GenericProgram` opt-out.  Unreadable
    cached bytes degrade to recompilation, like every other store entry.
    """
    program, _ = _cached_program_with_rf(scheme, graph, cache, rf=rf)
    return program


def _cached_program_with_rf(
    scheme,
    graph: PortLabeledGraph,
    cache: ExperimentCache,
    rf: Optional[RoutingFunction] = None,
    verify: bool = False,
) -> Tuple[RoutingProgram, Optional[RoutingFunction]]:
    """:func:`cached_program`, also returning any routing function it built.

    A cache miss has to build the scheme in order to lower it; callers that
    need the live function afterwards (memory profiles) reuse that build
    instead of paying a second one.  Whenever the program is generic the
    live function is always returned — built on a cache hit too, since
    nothing executes a generic program without it; otherwise it is
    ``None`` on cache hits.  ``verify=True`` routes
    the lookup through the cache's static integrity gate: a disk artifact
    that fails verification is treated as a miss and recompiled over.
    """
    graph_fp = graph.fingerprint()
    scheme_fp = scheme_fingerprint(scheme)
    key = cache.program_key(graph_fp, scheme_fp)
    found, entry = cache.load_program_entry(key, verify=verify)
    if found:
        cache.hits += 1
        cache.program_hits += 1
        if isinstance(entry, tuple) and entry and entry[0] == "inapplicable":
            # The build refusal of a partial scheme is itself a cached
            # compile verdict: a warm sweep must not re-attempt the build.
            raise SchemeInapplicableError(entry[1])
        if isinstance(entry, GenericProgram) and rf is None:
            rf = scheme.build(graph.copy())
        return entry, rf
    cache.misses += 1
    cache.program_misses += 1
    if rf is None:
        try:
            rf = scheme.build(graph.copy())
        except ValueError as exc:
            # Verdicts are manifest records, not objects: no program
            # exists, only the fact that this (graph, scheme) pair
            # refuses to build.
            if cache.program_store is not None:
                cache.program_store.put_verdict(key, str(exc), graph_fp, scheme_fp)
            cache._memory[key] = ("inapplicable", str(exc))
            raise SchemeInapplicableError(str(exc)) from exc
    program = compile_or_interpret(rf)
    cache.store_program_entry(key, program, graph=graph_fp, scheme=scheme_fp)
    return program, rf


def measure_cell(
    scheme,
    graph: PortLabeledGraph,
    graph_name: str = "graph",
    cache: Optional[ExperimentCache] = None,
) -> SchemeMeasurement:
    """One cached Table 1 cell: build on a copy, compile once, simulate, profile.

    :class:`ValueError` from partial schemes propagates (nothing is
    cached for the pair); the scheme is built on a
    :meth:`~repro.graphs.digraph.PortLabeledGraph.copy` because some
    schemes relabel ports in place.  The cell's routing program comes from
    :func:`cached_program`, so a recomputed cell on a warm program cache
    pays zero lowering work and both the simulation and the memory profile
    are scored against the cached artifact.
    """
    if cache is None:
        cache = ExperimentCache(None)

    def compute() -> SchemeMeasurement:
        dist = distance_matrix(graph)
        build_copy = graph.copy()
        try:
            rf = scheme.build(build_copy)
        except ValueError as exc:
            raise SchemeInapplicableError(str(exc)) from exc
        program = cached_program(scheme, graph, cache, rf=rf)
        return measure_scheme(
            scheme, build_copy, graph_name=graph_name, dist=dist, program=program, rf=rf
        )

    return cache.get(
        SchemeMeasurement,
        compute,
        "table1-cell",
        graph.fingerprint(),
        scheme_fingerprint(scheme),
        graph_name,
    )


def _conformance_cell(
    scheme,
    graph: PortLabeledGraph,
    family: str,
    label: str,
    cache: ExperimentCache,
):
    """One cached conformance cell: a :class:`~repro.sim.conformance.ConformanceReport`.

    The report is a row record keyed by ``(graph, scheme config, family,
    label)``, so a warm re-run reads it back instead of re-simulating.
    (Import deferred: conformance imports sim.)
    """
    from repro.sim.conformance import ConformanceReport, conformance_report

    def compute():
        dist = distance_matrix(graph)
        program, rf = _cached_program_with_rf(scheme, graph, cache)
        return conformance_report(
            scheme, graph, family=family, dist=dist, label=label, program=program, rf=rf
        )

    return cache.get(
        ConformanceReport,
        compute,
        "conformance-cell",
        graph.fingerprint(),
        scheme_fingerprint(scheme),
        family,
        label,
    )


def _compile_cell(
    scheme,
    graph: PortLabeledGraph,
    family: str,
    label: str,
    cache: ExperimentCache,
) -> "CompileCellResult":
    """One compile-only cell: materialize the program, report its identity.

    The ``repro compile`` workhorse — populates the content-addressed
    store without executing or verifying anything, so an operator can warm
    a store ahead of a fleet of sweeps.
    """
    program = cached_program(scheme, graph, cache)
    object_id = program.fingerprint()
    store = cache.program_store
    path = store.object_path(object_id) if store is not None else None
    nbytes = path.stat().st_size if path is not None and path.exists() else 0
    return CompileCellResult(
        scheme=label,
        family=family,
        n=program.n,
        kind=program.kind,
        object_id=object_id,
        nbytes=nbytes,
    )


def _program_cell(
    scheme,
    graph: PortLabeledGraph,
    family: str,
    label: str,
    cache: ExperimentCache,
) -> "ProgramCellResult":
    """One compile+execute cell of a program sweep (results never cached).

    The pure compile-once workload: only the program artifacts are
    cached, so a warm re-sweep genuinely *executes* cached programs
    without re-building any scheme — the compile hit-rate in the resulting
    :class:`ShardStats` measures exactly how many schemes were never
    re-built.
    """
    from repro.sim.engine import execute_program

    program, rf = _cached_program_with_rf(scheme, graph, cache)
    result = execute_program(program, rf=rf)
    return ProgramCellResult(
        scheme=label,
        family=family,
        n=program.n,
        kind=program.kind,
        mode=result.mode,
        all_delivered=result.all_delivered,
        steps=result.steps,
    )


def _verify_cell(
    scheme,
    graph: PortLabeledGraph,
    family: str,
    label: str,
    cache: ExperimentCache,
) -> "VerifyCellResult":
    """One statically-verified cell of a verify sweep (results never cached).

    The cell's program comes from the shared artifact cache *through the
    integrity gate* (``verify=True`` on disk loads), then the full
    classification is proven by :func:`repro.routing.verify.verify_program`
    — the sweep is the all-static counterpart of
    :meth:`ShardedRunner.program_sweep` and never routes a message, so it
    is the cheap standing correctness matrix CI runs over the whole
    registry.  Generic programs are reported unverified instead of
    simulated.
    """
    program, _ = _cached_program_with_rf(scheme, graph, cache, verify=True)
    if isinstance(program, GenericProgram):
        return VerifyCellResult(
            scheme=label,
            family=family,
            n=program.n,
            kind=program.kind,
            verified=False,
            all_delivered=False,
            delivered=0,
            livelocked=0,
            misdelivered=0,
            dropped=0,
            max_finite_hops=0,
        )
    report = verify_program(program)
    counts = report.counts()
    return VerifyCellResult(
        scheme=label,
        family=family,
        n=program.n,
        kind=program.kind,
        verified=True,
        all_delivered=report.all_delivered,
        delivered=counts["delivered"],
        livelocked=counts["livelocked"],
        misdelivered=counts["misdelivered"],
        dropped=counts["dropped"],
        max_finite_hops=report.max_finite_hops,
        issues=report.issues,
    )


def _table1_cell(scheme, graph: PortLabeledGraph, family: str, label: str, cache):
    """:func:`measure_cell` in the cell-body calling convention."""
    return measure_cell(scheme, graph, family, cache)


# ----------------------------------------------------------------------
# the cell protocol: one spec per sweep kind, one outcome per cell
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CellOutcome:
    """What one (scheme, family) cell of a sweep produced.

    ``status`` is ``"ok"`` (``rows`` holds the cell's result rows) or
    ``"skip"`` (the scheme declined the graph; ``reason`` says why).  The
    five counters are the cell's cache-counter deltas, so
    :meth:`ShardStats.add` sums the same totals whichever process ran the
    cell.
    """

    scheme: str
    family: str
    status: str
    rows: Tuple[object, ...]
    reason: str
    hits: int
    misses: int
    compile_hits: int
    compile_misses: int
    degraded: int


@dataclass(frozen=True)
class SweepSpec:
    """One sweep kind: a module-level cell body over a family-major grid.

    Every cell runs ``body(scheme, graph, family, label, cache=cache,
    **kwargs)``, with ``kwargs`` the shared ``params`` updated by the
    cell's ``family_params`` entry (its fault scenarios or churn traces).
    The body must live at module level: pooled cells pickle it by name.
    """

    body: Callable[..., object]
    schemes: Tuple[Tuple[str, object], ...]
    families: Tuple[Tuple[str, PortLabeledGraph], ...]
    params: Mapping[str, object] = field(default_factory=dict)
    family_params: Mapping[str, Mapping[str, object]] = field(default_factory=dict)

    def cells(self) -> List[tuple]:
        """``(scheme, graph, family, label, kwargs)`` in family-major order."""
        cells = []
        for family, graph in self.families:
            kwargs = {**self.params, **self.family_params.get(family, {})}
            for label, scheme in self.schemes:
                cells.append((scheme, graph, family, label, kwargs))
        return cells


def cell_spec(
    body: Callable[..., object],
    schemes: Optional[Dict[str, object]] = None,
    families: Optional[Dict[str, PortLabeledGraph]] = None,
    size: str = "medium",
    seed: int = 0,
    per_family: Optional[Callable[[str, PortLabeledGraph], Dict[str, object]]] = None,
    **params,
) -> SweepSpec:
    """A spec of ``body`` over the registries.

    ``None`` picks the whole scheme registry / every ``size`` family;
    ``per_family(name, graph)`` gives a family's extra cell arguments and
    ``params`` the shared ones.  Alone it specs the one-result-per-cell
    sweeps (compile, program, conformance, verify).  Cells run in
    deterministic family-major order; a scheme that declines a family
    skips that cell.
    """
    from repro.sim.registry import graph_families, scheme_registry

    if schemes is None:
        schemes = scheme_registry(seed=seed)
    if families is None:
        families = graph_families(size=size, seed=seed)
    family_params = {}
    if per_family is not None:
        family_params = {name: per_family(name, graph) for name, graph in families.items()}
    return SweepSpec(
        body, tuple(schemes.items()), tuple(families.items()), params, family_params
    )


def resilience_spec(
    schemes: Optional[Dict[str, object]] = None,
    families: Optional[Dict[str, PortLabeledGraph]] = None,
    size: str = "medium",
    seed: int = 0,
    scenarios: Optional[Dict[str, Sequence]] = None,
    flow=None,
    demand_seed: int = 0,
    **draws,
) -> SweepSpec:
    """Fault-injection fan-out: every registry cell x its seeded scenarios.

    Each (scheme, family) cell carries *all* of that family's fault
    scenarios: ``scenarios`` maps family name to ``(label, FaultSet)``
    pairs, else :func:`repro.sim.registry.fault_scenarios` draws them, with
    ``draws`` (``edge_ks``, ``node_ks``, ``per_k``) overriding its
    defaults.  The cell fetches its compiled program from the shared cache
    once and applies every fault mask to it, which is what makes a warm
    sweep run thousands of failure scenarios with
    :attr:`ShardStats.compile_hit_rate` = 1.0 and zero scheme rebuilds.
    Per-scenario outcomes are never cached (only programs are; surviving
    distances are memoised on each family graph), so re-sweeps genuinely
    re-execute masked programs.  ``flow`` (a demand model name or matrix,
    see :func:`repro.analysis.flow.demand_matrix`) adds the
    demand-weighted traffic metrics to every scenario row.  Cells come in
    deterministic family-major, scenario order;
    :func:`repro.analysis.resilience.survival_curves` aggregates them.
    """
    from repro.analysis.resilience import resilience_cell
    from repro.sim.registry import fault_scenarios

    def per_family(name, graph):
        if scenarios is not None:
            return {"scenarios": tuple(scenarios[name])}
        return {"scenarios": tuple(fault_scenarios(graph, seed=seed, **draws))}

    return cell_spec(
        resilience_cell, schemes, families, size, seed, per_family,
        flow=flow, demand_seed=demand_seed,
    )


def churn_spec(
    schemes: Optional[Dict[str, object]] = None,
    families: Optional[Dict[str, PortLabeledGraph]] = None,
    size: str = "small",
    seed: int = 0,
    traces: Optional[Dict[str, Sequence]] = None,
    verify=True,
    flow=None,
    demand_seed: int = 0,
    **draws,
) -> SweepSpec:
    """Dynamic-topology fan-out: every table cell x its seeded churn traces.

    Each (scheme, family) cell carries *all* of that family's churn
    traces: ``traces`` maps family name to ``(label, ChurnTrace)`` pairs,
    else :func:`repro.sim.churn.churn_scenarios` draws them over the
    registry instance, with ``draws`` (``steps``, ``flips_per_step``)
    overriding its defaults.  The cell fetches its **base** compiled
    program from the shared cache once and chains
    :func:`~repro.routing.program.apply_delta` through every snapshot —
    one compile, many deltas — storing each patched program back through
    the ``.rpg`` artifact path under its own snapshot's key.  ``verify``
    is :func:`repro.analysis.churn.churn_cell`'s.  ``schemes`` defaults to
    the shortest-path ``tables-*`` subset of the registry (the programs
    the delta compiler patches in place; any other scheme would recompile
    at every step).  Per-step
    :class:`~repro.analysis.churn.ChurnCellResult` rows come in
    deterministic family-major, trace, step order;
    :func:`repro.analysis.churn.churn_summary` aggregates them.
    """
    from repro.analysis.churn import churn_cell
    from repro.sim.churn import churn_scenarios
    from repro.sim.registry import scheme_registry

    if schemes is None:
        schemes = {
            name: scheme
            for name, scheme in scheme_registry(seed=seed).items()
            if name.startswith("tables-")
        }

    def per_family(name, graph):
        if traces is not None:
            return {"traces": tuple(traces[name])}
        return {"traces": tuple(churn_scenarios(graph, seed=seed, **draws))}

    return cell_spec(
        churn_cell, schemes, families, size, seed, per_family,
        verify=verify, flow=flow, demand_seed=demand_seed,
    )


def flow_spec(
    schemes: Optional[Dict[str, object]] = None,
    families: Optional[Dict[str, PortLabeledGraph]] = None,
    size: str = "medium",
    seed: int = 0,
    models: Sequence[str] = DEMAND_MODELS,
    demand_seed: int = 0,
    total: float = DEFAULT_TOTAL,
) -> SweepSpec:
    """Traffic fan-out: every registry cell x the demand-skew models.

    Each (scheme, family) cell carries all of that cell's demand models:
    the cell fetches its compiled program from the shared cache once,
    resolves its fates once, and routes every demand matrix against that
    single hop-count array (:func:`repro.analysis.flow.flow_cell`) — a
    warm sweep reruns the whole demand grid with
    :attr:`ShardStats.compile_hit_rate` = 1.0 and zero scheme rebuilds.
    Generic (opt-out) programs skip.  Cells come in deterministic
    family-major, demand-model order.
    """
    return cell_spec(
        flow_cell, schemes, families, size, seed,
        models=tuple(models), demand_seed=demand_seed, total=total,
    )


def _run_cell(
    cache: ExperimentCache,
    body: Callable[..., object],
    scheme,
    graph: PortLabeledGraph,
    family: str,
    label: str,
    kwargs: Mapping[str, object],
) -> CellOutcome:
    """Run one cell body against ``cache``; its outcome and counter deltas."""

    def counters() -> Tuple[int, ...]:
        return (
            cache.hits,
            cache.misses,
            cache.program_hits,
            cache.program_misses,
            cache.degraded_entries,
        )

    before = counters()
    try:
        value = body(scheme, graph, family, label, cache=cache, **kwargs)
    except SchemeInapplicableError as exc:
        status, rows, reason = "skip", (), str(exc)
    else:
        status, reason = "ok", ""
        rows = tuple(value) if isinstance(value, (list, tuple)) else (value,)
    deltas = (after - prior for after, prior in zip(counters(), before))
    return CellOutcome(label, family, status, rows, reason, *deltas)


#: One cache instance per (pool worker process, directory): cells executed
#: by the same worker share loaded programs and rows in memory instead of
#: re-reading the store per cell.  Only :func:`_pool_worker` reads it;
#: in-process cells run against their runner's own cache.
_WORKER_CACHES: Dict[str, ExperimentCache] = {}


def _pool_worker(payload: tuple) -> CellOutcome:
    """The process-pool entry point (top level: payloads must pickle)."""
    cache_dir, body, *cell = payload
    cache = _WORKER_CACHES.get(cache_dir)
    if cache is None:
        cache = _WORKER_CACHES[cache_dir] = ExperimentCache(cache_dir)
    return _run_cell(cache, body, *cell)


class ShardedRunner:
    """Fan experiment grids over worker processes with a shared disk cache.

    Every sweep is a :class:`SweepSpec` consumed by one generator,
    :meth:`stream`, which yields a :class:`CellOutcome` per cell in
    family-major order; the sweep methods collect that stream and the
    ``repro`` CLI emits it row by row.

    Parameters
    ----------
    cache_dir:
        Directory of the shared :class:`ExperimentCache`; ``None`` disables
        persistence (each run still deduplicates in memory — and forces the
        serial path, since pooled workers can only share results through
        the directory).
    processes:
        Worker processes; ``None`` picks ``min(8, cpu_count)``; values
        ``<= 1`` run cells serially in-process (sharing one cache object,
        and each family graph's memoised distance matrix across its schemes).
    """

    def __init__(
        self,
        cache_dir: Optional[os.PathLike] = None,
        processes: Optional[int] = None,
    ) -> None:
        if processes is None:
            processes = min(8, os.cpu_count() or 1)
        self.processes = max(1, int(processes))
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.cache = ExperimentCache(self.cache_dir)

    # ------------------------------------------------------------------
    def _pooled(self, spec: SweepSpec) -> bool:
        # Without a cache directory, pool workers would share nothing (each
        # cell would rebuild its distance matrix from scratch); the serial
        # path's in-process cache deduplicates, so it wins outright there.
        num_cells = len(spec.schemes) * len(spec.families)
        return self.processes > 1 and num_cells > 1 and self.cache_dir is not None

    def stream(self, spec: SweepSpec) -> Iterator[CellOutcome]:
        """Run every cell of ``spec``, yielding outcomes in family-major order.

        Serially against :attr:`cache`, or through a process pool mapped
        with ``chunksize=1`` so a finished cell is never held back behind
        an unfinished chunk-mate.  Exceptions other than
        :class:`~repro.routing.model.SchemeInapplicableError` propagate.
        """
        cells = spec.cells()
        if not self._pooled(spec):
            for cell in cells:
                yield _run_cell(self.cache, spec.body, *cell)
            return
        payloads = [(str(self.cache_dir), spec.body) + cell for cell in cells]
        with ProcessPoolExecutor(max_workers=self.processes) as pool:
            yield from pool.map(_pool_worker, payloads, chunksize=1)

    def _collect(self, spec: SweepSpec) -> Tuple[list, List[Tuple[str, str]], ShardStats]:
        """``(rows, skipped, stats)`` of a whole :meth:`stream`."""
        stats = ShardStats(processes=self.processes if self._pooled(spec) else 1)
        rows: list = []
        skipped: List[Tuple[str, str]] = []
        for outcome in self.stream(spec):
            stats.add(outcome)
            if outcome.status == "ok":
                rows.extend(outcome.rows)
            else:
                skipped.append((outcome.scheme, outcome.family))
        return rows, skipped, stats

    # ------------------------------------------------------------------
    def table1_report(
        self,
        graphs: Sequence[Tuple[str, PortLabeledGraph]],
        schemes: Optional[Sequence] = None,
        reference_n: Optional[int] = None,
        eps: float = 0.5,
    ) -> Tuple[List[Table1Row], ShardStats]:
        """Measure the schemes on the graphs and group results by stretch regime.

        ``graphs`` are ``(name, graph)`` pairs; ``schemes`` defaults to
        tables, interval routing, Cowen landmarks and the spanner+landmark
        composition; ``reference_n``, the ``n`` at which the closed-form
        bound columns are evaluated, defaults to the largest graph
        measured.  Partial schemes (e-cube, tree interval routing, ...)
        are skipped on graphs outside their domain; simulation diagnostics
        (lost pairs, invalid ports) propagate.  Returns the Table 1 regime
        rows (:func:`repro.analysis.table1.group_measurements`) plus the
        run's :class:`ShardStats`.
        """
        if schemes is None:
            schemes = _default_schemes()
        labelled = tuple((getattr(s, "name", type(s).__name__), s) for s in schemes)
        measurements, _, stats = self._collect(SweepSpec(_table1_cell, labelled, tuple(graphs)))
        if reference_n is None:
            reference_n = max((g.n for _, g in graphs), default=0)
        return group_measurements(measurements, reference_n, eps=eps), stats

    # ------------------------------------------------------------------
    # One forward per sweep kind, keyword arguments only: the spec
    # builders (and the cell bodies they name) own every default and
    # document the contract.  Each returns ``(rows, skipped, stats)``.
    def conformance_suite(self, **kwargs):
        """:func:`_conformance_cell` over :func:`cell_spec`'s grid."""
        return self._collect(cell_spec(_conformance_cell, **kwargs))

    def program_sweep(self, **kwargs):
        """:func:`_program_cell` over :func:`cell_spec`'s grid."""
        return self._collect(cell_spec(_program_cell, **kwargs))

    def verify_sweep(self, **kwargs):
        """:func:`_verify_cell` over :func:`cell_spec`'s grid."""
        return self._collect(cell_spec(_verify_cell, **kwargs))

    def resilience_sweep(self, **kwargs):
        """The sweep of :func:`resilience_spec`."""
        return self._collect(resilience_spec(**kwargs))

    def churn_sweep(self, **kwargs):
        """The sweep of :func:`churn_spec`."""
        return self._collect(churn_spec(**kwargs))

    def flow_sweep(self, **kwargs):
        """The sweep of :func:`flow_spec`."""
        return self._collect(flow_spec(**kwargs))

    # ------------------------------------------------------------------
    def cached_row(
        self, kind: str, scheme, graph: PortLabeledGraph, compute
    ) -> SchemeMeasurement:
        """Memoise one experiment measurement keyed by ``(kind, graph, scheme config)``.

        The hook the E7/E8 drivers use: ``compute`` returns the cell's
        :class:`~repro.analysis.table1.SchemeMeasurement` (stretch through
        the simulator plus memory bits), recomputed only when the instance
        or the scheme configuration changes.
        """
        return self.cache.get(  # type: ignore[return-value]
            SchemeMeasurement, compute, kind, graph.fingerprint(), scheme_fingerprint(scheme)
        )

    def stats(self) -> ShardStats:
        """Lifetime hit/miss totals of the runner's own (serial) cache."""
        return ShardStats(
            hits=self.cache.hits,
            misses=self.cache.misses,
            processes=self.processes,
            compile_hits=self.cache.program_hits,
            compile_misses=self.cache.program_misses,
            degraded=self.cache.degraded_entries,
        )
