"""Tests for the sharded, cached experiment runner (`repro.analysis.runner`).

Three layers:

* **Fingerprints** — graph fingerprints are stable across copies, sensitive
  to port relabelling, and hash-seed independent; scheme fingerprints are
  sensitive to every config knob (seed, tie-break, stretch, nesting).
* **Cache** — hit/miss accounting, row records round-tripping through the
  store, bad records degrading to one counted miss, schema keying and gc.
* **Sharding** — pooled grid runs (`processes=2`) reproduce serial ones
  (`processes=1`) bit for bit, skips included, and re-runs are pure cache
  hits; an in-memory serial runner (`ShardedRunner(processes=1)`) returns
  what a disk-backed one does.  E7/E8 rows through `cached_row` equal their
  uncached counterparts.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from typing import Tuple

import numpy as np
import pytest

from repro.analysis.experiments import (
    special_graphs_experiment,
    stretch_tradeoff_experiment,
)
from repro.analysis.runner import (
    ExperimentCache,
    ShardedRunner,
    measure_cell,
    scheme_fingerprint,
)
from repro.graphs import generators
from repro.routing.hierarchical import HierarchicalSpannerScheme
from repro.routing.landmark import CowenLandmarkScheme
from repro.routing.tables import ShortestPathTableScheme
from repro.store import ProgramStore


def _in_memory_table1(graphs, **kwargs):
    """Table 1 rows of an in-memory serial runner (no cache directory)."""
    rows, _ = ShardedRunner(processes=1).table1_report(graphs, **kwargs)
    return rows


def _graphs():
    return [
        ("grid", generators.grid_2d(3, 4)),
        ("random", generators.random_connected_graph(14, extra_edge_prob=0.15, seed=1)),
    ]


def _row_key(rows):
    return [
        (
            row.stretch_range,
            tuple(
                sorted(
                    (m.scheme, m.graph_name, m.n, m.stretch, m.local_bits, m.global_bits)
                    for m in row.measurements
                )
            ),
        )
        for row in rows
    ]


# ----------------------------------------------------------------------
# fingerprints
# ----------------------------------------------------------------------
class TestFingerprints:
    def test_graph_fingerprint_stable_across_copies(self):
        g = generators.random_connected_graph(12, extra_edge_prob=0.2, seed=3)
        assert g.fingerprint() == g.copy().fingerprint()
        assert len(g.fingerprint()) == 64

    def test_graph_fingerprint_sees_port_relabelling(self):
        g = generators.grid_2d(3, 3)
        before = g.fingerprint()
        relabelled = g.copy()
        relabelled.relabel_ports(4, {1: 2, 2: 1, 3: 3, 4: 4})
        assert relabelled.fingerprint() != before
        # Topology changes too, of course.
        grown = g.copy()
        grown.add_edge(0, 8)
        assert grown.fingerprint() != before

    def test_scheme_fingerprint_covers_every_config_knob(self):
        prints = {
            scheme_fingerprint(s)
            for s in (
                ShortestPathTableScheme(),
                ShortestPathTableScheme(tie_break="highest_port"),
                CowenLandmarkScheme(seed=0),
                CowenLandmarkScheme(seed=1),
                CowenLandmarkScheme(seed=0, rewriting=True),
                HierarchicalSpannerScheme(spanner_stretch=3.0, seed=0),
                HierarchicalSpannerScheme(spanner_stretch=5.0, seed=0),
                HierarchicalSpannerScheme(spanner_stretch=3.0, seed=0, rewriting=True),
            )
        }
        assert len(prints) == 8
        # Same config, different instance: same fingerprint.
        assert scheme_fingerprint(CowenLandmarkScheme(seed=2)) == scheme_fingerprint(
            CowenLandmarkScheme(seed=2)
        )


# ----------------------------------------------------------------------
# cache
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Probe:
    """A flat result row, the shape every cached row kind has."""

    label: str
    value: float
    exact: Tuple[int, int]


PROBE = _Probe("probe", 0.1 + 0.2, (3, 1))


def _probe_get(cache, compute):
    return cache.get(_Probe, compute, "probe-row", "graph-fp", "scheme-fp")


def _rewrite_last_record(root, edit):
    """Replace the manifest's last line with ``edit(line)``'s bytes."""
    manifest = root / "manifest.jsonl"
    lines = manifest.read_bytes().splitlines()
    lines[-1] = edit(lines[-1])
    manifest.write_bytes(b"\n".join(lines) + b"\n")


class TestExperimentCache:
    def test_memory_only_cache_dedupes_within_run(self):
        cache = ExperimentCache(None)
        calls = []
        value = _probe_get(cache, lambda: calls.append(1) or PROBE)
        again = _probe_get(cache, lambda: calls.append(1) or PROBE)
        assert value == again == PROBE
        assert calls == [1]
        assert (cache.hits, cache.misses) == (1, 1)

    def test_rows_round_trip_across_instances_as_records(self, tmp_path):
        first = ExperimentCache(tmp_path)
        assert _probe_get(first, lambda: PROBE) == PROBE
        assert first.misses == 1
        second = ExperimentCache(tmp_path)
        again = _probe_get(second, lambda: pytest.fail("recomputed a stored row"))
        assert (second.hits, second.misses) == (1, 0)
        assert again == PROBE and isinstance(again.exact, tuple)
        (record,) = second.program_store.records()
        assert record.kind == "probe-row" and record.row is not None
        assert (record.graph, record.scheme) == ("graph-fp", "scheme-fp")
        # Canonical JSON: sorted keys, the row's fields and nothing pickled.
        line = (tmp_path / "manifest.jsonl").read_bytes().strip()
        assert line == json.dumps(json.loads(line), sort_keys=True).encode()
        assert not list(tmp_path.glob("??/*.pkl"))

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda line: line[: len(line) // 2], id="garbled"),
            pytest.param(
                lambda line: json.dumps(
                    {**json.loads(line), "row": {**json.loads(line)["row"], "bogus": 1}},
                    sort_keys=True,
                ).encode(),
                id="unknown-field",
            ),
            pytest.param(
                lambda line: json.dumps(
                    {**json.loads(line), "row": {"label": "probe"}}, sort_keys=True
                ).encode(),
                id="missing-field",
            ),
        ],
    )
    def test_bad_row_record_is_one_counted_miss_and_is_rewritten(self, tmp_path, edit):
        _probe_get(ExperimentCache(tmp_path), lambda: PROBE)
        _rewrite_last_record(tmp_path, edit)
        fresh = ExperimentCache(tmp_path)
        with pytest.warns(RuntimeWarning, match=str(tmp_path / "manifest.jsonl")):
            assert _probe_get(fresh, lambda: PROBE) == PROBE
        assert (fresh.hits, fresh.misses, fresh.degraded_entries) == (0, 1, 1)
        # The recomputed row was appended and is what the next reader serves.
        warm = ExperimentCache(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # a garbled line stays until gc
            assert _probe_get(warm, lambda: pytest.fail("recomputed")) == PROBE
        assert (warm.hits, warm.misses) == (1, 0)

    def test_schema_bump_gc_drops_old_row_records(self, tmp_path, monkeypatch):
        import repro.store

        _probe_get(ExperimentCache(tmp_path), lambda: PROBE)
        store = ProgramStore(tmp_path)
        assert store.gc().records_kept == 1  # live under the schema that wrote it
        monkeypatch.setattr(repro.store, "CACHE_SCHEMA", repro.store.CACHE_SCHEMA + 1)
        stats = ProgramStore(tmp_path).gc()
        assert (stats.records_kept, stats.records_dropped) == (0, 1)
        assert ProgramStore(tmp_path).records() == []

    def test_degraded_entries_is_the_store_counter(self, tmp_path):
        from repro.routing.tables import ShortestPathTableScheme as Tables

        cache = ExperimentCache(tmp_path)
        graph = generators.grid_2d(3, 3)
        program = Tables().build(graph).compile_program()
        key = cache.key("program", graph.fingerprint(), "probe-scheme")
        cache.store_program_entry(key, program)
        store = cache.program_store
        store.object_path(store.lookup(key).object_id).write_bytes(b"not a program container")
        fresh = ExperimentCache(tmp_path)
        with pytest.warns(RuntimeWarning, match="degraded store entry"):
            assert fresh.load_program_entry(key) == (False, None)
        assert fresh.program_store.degraded == fresh.degraded_entries == 1
        assert ExperimentCache(None).degraded_entries == 0

    def test_shard_stats_surface_degraded_counts(self, tmp_path):
        from repro.sim.registry import resolve_families, resolve_schemes

        schemes = resolve_schemes(["tables-lowest-port"], seed=0)
        families = resolve_families(["cycle"], size="small", seed=0)
        runner = ShardedRunner(cache_dir=tmp_path, processes=1)
        runner.program_sweep(schemes=schemes, families=families)
        # Scribble over every stored program object, then re-sweep: each
        # corrupt artifact degrades (warned, recompiled) and the run's
        # ShardStats reports how many.
        objects = list((tmp_path / "objects").glob("??/*.rpg"))
        assert objects
        for path in objects:
            path.write_bytes(b"torn artifact")
        rerun = ShardedRunner(cache_dir=tmp_path, processes=1)
        with pytest.warns(RuntimeWarning, match="treating as a miss"):
            _, _, stats = rerun.program_sweep(schemes=schemes, families=families)
        assert stats.degraded >= 1
        assert "degraded" in stats.describe()

    def test_keys_differ_by_part_and_schema(self):
        cache = ExperimentCache(None)
        assert cache.key("a", 1) != cache.key("a", 2)
        assert cache.key("a") != cache.key("b")

    def test_fingerprint_rejects_address_only_reprs(self):
        class _Opaque:
            __slots__ = ()

        class _Holder:
            def __init__(self):
                self.payload = _Opaque()

        with pytest.raises(TypeError, match="memory address"):
            scheme_fingerprint(_Holder())

    def test_fingerprint_hashes_ndarray_contents(self):
        class _Holder:
            def __init__(self, data):
                self.data = data

        big_a = _Holder(np.arange(10_000))
        big_b = _Holder(np.arange(10_000) + 1)  # same truncated repr, different data
        assert scheme_fingerprint(big_a) != scheme_fingerprint(big_b)
        assert scheme_fingerprint(big_a) == scheme_fingerprint(_Holder(np.arange(10_000)))


# ----------------------------------------------------------------------
# pooled grids == serial grids
# ----------------------------------------------------------------------
class TestShardedRunner:
    def test_measure_cell_matches_uncached_measurement(self, tmp_path):
        from repro.analysis.table1 import measure_scheme

        graph = generators.grid_2d(3, 4)
        cache = ExperimentCache(tmp_path)
        cell = measure_cell(ShortestPathTableScheme(), graph, "grid", cache)
        direct = measure_scheme(ShortestPathTableScheme(), graph.copy(), graph_name="grid")
        assert cell == direct
        # Second lookup is a pure hit, same value.
        hits0 = cache.hits
        assert measure_cell(ShortestPathTableScheme(), graph, "grid", cache) == direct
        assert cache.hits == hits0 + 1

    def test_pooled_table1_matches_serial_and_reruns_hit(self, tmp_path):
        graphs = _graphs()
        serial_rows, serial_stats = ShardedRunner(
            cache_dir=tmp_path / "serial", processes=1
        ).table1_report(graphs)
        assert serial_stats.processes == 1
        assert _row_key(_in_memory_table1(graphs)) == _row_key(serial_rows)
        runner = ShardedRunner(cache_dir=tmp_path / "pooled", processes=2)
        rows, stats = runner.table1_report(graphs)
        assert stats.processes == 2
        assert _row_key(rows) == _row_key(serial_rows)
        assert stats.misses > 0
        rows_again, stats_again = runner.table1_report(graphs)
        assert _row_key(rows_again) == _row_key(serial_rows)
        assert stats_again.misses == 0 and stats_again.hit_rate == 1.0

    def test_serial_runner_shares_cache_with_pooled_runs(self, tmp_path):
        graphs = _graphs()
        pooled = ShardedRunner(cache_dir=tmp_path, processes=2)
        pooled.table1_report(graphs)
        serial = ShardedRunner(cache_dir=tmp_path, processes=1)
        rows, stats = serial.table1_report(graphs)
        assert stats.misses == 0
        assert _row_key(rows) == _row_key(_in_memory_table1(graphs))

    def test_partial_schemes_skip_not_fail(self, tmp_path):
        from repro.routing.ecube import ECubeRoutingScheme

        runner = ShardedRunner(cache_dir=tmp_path, processes=1)
        rows, _ = runner.table1_report(
            [("ring", generators.cycle_graph(8))],
            schemes=[ShortestPathTableScheme(), ECubeRoutingScheme()],
        )
        measured = {m.scheme for row in rows for m in row.measurements}
        assert measured == {"routing-tables"}  # the partial e-cube cell skipped

    def test_broken_scheme_propagates_instead_of_skipping(self, tmp_path):
        # Only a partial scheme's build refusal is a skip; a scheme that
        # builds but then loses messages must surface its diagnostic, not
        # vanish from the grid.
        from repro.routing.model import DestinationBasedRoutingFunction

        class _BounceScheme:
            name = "broken-bounce"

            def build(self, graph):
                class _Bounce(DestinationBasedRoutingFunction):
                    def port_to(self, node, dest):
                        return self._graph.port(node, 1 if node == 0 else 0)

                return _Bounce(graph)

        runner = ShardedRunner(cache_dir=tmp_path, processes=1)
        graphs = [("complete", generators.complete_graph(5))]
        with pytest.raises(ValueError, match="livelocked"):
            runner.table1_report(graphs, schemes=[_BounceScheme()])
        with pytest.raises(ValueError, match="livelocked"):
            _in_memory_table1(graphs, schemes=[_BounceScheme()])

    def test_pooled_conformance_matches_serial_runner(self, tmp_path):
        from repro.routing.ecube import ECubeRoutingScheme

        schemes = {
            "tables": ShortestPathTableScheme(),
            "landmark-rewriting": CowenLandmarkScheme(seed=3, rewriting=True),
            "ecube": ECubeRoutingScheme(),
        }
        families = {name: graph for name, graph in _graphs()}
        serial_reports, serial_skipped, serial_stats = ShardedRunner(
            cache_dir=tmp_path / "serial", processes=1
        ).conformance_suite(schemes=schemes, families=families)
        assert serial_stats.processes == 1
        assert serial_skipped  # the partial e-cube scheme declines both graphs
        in_memory = ShardedRunner(processes=1).conformance_suite(
            schemes=schemes, families=families
        )
        assert in_memory[:2] == (serial_reports, serial_skipped)
        runner = ShardedRunner(cache_dir=tmp_path / "pooled", processes=2)
        reports, skipped, stats = runner.conformance_suite(
            schemes=schemes, families=families
        )
        assert stats.processes == 2
        assert reports == serial_reports
        assert skipped == serial_skipped
        reports_again, _, stats_again = runner.conformance_suite(
            schemes=schemes, families=families
        )
        assert reports_again == serial_reports
        assert stats_again.misses == 0

    def test_no_cache_dir_forces_serial_sharing(self):
        # With no directory, pool workers could share nothing; the runner
        # must fall back to the serial in-process cache so distance
        # matrices are still deduplicated across schemes of a family.
        runner = ShardedRunner(cache_dir=None, processes=4)
        rows, stats = runner.table1_report(_graphs())
        assert stats.processes == 1
        assert _row_key(rows) == _row_key(_in_memory_table1(_graphs()))
        # One distance matrix per graph, not per cell.
        dist_misses = runner.cache.misses
        _, stats2 = runner.table1_report(_graphs())
        assert stats2.misses == 0  # in-memory cache held everything

    def test_stale_bound_formula_is_not_shadowed_by_cache(self, tmp_path):
        # bound_bits is an input outside the cache key, so it must be
        # re-attached per call rather than served from a cached row.
        from repro.analysis.experiments import _measured_cell

        runner = ShardedRunner(cache_dir=tmp_path, processes=1)
        graph = generators.grid_2d(3, 4)
        scheme = ShortestPathTableScheme()
        first = _measured_cell(runner, "probe", scheme, graph, bound_bits=100.0)
        second = _measured_cell(runner, "probe", scheme, graph, bound_bits=999.0)
        assert first["bound_bits"] == 100.0
        assert second["bound_bits"] == 999.0  # cache hit, fresh bound
        assert first["local_bits"] == second["local_bits"]

    def test_stats_describe_mentions_hit_rate(self, tmp_path):
        runner = ShardedRunner(cache_dir=tmp_path, processes=1)
        runner.table1_report(_graphs())
        text = runner.stats().describe()
        assert "hits" in text and "%" in text


# ----------------------------------------------------------------------
# E7/E8 through the runner cache
# ----------------------------------------------------------------------
class TestExperimentsThroughRunner:
    def test_stretch_tradeoff_rows_identical_with_runner(self, tmp_path):
        plain = stretch_tradeoff_experiment(n=24, seed=2)
        runner = ShardedRunner(cache_dir=tmp_path, processes=1)
        cached = stretch_tradeoff_experiment(n=24, seed=2, runner=runner)
        assert cached == plain
        again = stretch_tradeoff_experiment(n=24, seed=2, runner=runner)
        assert again == plain
        assert runner.stats().hits > 0

    def test_special_graphs_rows_identical_with_runner(self, tmp_path):
        kwargs = dict(
            hypercube_dims=(3,),
            complete_sizes=(8,),
            tree_sizes=(15,),
            outerplanar_sizes=(16,),
        )
        plain = special_graphs_experiment(**kwargs)
        runner = ShardedRunner(cache_dir=tmp_path, processes=1)
        cached = special_graphs_experiment(runner=runner, **kwargs)
        assert cached == plain
        again = special_graphs_experiment(runner=runner, **kwargs)
        assert again == plain
        assert runner.stats().hits > 0


# ----------------------------------------------------------------------
# warm reruns: every row from a store record
# ----------------------------------------------------------------------
class TestWarmRowsFromRecords:
    """A rerun against a written store is served wholly from row records.

    The warm runner is a fresh object (a new process's view): nothing it
    returns can come from the cold run's in-process memo.
    """

    @staticmethod
    def _served_from_records(runner):
        cache = runner.cache
        assert cache.misses == 0 and cache.hits > 0
        assert cache.program_hits + cache.program_misses == 0  # no program was touched
        assert cache.degraded_entries == 0

    def test_table1_small_registry(self, tmp_path):
        from repro.sim.registry import graph_families

        graphs = sorted(graph_families("small", seed=0).items())
        cold, _ = ShardedRunner(cache_dir=tmp_path, processes=1).table1_report(graphs)
        warm_runner = ShardedRunner(cache_dir=tmp_path, processes=1)
        warm, stats = warm_runner.table1_report(graphs)
        assert warm == cold
        self._served_from_records(warm_runner)
        assert stats.misses == 0

    def test_repro_simulate_small_registry(self, tmp_path, capsys):
        from repro.cli.main import main

        def simulate():
            assert main(["simulate", "--store", str(tmp_path), "--registry", "small"]) == 0
            rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
            return rows[:-1], rows[-1]

        cold, cold_summary = simulate()
        warm, warm_summary = simulate()
        assert warm == cold
        assert cold_summary["misses"] > 0
        assert (warm_summary["misses"], warm_summary["degraded"]) == (0, 0)
        # One row-record hit per data row; skipped cells hit their cached
        # build-refusal verdict (a program lookup), and nothing is rebuilt.
        assert warm_summary["compile_misses"] == 0
        assert warm_summary["hits"] == warm_summary["cells"] + warm_summary["compile_hits"]
        assert warm_summary["compile_hits"] == warm_summary["skipped"]

    def test_e7_and_e8(self, tmp_path):
        kwargs = dict(
            hypercube_dims=(3, 4),
            complete_sizes=(8,),
            tree_sizes=(15,),
            outerplanar_sizes=(16,),
        )
        cold_runner = ShardedRunner(cache_dir=tmp_path, processes=1)
        cold = (
            special_graphs_experiment(runner=cold_runner, **kwargs),
            stretch_tradeoff_experiment(n=24, seed=2, runner=cold_runner),
        )
        warm_runner = ShardedRunner(cache_dir=tmp_path, processes=1)
        warm = (
            special_graphs_experiment(runner=warm_runner, **kwargs),
            stretch_tradeoff_experiment(n=24, seed=2, runner=warm_runner),
        )
        assert warm == cold
        self._served_from_records(warm_runner)
        assert warm_runner.cache.hits == len(cold[0]) + len(cold[1])
