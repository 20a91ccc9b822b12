"""Tests for the ``repro`` console entry point (`repro.cli`).

The contract under test, per docs/cli.md:

* **Stream shape** — every stdout line is one JSON object; data rows carry
  the subcommand's result-dataclass fields and no ``"event"`` key; skip
  rows and exactly one trailing summary row carry one.
* **Parity** — CLI rows, skip rows and summary counters are
  field-for-field equal to the corresponding
  :class:`~repro.analysis.runner.ShardedRunner` sweep because both consume
  the same :meth:`~repro.analysis.runner.ShardedRunner.stream` of cell
  outcomes over the same spec.
* **Store reuse** — a second sweep against the same ``--store`` is warm:
  ``compile_hit_rate >= 0.95`` (the PR's acceptance bar).
* **Exit codes** — 0 success, 1 ``verify --check`` failure, 2 usage
  errors (unknown scheme/family), with the diagnostic on stderr so stdout
  stays JSONL-pure.

Every flag documented in docs/cli.md is exercised somewhere in this file
(``tests/test_docs.py`` meta-checks that claim).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.runner import ShardedRunner, VerifyCellResult
from repro.cli._output import jsonable
from repro.cli.main import (
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    main,
)
from repro.sim.registry import resolve_families, resolve_schemes

FAST = ["--registry", "small", "--family", "cycle", "--family", "petersen"]
TABLES = ["--scheme", "tables-lowest-port", "--scheme", "tables-highest-port"]


def _run(capsys, argv):
    """Invoke ``main`` in-process; returns ``(code, data, meta, stderr_rows)``."""
    code = main(argv)
    captured = capsys.readouterr()
    rows = [json.loads(line) for line in captured.out.splitlines()]
    err = [json.loads(line) for line in captured.err.splitlines()]
    data = [row for row in rows if "event" not in row]
    meta = [row for row in rows if "event" in row]
    return code, data, meta, err


# ----------------------------------------------------------------------
# stream shape
# ----------------------------------------------------------------------
def test_sweep_streams_jsonl_with_one_trailing_summary(tmp_path, capsys):
    code, data, meta, err = _run(
        capsys, ["sweep", "--store", str(tmp_path), "--seed", "0"] + FAST + TABLES
    )
    assert code == EXIT_OK
    assert err == []
    assert len(data) == 4  # 2 schemes x 2 families, none skipped
    for row in data:
        assert set(row) == {
            "scheme", "family", "n", "kind", "mode", "all_delivered", "steps",
        }
        assert row["all_delivered"] is True
    assert meta[-1]["event"] == "summary"
    assert meta[-1]["command"] == "sweep"
    assert meta[-1]["cells"] == 4
    assert meta[-1]["store"] == str(tmp_path)
    assert [m for m in meta if m["event"] == "summary"] == [meta[-1]]


def test_partial_schemes_stream_skip_rows(tmp_path, capsys):
    # ecube only applies to hypercubes: on cycle/petersen it must skip,
    # not error, and the summary must count the skips.
    code, data, meta, err = _run(
        capsys,
        ["simulate", "--store", str(tmp_path), "--scheme", "ecube"] + FAST,
    )
    assert code == EXIT_OK
    skips = [m for m in meta if m["event"] == "skip"]
    assert {(s["scheme"], s["family"]) for s in skips} == {
        ("ecube", "cycle"),
        ("ecube", "petersen"),
    }
    assert all(s["reason"] for s in skips)
    assert meta[-1]["skipped"] == 2
    assert data == []


# ----------------------------------------------------------------------
# parity with the Python API
# ----------------------------------------------------------------------
#: CLI subcommand -> the ShardedRunner method it mirrors.
RUNNER_METHODS = {
    "sweep": "program_sweep",
    "verify": "verify_sweep",
    "simulate": "conformance_suite",
    "resilience": "resilience_sweep",
    "churn": "churn_sweep",
    "flow": "flow_sweep",
}
#: Per-row wall-clock fields, which differ between any two runs.
WALL_CLOCK = ("delta_seconds", "recompile_seconds", "speedup")


def _as_emitted(rows):
    """Rows as the JSONL stream carries them, minus the wall-clock fields."""
    rows = json.loads(json.dumps(rows, default=jsonable))
    return [{k: v for k, v in row.items() if k not in WALL_CLOCK} for row in rows]


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("command", sorted(RUNNER_METHODS))
def test_sweep_rows_field_equal_to_sharded_runner(tmp_path, capsys, command, jobs):
    # ecube builds on the hypercube and declines the cycle, so the grid has
    # data rows and a skip row; churn patches shortest-path tables only.
    # No two cells share a graph, so even pooled cache counters are
    # deterministic.
    schemes = ["tables-lowest-port" if command == "churn" else "ecube"]
    families = ["cycle", "hypercube"]
    code, data, meta, _ = _run(
        capsys,
        [command, "--store", str(tmp_path / "cli"), "--jobs", str(jobs)]
        + [flag for name in schemes for flag in ("--scheme", name)]
        + [flag for name in families for flag in ("--family", name)],
    )
    assert code == EXIT_OK
    runner = ShardedRunner(cache_dir=tmp_path / "api", processes=jobs)
    results, skipped, stats = getattr(runner, RUNNER_METHODS[command])(
        schemes=resolve_schemes(schemes, seed=0),
        families=resolve_families(families, size="small", seed=0),
    )
    assert data, "the grid must produce data rows"
    assert _as_emitted(data) == _as_emitted(results)
    skip_rows = [(m["scheme"], m["family"]) for m in meta if m["event"] == "skip"]
    assert skip_rows == skipped
    assert skipped == ([] if command == "churn" else [("ecube", "cycle")])
    summary = meta[-1]
    assert (summary["cells"], summary["skipped"]) == (len(results), len(skipped))
    for field in ("hits", "misses", "compile_hits", "compile_misses", "degraded"):
        assert summary[field] == getattr(stats, field), field


def test_each_invocation_owns_its_cache(tmp_path, capsys):
    """A second in-process ``main`` against a deleted store recompiles to disk."""
    import shutil

    store = tmp_path / "store"
    argv = ["sweep", "--store", str(store), "--registry", "small",
            "--family", "cycle", "--scheme", "tables-lowest-port"]
    _, _, first, _ = _run(capsys, argv)
    assert first[-1]["compile_misses"] == 1
    shutil.rmtree(store)
    code, data, second, _ = _run(capsys, argv)
    assert code == EXIT_OK and len(data) == 1
    assert second[-1]["compile_misses"] == 1
    assert second[-1]["compile_hit_rate"] == 0.0
    assert (store / "manifest.jsonl").is_file()


def test_pooled_jobs_stream_the_same_rows_in_payload_order(tmp_path, capsys):
    argv_tail = FAST + TABLES
    code, serial, _, _ = _run(
        capsys, ["verify", "--store", str(tmp_path / "a"), "--jobs", "1"] + argv_tail
    )
    assert code == EXIT_OK
    code, pooled, _, _ = _run(
        capsys, ["verify", "--store", str(tmp_path / "b"), "--jobs", "2"] + argv_tail
    )
    assert code == EXIT_OK
    assert pooled == serial


# ----------------------------------------------------------------------
# the shared store
# ----------------------------------------------------------------------
def test_second_sweep_is_warm(tmp_path, capsys):
    argv = ["sweep", "--store", str(tmp_path)] + FAST + TABLES
    _, _, cold_meta, _ = _run(capsys, argv)
    assert cold_meta[-1]["compile_hit_rate"] < 1.0
    code, data, warm_meta, _ = _run(capsys, argv)
    assert code == EXIT_OK
    assert len(data) == 4
    assert warm_meta[-1]["compile_hit_rate"] >= 0.95
    assert warm_meta[-1]["compile_misses"] == 0
    assert warm_meta[-1]["degraded"] == 0


def test_compile_rows_expose_content_addresses(tmp_path, capsys):
    code, data, _, _ = _run(
        capsys,
        ["compile", "--store", str(tmp_path), "--registry", "small",
         "--family", "petersen", "--scheme", "tables-lowest-port",
         "--scheme", "tables-highest-port", "--scheme", "tables-lowest-neighbor"],
    )
    assert code == EXIT_OK
    assert len(data) == 3
    # All three tie-breaks lower identically on petersen: one shared object.
    assert len({row["object_id"] for row in data}) == 1
    path = (
        Path(tmp_path) / "objects" / data[0]["object_id"][:2]
        / f"{data[0]['object_id']}.rpg"
    )
    assert path.is_file()
    assert path.stat().st_size == data[0]["nbytes"]


def test_store_ls_info_gc_cycle(tmp_path, capsys):
    _run(capsys, ["compile", "--store", str(tmp_path)] + FAST + TABLES)
    code, records, _, _ = _run(capsys, ["store", "ls", "--store", str(tmp_path)])
    assert code == EXIT_OK
    assert len(records) == 4  # one manifest record per cell key
    assert all(record["object_id"] for record in records)
    code, (info,), _, _ = _run(capsys, ["store", "info", "--store", str(tmp_path)])
    assert code == EXIT_OK
    assert info["records"] == 4
    assert info["objects"] >= 1
    assert info["object_bytes"] > 0
    code, (gc_row,), _, _ = _run(
        capsys, ["store", "gc", "--store", str(tmp_path), "--max-bytes", "0"]
    )
    assert code == EXIT_OK
    assert gc_row["evicted_objects"] == info["objects"]
    assert gc_row["live_objects"] == 0
    assert gc_row["store"] == str(tmp_path)
    code, (after,), _, _ = _run(capsys, ["store", "info", "--store", str(tmp_path)])
    assert after["objects"] == 0 and after["records"] == 0


def test_store_env_var_is_the_default_root(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_STORE", str(tmp_path / "from-env"))
    code, _, meta, _ = _run(
        capsys, ["compile", "--family", "cycle", "--scheme", "tables-lowest-port"]
    )
    assert code == EXIT_OK
    assert meta[-1]["store"] == str(tmp_path / "from-env")
    assert (tmp_path / "from-env" / "manifest.jsonl").is_file()


# ----------------------------------------------------------------------
# the other sweeps: every documented flag gets exercised
# ----------------------------------------------------------------------
def test_verify_rows_and_check_pass(tmp_path, capsys):
    code, data, _, _ = _run(
        capsys, ["verify", "--check", "--store", str(tmp_path)] + FAST + TABLES
    )
    assert code == EXIT_OK  # registry schemes deliver everywhere
    assert len(data) == 4
    for row in data:
        assert row["verified"] and row["all_delivered"] and not row["issues"]
        assert row["max_finite_hops"] >= 1


def test_verify_check_fails_on_a_non_delivering_cell(tmp_path, capsys, monkeypatch):
    import repro.analysis.runner as runner_mod

    failing = VerifyCellResult(
        scheme="tables-lowest-port", family="cycle", n=3, kind="next_hop",
        verified=True, all_delivered=False, delivered=5, livelocked=4,
        misdelivered=0, dropped=0, max_finite_hops=2, issues=("livelock",),
    )
    monkeypatch.setattr(runner_mod, "_verify_cell", lambda *args, **kwargs: failing)
    code, data, _, _ = _run(
        capsys,
        ["verify", "--check", "--store", str(tmp_path), "--family", "cycle",
         "--scheme", "tables-lowest-port"],
    )
    assert code == EXIT_CHECK_FAILED
    assert data[0]["issues"] == ["livelock"]


def test_resilience_flags(tmp_path, capsys):
    code, data, meta, _ = _run(
        capsys,
        ["resilience", "--store", str(tmp_path), "--registry", "small",
         "--family", "cycle", "--scheme", "tables-lowest-port",
         "--edge-k", "1", "--node-k", "1", "--per-k", "1",
         "--flow", "uniform", "--demand-seed", "1"],
    )
    assert code == EXIT_OK
    assert data  # one row per fault scenario
    for row in data:
        assert row["scheme"] == "tables-lowest-port"
        assert row["family"] == "cycle"
    assert meta[-1]["command"] == "resilience"


def test_churn_flags_and_default_scheme_subset(tmp_path, capsys):
    code, data, meta, _ = _run(
        capsys,
        ["churn", "--store", str(tmp_path), "--registry", "small",
         "--family", "cycle", "--steps", "2", "--flips-per-step", "1",
         "--no-verify", "--flow", "uniform", "--demand-seed", "0", "--seed", "1"],
    )
    assert code == EXIT_OK
    assert data
    # Without --scheme, churn defaults to the full-table schemes only.
    assert {row["scheme"] for row in data} <= {
        "tables-lowest-port", "tables-highest-port", "tables-lowest-neighbor",
    }
    assert meta[-1]["command"] == "churn"


def test_churn_verifies_by_recompiling_unless_no_verify(tmp_path, capsys):
    # By default every step recompiles and compares fingerprints (no static
    # proof runs); --no-verify drops that check and its three fields.
    argv = ["churn", "--registry", "small", "--family", "cycle",
            "--scheme", "tables-lowest-port", "--steps", "2"]
    code, checked, _, _ = _run(capsys, argv + ["--store", str(tmp_path / "a")])
    assert code == EXIT_OK and checked
    for row in checked:
        assert row["recompile_seconds"] is not None
        assert row["speedup"] is not None
        assert row["outcome_equal"] is True
    code, unchecked, _, _ = _run(
        capsys, argv + ["--store", str(tmp_path / "b"), "--no-verify"]
    )
    assert code == EXIT_OK and len(unchecked) == len(checked)
    for row in unchecked:
        assert row["recompile_seconds"] is None
        assert row["speedup"] is None
        assert row["outcome_equal"] is None


def test_flow_flags(tmp_path, capsys):
    code, data, _, _ = _run(
        capsys,
        ["flow", "--store", str(tmp_path), "--family", "cycle",
         "--scheme", "tables-lowest-port", "--model", "uniform",
         "--model", "zipf", "--demand-seed", "2", "--total", "1000"],
    )
    assert code == EXIT_OK
    assert {row["demand_model"] for row in data} == {"uniform", "zipf"}


# ----------------------------------------------------------------------
# exit codes and error rows
# ----------------------------------------------------------------------
def test_unknown_scheme_is_a_usage_error_on_stderr(tmp_path, capsys):
    code, data, meta, err = _run(
        capsys, ["sweep", "--store", str(tmp_path), "--scheme", "no-such-scheme"]
    )
    assert code == EXIT_USAGE
    assert data == [] and meta == []  # stdout stays JSONL-pure and empty
    assert err[0]["event"] == "error"
    assert "no-such-scheme" in err[0]["message"]
    assert "choices" in err[0]["message"]


def test_unknown_family_is_a_usage_error(tmp_path, capsys):
    code, _, _, err = _run(
        capsys, ["verify", "--store", str(tmp_path), "--family", "moebius"]
    )
    assert code == EXIT_USAGE
    assert "moebius" in err[0]["message"]


def test_argparse_rejects_unknown_subcommands_with_exit_2():
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(["frobnicate"])
    assert excinfo.value.code == 2


# ----------------------------------------------------------------------
# the installed surface
# ----------------------------------------------------------------------
def test_python_m_repro_cli_smoke(tmp_path):
    """`python -m repro.cli` works end to end in a fresh interpreter."""
    repo = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(repo / "src"))
    run = subprocess.run(
        [sys.executable, "-m", "repro.cli", "compile", "--store", str(tmp_path),
         "--family", "petersen", "--scheme", "tables-lowest-port"],
        capture_output=True, text=True, env=env, cwd=repo, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    rows = [json.loads(line) for line in run.stdout.splitlines()]
    assert rows[-1]["event"] == "summary"
    assert any("object_id" in row for row in rows)
    run = subprocess.run(
        [sys.executable, "-m", "repro.cli", "store", "info", "--store", str(tmp_path)],
        capture_output=True, text=True, env=env, cwd=repo, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    info = json.loads(run.stdout.splitlines()[0])
    assert info["programs"] == 1


def test_console_script_is_declared():
    root = Path(__file__).resolve().parent.parent
    pyproject = (root / "pyproject.toml").read_text()
    assert 'repro = "repro.cli.main:main"' in pyproject
