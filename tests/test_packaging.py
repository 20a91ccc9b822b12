"""Packaging and CI-pipeline contracts.

The repo installs as a real package (``pip install -e .[test]``) and every
CI job relies on that instead of hand-listed dependencies and ``PYTHONPATH``
hacks; the scheduled bench-trajectory workflow records timestamped
``BENCH_<run>.json`` points against ``BENCH_baseline.json``.  These tests
pin the *contracts* — metadata parseability, the src layout, the extras the
workflows install, the absence of PYTHONPATH plumbing, the trajectory
workflow's triggers — so a CI edit that silently breaks them fails the
suite locally, not on the next nightly run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10: stdlib tomllib arrives in 3.11
    tomllib = None

REPO = Path(__file__).resolve().parent.parent
WORKFLOWS = REPO / ".github" / "workflows"


def _pyproject() -> dict:
    if tomllib is None:
        pytest.skip("tomllib unavailable before Python 3.11")
    with (REPO / "pyproject.toml").open("rb") as handle:
        return tomllib.load(handle)


def test_pyproject_declares_src_layout_deps_and_extras():
    cfg = _pyproject()
    project = cfg["project"]
    assert project["name"]
    assert project["version"]
    deps = " ".join(project["dependencies"])
    assert "numpy" in deps, "numpy missing from install dependencies"
    # scipy is only the distance oracle of the tests and benchmarks;
    # networkx only the sampler and isomorphism oracle of the tests.
    assert "scipy" not in deps, "scipy is not a runtime dependency"
    assert "networkx" not in deps, "networkx is not a runtime dependency"
    extras = project["optional-dependencies"]
    assert "test" in extras and "bench" in extras
    test_extra = " ".join(extras["test"])
    for tool in ("pytest", "hypothesis", "pytest-benchmark", "pytest-cov", "scipy", "networkx"):
        assert tool in test_extra, f"{tool} missing from the test extra"
    assert "scipy" in " ".join(extras["bench"]), "scipy missing from the bench extra"
    assert cfg["tool"]["setuptools"]["packages"]["find"]["where"] == ["src"]
    assert cfg["build-system"]["build-backend"] == "setuptools.build_meta"
    assert project["scripts"]["repro"] == "repro.cli.main:main"


def test_no_module_or_medium_sweep_imports_networkx(tmp_path):
    # Every repro module, then a cold medium sweep (its random-regular
    # family and the hypercube test of e-cube routing included), in a fresh
    # interpreter: networkx is a test extra, never imported by the package.
    code = f"""
import importlib, io, pkgutil, sys
from contextlib import redirect_stdout
import repro
from repro.cli.main import main

for info in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(info.name)
rows = io.StringIO()
with redirect_stdout(rows):
    assert main(["sweep", "--registry", "medium", "--store", {str(tmp_path)!r}]) == 0
assert '"family": "random-regular"' in rows.getvalue()
assert '"scheme": "ecube"' in rows.getvalue()
print(sorted(m for m in sys.modules if m.split(".")[0] == "networkx"))
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "[]"


def test_package_resolves_from_the_src_layout():
    from setuptools import find_packages

    packages = set(find_packages(str(REPO / "src")))
    expected = {
        "repro",
        "repro.analysis",
        "repro.cli",
        "repro.constraints",
        "repro.graphs",
        "repro.memory",
        "repro.routing",
        "repro.sim",
    }
    assert expected <= packages, f"missing packages: {expected - packages}"


def test_ci_jobs_install_editable_with_test_extras_and_no_pythonpath():
    text = (WORKFLOWS / "ci.yml").read_text()
    assert "pip install -e .[test]" in text
    # The PYTHONPATH era is over: jobs run against the installed package.
    assert "PYTHONPATH" not in text
    # No hand-listed runtime dependency installs outside pyproject: ruff
    # (lint job) and build + the built wheel (cli-smoke job) are the only
    # standalone installs.
    for line in text.splitlines():
        if "pip install" in line and "-e ." not in line:
            allowed = ("ruff" in line, "build" in line, ".whl" in line)
            assert any(allowed), f"hand-listed dependency install: {line.strip()}"
    assert "concurrency:" in text
    assert "cancel-in-progress:" in text
    assert "--cov=repro" in text and "--cov-fail-under" in text
    assert "coverage.xml" in text and "upload-artifact" in text


def test_cli_smoke_job_exercises_the_installed_wheel():
    text = (WORKFLOWS / "ci.yml").read_text()
    assert "cli-smoke:" in text
    assert "python -m build --wheel" in text
    assert "pip install dist/*.whl" in text
    # The smoke runs the console script itself (not `python -m`) against a
    # non-editable install, from outside the checkout.
    for invocation in ("repro compile", "repro verify", "repro store ls"):
        assert invocation in text, f"cli-smoke never runs `{invocation}`"
    assert "working-directory" in text


def test_bench_trajectory_workflow_is_scheduled_and_records_runs():
    text = (WORKFLOWS / "bench-trajectory.yml").read_text()
    assert "schedule:" in text and "cron:" in text
    assert "workflow_dispatch:" in text
    assert "--write-run" in text
    assert "BENCH_" in text and "upload-artifact" in text
    assert "pip install -e .[test,bench]" in text
    assert "PYTHONPATH" not in text
    # The nightly run is where the hypothesis-driven suites go deep.
    assert "REPRO_HYP_PROFILE: dev" in text
    assert "tests/test_churn.py" in text
    assert "tests/test_tables.py" in text  # the dirty-entry patch race


def test_bench_baseline_pins_the_resilience_sweep():
    with (REPO / "benchmarks" / "BENCH_baseline.json").open() as handle:
        baseline = json.load(handle)
    pinned = baseline["pinned_paths"]
    assert "resilience_sweep_warm_medium" in pinned
    assert pinned["resilience_sweep_warm_medium"]["compile_hit_rate_floor"] >= 0.95
    assert pinned["program_sweep_warm_medium"]["compile_hit_rate_floor"] >= 0.95
    assert "churn_delta_flip_n1024" in pinned
    for entry in pinned.values():
        assert entry["seconds"] > 0
