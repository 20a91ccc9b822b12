"""The out-of-tree layer tracer still finds every entry point it wraps.

``pipebench/tracer.py`` patches pipeline entry points by name (module
functions, and methods looked up in a class body) for ``--trace 1`` runs.
Nothing else imports it, so a rename under ``src/`` would only break a
traced benchmark run; this test installs and uninstalls the tracer and
checks that every wrapped name exists, was wrapped, and is restored.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

from repro.sim.engine import SimulationResult
from repro.sim.faults import FaultSimulationResult

PIPEBENCH = Path(__file__).resolve().parent.parent / "pipebench"

#: The simulation-layer entry points the tracer wraps by name.
SIM_ENTRY_POINTS = {
    "execute_program",
    "simulate_all_pairs",
    "execute_masked_program",
    "apply_faults",
    "verify_program",
}


@pytest.fixture()
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PIPEBENCH))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    yield importlib.import_module("tracer")
    sys.modules.pop("tracer", None)


def test_tracer_install_wraps_and_uninstall_restores_every_entry_point(tracer):
    run = tracer.install()
    try:
        patched = list(run._restore)
        for owner, name, original in patched:
            assert getattr(owner, name) is not original, (owner, name)
    finally:
        run.uninstall()
    for owner, name, original in patched:
        assert getattr(owner, name) is original, (owner, name)

    names = {name for _, name, _ in patched}
    assert SIM_ENTRY_POINTS <= names
    # max_stretch is looked up in each result class's own body.
    for cls in (SimulationResult, FaultSimulationResult):
        assert "max_stretch" in vars(cls)
        assert (cls, "max_stretch") in {(owner, name) for owner, name, _ in patched}
