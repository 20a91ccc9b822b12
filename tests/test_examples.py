"""Smoke tests: the example scripts run end to end on the public API."""

from __future__ import annotations

import pathlib
import subprocess
import sys


_EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def _run(script: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(_EXAMPLES / script), *args],
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )


class TestExampleScripts:
    def test_quickstart(self):
        result = _run("quickstart.py")
        assert result.returncode == 0, result.stderr
        assert "routing-tables" in result.stdout
        assert "cowen-landmark" in result.stdout
        assert "delivered: True" in result.stdout

    def test_petersen_constraints(self):
        result = _run("petersen_constraints.py")
        assert result.returncode == 0, result.stderr
        assert "verified as a shortest-path matrix of constraints: True" in result.stdout
        assert "still forced below stretch 3/2: True" in result.stdout
        assert "still forced at stretch 2:      False" in result.stdout
        assert "matches the figure's canonical form: True" in result.stdout

    def test_lower_bound_demo_small_instance(self):
        result = _run("lower_bound_demo.py", "120", "0.5")
        assert result.returncode == 0, result.stderr
        assert "matrix of constraints verified for every stretch < 2: True" in result.stdout
        assert "matrix rebuilt from the constrained routers' answers: True" in result.stdout

    def test_all_examples_are_present_and_documented(self):
        scripts = sorted(p.name for p in _EXAMPLES.glob("*.py"))
        assert scripts == [
            "lower_bound_demo.py",
            "petersen_constraints.py",
            "quickstart.py",
            "scheme_tradeoffs.py",
        ]
        for script in scripts:
            text = (_EXAMPLES / script).read_text()
            assert text.startswith("#!/usr/bin/env python"), script
            assert '"""' in text, script
