"""Shared helpers for the benchmark harness.

Every benchmark module regenerates one artifact of the paper (see
DESIGN.md, "Per-experiment index") and prints the reproduced rows so that
``pytest benchmarks/ --benchmark-only -s`` shows the tables next to the
timing results recorded by pytest-benchmark.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Mapping, Sequence

import pytest

# The old-vs-new pins race the slow oracles of ``tests/oracles.py``.
# Appended, not prepended, so ``conftest`` keeps resolving to this module.
_TESTS = str(Path(__file__).resolve().parent.parent / "tests")
if _TESTS not in sys.path:
    sys.path.append(_TESTS)


@pytest.fixture(scope="session", autouse=True)
def _sweep_heap_policy() -> None:
    """Apply the sweep heap policy once per bench session.

    The policy is process-wide and a ``ShardedRunner`` applies it when
    built, so without this a pin that builds no runner would measure
    under glibc's defaults or under the policy depending on test order.
    """
    from repro.analysis.runner import _steady_heap

    _steady_heap()


def print_rows(title: str, rows: Sequence[Mapping[str, object]]) -> None:
    """Print a list of result dictionaries as an aligned text table."""
    print(f"\n=== {title} ===")
    if not rows:
        print("(no rows)")
        return
    keys = list(rows[0].keys())
    header = " | ".join(f"{k:>24}" for k in keys)
    print(header)
    print("-" * len(header))
    for row in rows:
        cells = []
        for k in keys:
            value = row.get(k, "")
            if isinstance(value, float):
                cells.append(f"{value:>24.2f}")
            else:
                cells.append(f"{str(value):>24}")
        print(" | ".join(cells))
