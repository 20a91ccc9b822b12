"""Drift probe: a fixed unit of CPU work whose wall time tracks machine speed.

On a shared VM the same pure-Python loop can take 50% longer a minute
later.  The benchmark times this probe around every timed unit and
converts each raw wall time to *reference seconds*::

    ref_s = raw_s * probe_ref_s / probe_s

where ``probe_ref_s`` is a constant fixed in ``BENCHMARK.json`` (passed on
the command line).  The probe mixes the two kinds of work the pipeline
does: Python-level dict/int churn (scheme builds, lowering loops) and a
small numpy ``bincount`` pass (vectorised kernels).
"""

from __future__ import annotations

import time

import numpy as np

_LOOP = 150_000
_KEYS = np.random.default_rng(12345).integers(0, 4096, size=1_000_000)


def probe() -> float:
    """Wall seconds of one fixed probe run (~0.05 s on a 2-vCPU VM)."""
    start = time.perf_counter()
    table = {}
    for i in range(_LOOP):
        key = (i * 7919) & 4095
        table[key] = table.get(key, 0) + i
    total = 0
    for _ in range(6):
        total += int(np.bincount(_KEYS, minlength=4096).max())
    elapsed = time.perf_counter() - start
    if total <= 0 or len(table) != 4096:
        raise RuntimeError("probe computed a wrong result")
    return elapsed


def probe_point(samples: int = 6) -> list:
    """Several back-to-back probes; the caller picks a robust statistic."""
    return [probe() for _ in range(samples)]
