"""Experiment E4 — Lemma 1: exact class counts versus the counting lower bound.

For a sweep of small ``(p, q, d)`` the exact number of equivalence classes is
computed by exhaustive enumeration and compared with the paper's bound
``d^{pq} / (p! q! (d!)^p)``; for the (large) Theorem 1 parameter regimes only
the log-form bound is evaluated (enumeration is of course impossible there —
that is the whole point of the bound).

Each exact count is also timed old-vs-new: the orbit-pruned engine against
the seed's product-walk enumeration (``tests/oracles.py``), which must count
the same classes.
"""

from __future__ import annotations

import math
import time

import pytest

from conftest import print_rows
from oracles import product_walk_canonical_matrices
from repro.analysis.experiments import lemma1_experiment
from repro.constraints.enumeration import (
    count_equivalence_classes,
    lemma1_lower_bound_log2,
    lemma1_simplified_log2,
    normalized_rows,
)
from repro.constraints.lower_bound import theorem1_parameters
from repro.constraints.matrix import clear_canonicalisation_cache

#: Product-walk candidate budget (``|rows|^p * q!``) above which the
#: old-vs-new columns skip the seed's walk.
LEGACY_WORK_CEILING = 200_000


def _old_vs_new(row):
    """Add ``fast_s`` / ``legacy_s`` / ``speedup`` columns to one Lemma 1 row."""
    p, q, d = row["p"], row["q"], row["d"]
    # Cold start: otherwise later cases would be timed against a
    # canonicalisation LRU warmed by earlier ones, while the seed's walk
    # always runs unmemoised.
    clear_canonicalisation_cache()
    start = time.perf_counter()
    exact = count_equivalence_classes(p, q, d)
    fast_s = time.perf_counter() - start
    assert exact == row["exact_classes"]
    row["fast_s"] = fast_s
    if len(normalized_rows(q, d)) ** p * math.factorial(q) > LEGACY_WORK_CEILING:
        row["legacy_s"] = float("nan")
        row["speedup"] = float("nan")
        return row
    start = time.perf_counter()
    legacy = len(product_walk_canonical_matrices(p, q, d))
    row["legacy_s"] = time.perf_counter() - start
    row["speedup"] = row["legacy_s"] / fast_s if fast_s > 0 else float("inf")
    assert legacy == exact, (
        f"enumeration engines disagree at (p={p}, q={q}, d={d}): "
        f"fast counted {exact} classes, legacy {legacy}"
    )
    return row


@pytest.mark.benchmark(group="lemma1")
def test_lemma1_exact_vs_bound(benchmark):
    # One round: the grid now ends at (3, 4, 3) and (2, 6, 3) — a size step
    # beyond the seed.
    rows = benchmark.pedantic(lemma1_experiment, rounds=1, iterations=1)
    rows = [_old_vs_new(row) for row in rows]
    print_rows("Lemma 1: exact |M^d_{p,q}| vs the counting bound (old-vs-new timings)", rows)
    assert all(row["bound_holds"] for row in rows)
    assert all(row["exact_classes"] >= row["lemma1_bound"] for row in rows)


@pytest.mark.benchmark(group="lemma1")
def test_lemma1_log_bound_at_theorem1_scale(benchmark):
    def _evaluate():
        out = []
        for n in (256, 1024, 4096, 16384):
            params = theorem1_parameters(n, 0.5)
            out.append(
                {
                    "n": n,
                    "p": params.p,
                    "q": params.q,
                    "d": params.d,
                    "log2_bound_bits": lemma1_lower_bound_log2(params.p, params.q, params.d),
                    "simplified_bits": lemma1_simplified_log2(params.p, params.q, params.d),
                }
            )
        return out

    rows = benchmark(_evaluate)
    print_rows("Lemma 1 log-form bound at Theorem 1 parameter scales", rows)
    # The bound (total bits over the constrained routers) must grow
    # super-linearly in n: quadrupling n should much more than quadruple it.
    assert rows[-1]["log2_bound_bits"] > 4 * rows[-2]["log2_bound_bits"]
