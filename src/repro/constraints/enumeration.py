"""Enumeration and counting of constraint-matrix equivalence classes (Lemma 1).

The engine of the paper's lower bound is that the number ``|M^d_{p,q}|`` of
equivalence classes of ``p x q`` matrices with entries in ``{1..d}`` is huge:

.. math::

    |M^d_{p,q}| \\;\\ge\\; \\frac{d^{pq}}{p!\\, q!\\, (d!)^p}

because at most ``p! q! (d!)^p`` matrices are pairwise equivalent (Lemma 1).
Hence some class needs ``log2 |M^d_{p,q}|`` bits to be described, which is at
least ``pq log d - p d log d - q log q - p log p`` up to lower-order terms.

This module provides

* :func:`iter_canonical_matrices` — streaming (incremental-delay)
  enumeration of the canonical representatives for small ``p, q, d``;
* :func:`enumerate_canonical_matrices` — the same representatives as a
  sorted list (used to reproduce the seven representatives of the paper's
  Equation (2) and to validate Lemma 1 against exact counts);
* :func:`count_equivalence_classes` — the exact class count;
* :func:`lemma1_lower_bound` / :func:`lemma1_lower_bound_log2` — the paper's
  counting bound, exact (as a fraction) and in bits;
* :func:`normalized_rows` — the row-normal rows of length ``q`` over at most
  ``d`` values, the natural search space of the enumeration.

Performance notes
-----------------
The enumeration is *orbit-pruned*: every equivalence class contains a
canonical representative whose rows are row-normal **and lexicographically
sorted** (the canonical form sorts its normalised rows), so walking
``combinations_with_replacement`` over the sorted row-normal rows — instead
of the seed's ``itertools.product`` over all ``p``-tuples — covers every
class while cutting the candidate space by a factor of ``~p!``.  Candidates
are then bucketed by their cheap :func:`canonical_form_greedy` key: the
greedy map only ever applies Definition 2 operations, so two matrices with
the same greedy key are *guaranteed* equivalent and only one exact
:func:`canonical_form` pass per distinct greedy key is needed (buckets whose
exact keys collide are merged afterwards — the greedy key is not a class
invariant, so distinct buckets may still canonicalise to the same class).
The exact passes are memoised behind the bounded LRU of
:mod:`repro.constraints.matrix` and run in the calling process, one per new
greedy bucket, as the walk discovers it.

:func:`iter_canonical_matrices` streams representatives as they are
discovered, following the incremental-delay framing of enumeration
complexity: consumers that only need the first few classes (or a count
prefix) never pay for the full space.  The seed's exhaustive
product-and-canonicalise walk is the test oracle of this engine
(``tests/oracles.py``), which must return exactly the same representatives.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterator, List, Sequence, Set, Tuple

import numpy as np

from repro.constraints.matrix import (
    ConstraintMatrix,
    canonical_form,
    canonical_form_greedy,
)
from repro.memory.encoding import log2_factorial

__all__ = [
    "MAX_CELLS",
    "normalized_rows",
    "iter_canonical_matrices",
    "enumerate_canonical_matrices",
    "count_equivalence_classes",
    "lemma1_lower_bound",
    "lemma1_lower_bound_log2",
    "lemma1_simplified_log2",
    "class_count_upper_bound_log2",
]


def normalized_rows(q: int, d: int) -> List[Tuple[int, ...]]:
    """All row-normal rows of length ``q`` using at most ``d`` distinct values.

    A row-normal row is a restricted-growth string shifted to start at 1:
    its first entry is 1 and every entry is at most one more than the
    maximum of the preceding entries (and never exceeds ``d``).  Every row
    with entries in ``{1..d}`` is value-relabelling equivalent to exactly one
    row-normal row, so these rows are the per-row search space of the
    enumeration.
    """
    if q < 1 or d < 1:
        raise ValueError("q and d must be positive")
    rows: List[Tuple[int, ...]] = []

    def _extend(prefix: List[int], current_max: int) -> None:
        if len(prefix) == q:
            rows.append(tuple(prefix))
            return
        limit = min(current_max + 1, d)
        for value in range(1, limit + 1):
            prefix.append(value)
            _extend(prefix, max(current_max, value))
            prefix.pop()

    _extend([], 0)
    return rows


#: Cap on ``p * q`` that keeps the exhaustive search tractable (the
#: row-normal space still grows like ``Bell-number(q)^p``).
MAX_CELLS = 24


def _validate_enumeration_parameters(p: int, q: int, d: int) -> None:
    if p < 1 or q < 1 or d < 1:
        raise ValueError("p, q and d must be positive")
    if p * q > MAX_CELLS:
        raise ValueError(
            f"exhaustive enumeration limited to p*q <= MAX_CELLS ({MAX_CELLS}); "
            "use lemma1_lower_bound for larger parameters"
        )


def _greedy_key(combo: Tuple[Tuple[int, ...], ...]) -> Tuple[int, ...]:
    arr = np.array(combo, dtype=np.int64)
    return tuple(int(x) for x in canonical_form_greedy(arr).reshape(-1))


def _new_greedy_buckets(
    rows: Sequence[Tuple[int, ...]], p: int
) -> Iterator[Tuple[Tuple[int, ...], ...]]:
    """One representative per distinct greedy-canonical bucket, streamed.

    Walks the orbit-pruned candidate space (``combinations_with_replacement``
    over the lexicographically generated row-normal rows) and yields the
    first candidate of every new greedy bucket.  Matrices sharing a greedy
    key are equivalent, so skipping the rest of a bucket never loses a
    class.
    """
    greedy_seen: Set[Tuple[int, ...]] = set()
    for combo in itertools.combinations_with_replacement(rows, p):
        key = _greedy_key(combo)
        if key not in greedy_seen:
            greedy_seen.add(key)
            yield combo


def iter_canonical_matrices(p: int, q: int, d: int) -> Iterator[ConstraintMatrix]:
    """Stream the canonical representatives of ``M^d_{p,q}`` as discovered.

    Yields each equivalence class exactly once, in discovery order of the
    orbit-pruned walk (use :func:`enumerate_canonical_matrices` for the
    sorted list).  See the module docstring for the pruning/bucketing
    scheme; ``p * q`` is capped at :data:`MAX_CELLS`.
    """
    _validate_enumeration_parameters(p, q, d)
    canon_seen: Set[Tuple[Tuple[int, ...], ...]] = set()
    for combo in _new_greedy_buckets(normalized_rows(q, d), p):
        canon = canonical_form(np.array(combo, dtype=np.int64))
        entries = tuple(tuple(int(x) for x in row) for row in canon)
        if entries not in canon_seen:
            canon_seen.add(entries)
            yield ConstraintMatrix.from_entries(entries)


def enumerate_canonical_matrices(p: int, q: int, d: int) -> List[ConstraintMatrix]:
    """Enumerate the canonical representatives of ``M^d_{p,q}``, sorted.

    Returns the distinct canonical representatives sorted by their flattened
    entry sequence — the same set (and order) as the seed's exhaustive walk,
    via the orbit-pruned engine of :func:`iter_canonical_matrices`.
    """
    representatives = list(iter_canonical_matrices(p, q, d))
    representatives.sort(key=lambda m: m.entries)
    return representatives


def count_equivalence_classes(p: int, q: int, d: int) -> int:
    """Exact ``|M^d_{p,q}|`` by exhaustive enumeration (small parameters only)."""
    return sum(1 for _ in iter_canonical_matrices(p, q, d))


def lemma1_lower_bound(p: int, q: int, d: int) -> Fraction:
    """Lemma 1: ``|M^d_{p,q}| >= d^{pq} / (p! q! (d!)^p)`` as an exact fraction."""
    if p < 1 or q < 1 or d < 1:
        raise ValueError("p, q and d must be positive")
    numerator = Fraction(d) ** (p * q)
    denominator = (
        Fraction(math.factorial(p))
        * Fraction(math.factorial(q))
        * Fraction(math.factorial(d)) ** p
    )
    return numerator / denominator


def lemma1_lower_bound_log2(p: int, q: int, d: int) -> float:
    """``log2`` of the Lemma 1 bound, computed in floating point for large parameters.

    Returns 0 when the bound is below 1 (the bound is vacuous there).
    """
    if p < 1 or q < 1 or d < 1:
        raise ValueError("p, q and d must be positive")
    value = (
        p * q * math.log2(d)
        - log2_factorial(p)
        - log2_factorial(q)
        - p * log2_factorial(d)
    )
    return max(value, 0.0)


def lemma1_simplified_log2(p: int, q: int, d: int) -> float:
    """The simplified form quoted in the paper: ``pq log d - p d log d - q log q - p log p``.

    Uses ``log2``; always a lower bound on :func:`lemma1_lower_bound_log2`
    because ``log2(x!) <= x log2 x``.  Returns 0 when negative.
    """
    if p < 1 or q < 1 or d < 1:
        raise ValueError("p, q and d must be positive")
    logd = math.log2(d) if d > 1 else 0.0
    value = (
        p * q * logd
        - p * d * logd
        - q * (math.log2(q) if q > 1 else 0.0)
        - p * (math.log2(p) if p > 1 else 0.0)
    )
    return max(value, 0.0)


def class_count_upper_bound_log2(p: int, q: int, d: int) -> float:
    """Trivial upper bound ``log2(d^{pq}) = pq log2 d`` on the class count."""
    if p < 1 or q < 1 or d < 1:
        raise ValueError("p, q and d must be positive")
    return p * q * (math.log2(d) if d > 1 else 0.0)
