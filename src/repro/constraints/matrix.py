"""Generalized matrices of constraints (Section 2 of the paper).

A *generalized matrix of constraints* of a graph ``G`` at stretch ``s`` is a
``p x q`` integer matrix ``M = (m_ij)`` together with constrained vertices
``A = {a_1..a_p}``, target vertices ``B = {b_1..b_q}`` and per-row maps
``phi_i`` from entry values to arcs, such that **every** routing function of
stretch at most ``s`` on ``G`` sends a message from ``a_i`` to ``b_j``
through the arc ``phi_i(m_ij)`` — equivalently, through the output port
labelled ``m_ij`` once the ports of ``a_i`` are labelled accordingly.

Two matrices are *equivalent* (Definition 2) when one can be obtained from
the other by permuting rows, permuting columns, and permuting the entry
values within each row — these operations correspond to relabelling the
constrained vertices, the target vertices and the output ports respectively,
none of which changes the underlying routing problem.  Each equivalence
class is represented by a *canonical* member minimising an index; the number
of classes (Lemma 1, :mod:`repro.constraints.enumeration`) is the engine of
the Theorem 1 lower bound.

This module implements the matrix object, the paper's row-normal form, the
equivalence relation, the index and exact canonicalisation (exhaustive over
row/column permutations, with per-row value relabelling resolved greedily —
optimal for the lexicographic order used here), plus a fast greedy
canonicalisation heuristic used by the ablation benchmark and by Theorem 1's
reconstruction beyond the exact limit.  One constant, :data:`EXACT_LIMIT`,
caps both dimensions of every exact canonicalisation, and with it the
Definition 2 equality and hashing of :class:`ConstraintMatrix`.

Performance notes
-----------------
:func:`canonical_form` is a hot path of the Lemma 1 enumeration engine.  It
is implemented by stacking all ``q!`` column orders into one batched 3-D
numpy array, row-normalising every candidate at once
(:func:`_row_normal_form_batch`) and selecting the lexicographic minimum via
integer row codes — no Python-level loop over permutations.  Results are
memoised behind a bounded LRU keyed on the flattened entries, so repeated
canonicalisation of the same matrix (the enumeration's bucket passes, the
instance-level :meth:`ConstraintMatrix.canonical` cache, equality tests) is
a dictionary lookup.  At the limit the candidate tensor holds
``8! * 8 * 8`` (about 2.6 million) cells.  The seed's permutation-loop
implementation is the test oracle (``tests/oracles.py``), which must agree
bit-for-bit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "ConstraintMatrix",
    "row_normal_form",
    "matrix_index",
    "EXACT_LIMIT",
    "canonical_form",
    "canonical_form_greedy",
    "are_equivalent",
    "clear_canonicalisation_cache",
]

MatrixLike = Sequence[Sequence[int]]


def _as_array(entries: MatrixLike) -> np.ndarray:
    arr = np.asarray(entries, dtype=np.int64)
    if arr.ndim != 2:
        raise ValueError(f"constraint matrices are 2-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError("constraint matrices must be non-empty")
    if (arr < 1).any():
        raise ValueError("entries must be positive integers (port labels start at 1)")
    return arr


def row_normal_form(entries: MatrixLike) -> np.ndarray:
    """Relabel each row's values by order of first occurrence.

    The result satisfies Definition 1's normalisation: the entries of row
    ``i`` form the set ``{1, ..., r_i}`` where ``r_i`` is the number of
    distinct values in the row, and the first occurrences appear in
    increasing order.  For a fixed row/column order this is the
    lexicographically smallest row-wise value relabelling, which is why the
    exact canonicalisation below only needs to search over row and column
    permutations.
    """
    arr = _as_array(entries)
    out = np.empty_like(arr)
    for i in range(arr.shape[0]):
        mapping: Dict[int, int] = {}
        for j in range(arr.shape[1]):
            value = int(arr[i, j])
            if value not in mapping:
                mapping[value] = len(mapping) + 1
            out[i, j] = mapping[value]
    return out


def matrix_index(entries: MatrixLike, base: Optional[int] = None) -> int:
    """The paper's index: the row-major entry sequence read as a number.

    The paper reads the concatenated rows in base ``q`` (the number of
    columns); because entries may exceed ``q - 1`` this is not a positional
    system, so ties are possible.  The library therefore uses
    ``base = max(q, d) + 1`` by default — a strictly monotone version of the
    same quantity whose minimisation coincides with lexicographic
    minimisation of the flattened matrix; the original base-``q`` value is
    available by passing ``base=q`` explicitly.
    """
    arr = _as_array(entries)
    p, q = arr.shape
    if base is None:
        base = int(max(q, arr.max())) + 1
    index = 0
    for value in arr.reshape(-1):
        index = index * base + int(value)
    return index


def _flatten_key(arr: np.ndarray) -> Tuple[int, ...]:
    return tuple(int(x) for x in arr.reshape(-1))


#: Largest dimension (``max(p, q)``) exact canonicalisation accepts: the
#: search visits ``q!`` column orders, so one more column multiplies it by 9.
EXACT_LIMIT = 8


def _check_exact_limit(p: int, q: int) -> None:
    if max(p, q) > EXACT_LIMIT:
        raise ValueError(
            f"exact canonicalisation is limited to dimensions <= EXACT_LIMIT "
            f"({EXACT_LIMIT}), got {p}x{q}; use canonical_form_greedy for larger matrices"
        )


@lru_cache(maxsize=None)
def _permutation_array(q: int) -> np.ndarray:
    """All permutations of ``range(q)`` as a read-only ``(q!, q)`` array."""
    perms = np.array(list(itertools.permutations(range(q))), dtype=np.int64)
    perms.setflags(write=False)
    return perms


def _row_normal_form_batch(batch: np.ndarray) -> np.ndarray:
    """Row-normal form of every row of a ``(B, q)`` batch, fully vectorised.

    Equivalent to applying :func:`row_normal_form` row by row: each row's
    values are relabelled ``1..r`` in order of first occurrence.  Works by
    scattering column positions into a ``(B, max_value + 1)`` first-occurrence
    table (an unbuffered ``minimum.at`` reduction, so duplicate values keep
    their smallest column) and ranking the used values by that position.
    """
    B, q = batch.shape
    vmax = int(batch.max())
    if vmax > 4 * q:
        # Compress sparse value sets first so the first-occurrence table
        # stays small even for matrices with huge port labels.
        _, inverse = np.unique(batch, return_inverse=True)
        batch = inverse.reshape(B, q) + 1
        vmax = int(batch.max())
    flat = batch.reshape(-1)
    rows = np.repeat(np.arange(B, dtype=np.int64), q)
    cols = np.tile(np.arange(q, dtype=np.int64), B)
    first = np.full((B, vmax + 1), q, dtype=np.int64)
    np.minimum.at(first, (rows, flat), cols)
    order = np.argsort(first, axis=1, kind="stable")
    rank = np.empty_like(order)
    np.put_along_axis(
        rank, order, np.broadcast_to(np.arange(vmax + 1, dtype=np.int64), (B, vmax + 1)), axis=1
    )
    return (rank[rows, flat] + 1).reshape(B, q)


def _canonical_form_vectorised(arr: np.ndarray) -> np.ndarray:
    """Batched exact canonicalisation: all ``q!`` column orders at once."""
    p, q = arr.shape
    perms = _permutation_array(q)
    n_perms = perms.shape[0]
    # (p, q!, q) -> (q!, p, q): one candidate matrix per column order.
    candidates = np.ascontiguousarray(arr[:, perms].transpose(1, 0, 2))
    normalised = _row_normal_form_batch(candidates.reshape(n_perms * p, q)).reshape(
        n_perms, p, q
    )
    # Encode every row as one integer.  Normalised entries are <= q, so base
    # q + 1 makes the code order coincide with lexicographic row order, and
    # sorting the per-candidate code vectors realises the optimal row order.
    base = q + 1
    weights = (base ** np.arange(q - 1, -1, -1, dtype=np.int64))
    codes = normalised @ weights  # (q!, p)
    row_orders = np.argsort(codes, axis=1, kind="stable")
    sorted_codes = np.take_along_axis(codes, row_orders, axis=1)
    # Lexicographic argmin over candidates (primary key = first row code).
    best = int(np.lexsort(sorted_codes.T[::-1])[0])
    return normalised[best][row_orders[best]]


@lru_cache(maxsize=1 << 16)
def _canonical_form_cached(key: Tuple[int, ...], p: int, q: int) -> Tuple[Tuple[int, ...], ...]:
    canon = _canonical_form_vectorised(np.array(key, dtype=np.int64).reshape(p, q))
    return tuple(tuple(int(x) for x in row) for row in canon)


def canonical_form(entries: MatrixLike) -> np.ndarray:
    """Exact canonical representative of the equivalence class of ``entries``.

    Minimises the flattened row-major entry sequence lexicographically over
    all row permutations, column permutations and per-row value
    relabellings.  For a fixed row and column order the optimal value
    relabelling is :func:`row_normal_form`, so the search space is
    ``p! * q!``; :data:`EXACT_LIMIT` caps ``max(p, q)`` (raising
    :class:`ValueError` beyond it) to keep the exact search tractable — use
    :func:`canonical_form_greedy` for larger matrices.

    The search is vectorised (one batched numpy pass over all ``q!`` column
    orders, row order resolved by sorting integer row codes) and memoised
    behind a bounded LRU keyed on the flattened entries; see the module
    docstring.
    """
    arr = _as_array(entries)
    p, q = arr.shape
    _check_exact_limit(p, q)
    return np.array(_canonical_form_cached(_flatten_key(arr), p, q), dtype=np.int64)


def clear_canonicalisation_cache() -> None:
    """Empty the canonical-form LRU (cold-start timing in the benchmarks)."""
    _canonical_form_cached.cache_clear()


def canonical_form_greedy(entries: MatrixLike) -> np.ndarray:
    """Fast non-exact canonicalisation heuristic.

    Normalises rows, sorts columns by their entry tuple, renormalises and
    sorts rows.  Matrices in the same equivalence class usually — but not
    always — map to the same representative; the ablation benchmark
    quantifies the collision/precision trade-off against
    :func:`canonical_form`.
    """
    arr = row_normal_form(entries)
    col_order = sorted(range(arr.shape[1]), key=lambda j: tuple(arr[:, j]))
    arr = arr[:, col_order]
    arr = row_normal_form(arr)
    row_order = sorted(range(arr.shape[0]), key=lambda i: tuple(arr[i]))
    return arr[row_order, :]


def are_equivalent(first: MatrixLike, second: MatrixLike) -> bool:
    """Whether two matrices are equivalent under Definition 2 (exact test)."""
    a = _as_array(first)
    b = _as_array(second)
    if a.shape != b.shape:
        return False
    return np.array_equal(canonical_form(a), canonical_form(b))


@dataclass(frozen=True, eq=False)
class ConstraintMatrix:
    """An immutable ``p x q`` constraint matrix.

    The preferred constructor is :meth:`from_entries`, which validates and
    freezes the entries.

    The exact canonical representative is cached on the instance after the
    first :meth:`canonical` call (the instance is frozen, so the cache can
    never go stale).  Equality and hashing are *class-level* and hash-safe:
    two matrices compare equal iff they are equivalent under Definition 2,
    and ``hash`` is derived from the same canonical key, so equivalent
    matrices collapse in sets and dictionaries.  For matrices beyond the
    exact-canonicalisation limit (``max(p, q) > EXACT_LIMIT``, where Definition 2
    equality is intractable) both operations fall back to structural entry
    comparison — consistently, since equal shapes always take the same
    branch.  Use ``a.entries == b.entries`` for explicit structural
    comparison.
    """

    entries: Tuple[Tuple[int, ...], ...]

    # ------------------------------------------------------------------
    @classmethod
    def from_entries(cls, entries: MatrixLike) -> "ConstraintMatrix":
        """Build from any 2-D integer array-like with positive entries."""
        arr = _as_array(entries)
        return cls(entries=tuple(tuple(int(x) for x in row) for row in arr))

    @classmethod
    def random(
        cls, p: int, q: int, d: int, seed: Optional[int] = None, normalized: bool = True
    ) -> "ConstraintMatrix":
        """Uniformly random ``p x q`` matrix with entries in ``1..d``.

        With ``normalized=True`` (default) the rows are put in row-normal
        form, matching Definition 1.
        """
        if p < 1 or q < 1 or d < 1:
            raise ValueError("p, q and d must be positive")
        rng = np.random.default_rng(seed)
        arr = rng.integers(1, d + 1, size=(p, q))
        if normalized:
            arr = row_normal_form(arr)
        return cls.from_entries(arr)

    # ------------------------------------------------------------------
    @property
    def p(self) -> int:
        """Number of rows (constrained vertices)."""
        return len(self.entries)

    @property
    def q(self) -> int:
        """Number of columns (target vertices)."""
        return len(self.entries[0])

    @property
    def shape(self) -> Tuple[int, int]:
        """``(p, q)``."""
        return (self.p, self.q)

    @property
    def max_entry(self) -> int:
        """Largest entry (the ``d`` of ``M^d_{p,q}`` containing this matrix)."""
        return max(max(row) for row in self.entries)

    def to_array(self) -> np.ndarray:
        """A fresh numpy array of the entries."""
        return np.array(self.entries, dtype=np.int64)

    def row(self, i: int) -> Tuple[int, ...]:
        """Row ``i`` (0-based)."""
        return self.entries[i]

    def row_value_count(self, i: int) -> int:
        """Number of distinct values in row ``i`` (the degree of ``a_i`` in Lemma 2)."""
        return len(set(self.entries[i]))

    def is_row_normalized(self) -> bool:
        """Whether every row satisfies Definition 1's normalisation."""
        return np.array_equal(self.to_array(), row_normal_form(self.to_array()))

    # ------------------------------------------------------------------
    def normalized(self) -> "ConstraintMatrix":
        """Row-normal form of this matrix."""
        return ConstraintMatrix.from_entries(row_normal_form(self.to_array()))

    def canonical(self) -> "ConstraintMatrix":
        """Exact canonical representative of this matrix's equivalence class.

        Computed once and cached on the (frozen) instance; subsequent calls
        return the cached object.  Raises :class:`ValueError` beyond
        :data:`EXACT_LIMIT`.
        """
        cached: Optional["ConstraintMatrix"] = getattr(self, "_canonical_cache", None)
        if cached is None:
            cached = ConstraintMatrix.from_entries(canonical_form(self.to_array()))
            # A canonical representative is its own canonical form.
            object.__setattr__(cached, "_canonical_cache", cached)
            object.__setattr__(self, "_canonical_cache", cached)
        return cached

    @property
    def canonical_key(self) -> Tuple[Tuple[int, int], Tuple[int, ...]]:
        """Hashable class invariant: ``(shape, flattened canonical entries)``.

        Two matrices have the same key iff they are equivalent under
        Definition 2.  Requires exact canonicalisation, so
        :data:`EXACT_LIMIT` applies.
        """
        key = getattr(self, "_canonical_key_cache", None)
        if key is None:
            flat = tuple(x for row in self.canonical().entries for x in row)
            key = (self.shape, flat)
            object.__setattr__(self, "_canonical_key_cache", key)
        return key

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConstraintMatrix):
            return NotImplemented
        if self.entries == other.entries:
            return True
        if self.shape != other.shape:
            return False
        if max(self.shape) > EXACT_LIMIT:
            return False  # structural fallback: intractable to canonicalise
        return self.canonical_key == other.canonical_key

    def __hash__(self) -> int:
        if max(self.shape) > EXACT_LIMIT:
            return hash(self.entries)
        return hash(self.canonical_key)

    def index(self, base: Optional[int] = None) -> int:
        """The (monotone) index of the matrix; see :func:`matrix_index`."""
        return matrix_index(self.to_array(), base=base)

    def is_equivalent_to(self, other: "ConstraintMatrix") -> bool:
        """Exact equivalence test against another matrix."""
        return are_equivalent(self.to_array(), other.to_array())

    # ------------------------------------------------------------------
    def permuted(
        self,
        row_perm: Optional[Sequence[int]] = None,
        col_perm: Optional[Sequence[int]] = None,
        value_perms: Optional[Sequence[Dict[int, int]]] = None,
    ) -> "ConstraintMatrix":
        """Apply row/column/value permutations (the Definition 2 group action).

        ``row_perm`` and ``col_perm`` are permutations given as sequences
        (``new[i] = old[row_perm[i]]``); ``value_perms[i]`` maps old entry
        values of row ``i`` of the *result* to new values and must be
        injective on the values present.
        """
        arr = self.to_array()
        if row_perm is not None:
            if sorted(row_perm) != list(range(self.p)):
                raise ValueError("row_perm must be a permutation of the row indices")
            arr = arr[list(row_perm), :]
        if col_perm is not None:
            if sorted(col_perm) != list(range(self.q)):
                raise ValueError("col_perm must be a permutation of the column indices")
            arr = arr[:, list(col_perm)]
        if value_perms is not None:
            if len(value_perms) != self.p:
                raise ValueError("value_perms must provide one mapping per row")
            out = arr.copy()
            for i, mapping in enumerate(value_perms):
                values_present = set(int(x) for x in arr[i])
                images = [mapping[v] for v in values_present]
                if len(set(images)) != len(images):
                    raise ValueError(f"value permutation of row {i} is not injective on its values")
                for j in range(self.q):
                    out[i, j] = mapping[int(arr[i, j])]
            arr = out
        return ConstraintMatrix.from_entries(arr)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return "\n".join(" ".join(str(x) for x in row) for row in self.entries)
