"""Unit tests for constraint matrices, equivalence and canonical forms (Section 2)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.constraints.matrix import (
    ConstraintMatrix,
    are_equivalent,
    canonical_form,
    canonical_form_greedy,
    matrix_index,
    row_normal_form,
)


class TestRowNormalForm:
    def test_already_normal(self):
        m = [[1, 2, 1], [1, 1, 2]]
        assert np.array_equal(row_normal_form(m), np.array(m))

    def test_relabels_by_first_occurrence(self):
        assert np.array_equal(row_normal_form([[3, 1, 3]]), np.array([[1, 2, 1]]))
        assert np.array_equal(row_normal_form([[2, 2, 5, 2]]), np.array([[1, 1, 2, 1]]))

    def test_rows_normalised_independently(self):
        out = row_normal_form([[3, 3], [1, 3]])
        assert np.array_equal(out, np.array([[1, 1], [1, 2]]))

    def test_rejects_non_positive_entries(self):
        with pytest.raises(ValueError):
            row_normal_form([[0, 1]])

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            row_normal_form([1, 2, 3])


class TestMatrixIndex:
    def test_monotone_base_orders_lexicographically(self):
        a = matrix_index([[1, 1], [1, 2]])
        b = matrix_index([[1, 2], [1, 1]])
        assert a < b

    def test_explicit_base_matches_paper_formula(self):
        # Entries 1,2,1,1 in base 2 (q = 2): 1*8 + 2*4 + 1*2 + 1 = 19.
        assert matrix_index([[1, 2], [1, 1]], base=2) == 19

    def test_index_positive(self):
        assert matrix_index([[1]]) > 0


class TestCanonicalForm:
    def test_fixed_point(self):
        m = np.array([[1, 1, 2], [1, 2, 1]])
        canon = canonical_form(m)
        assert np.array_equal(canonical_form(canon), canon)

    def test_invariant_under_row_permutation(self):
        m = [[1, 2, 2], [1, 1, 2]]
        swapped = [m[1], m[0]]
        assert np.array_equal(canonical_form(m), canonical_form(swapped))

    def test_invariant_under_column_permutation(self):
        m = np.array([[1, 2, 3], [1, 1, 2]])
        permuted = m[:, [2, 0, 1]]
        assert np.array_equal(canonical_form(m), canonical_form(permuted))

    def test_invariant_under_row_value_relabelling(self):
        m = [[1, 2, 1], [1, 2, 2]]
        relabelled = [[2, 1, 2], [1, 2, 2]]
        assert np.array_equal(canonical_form(m), canonical_form(relabelled))

    def test_distinguishes_inequivalent_matrices(self):
        a = [[1, 1], [1, 1]]
        b = [[1, 2], [1, 1]]
        assert not np.array_equal(canonical_form(a), canonical_form(b))

    def test_canonical_is_lexicographically_minimal_in_orbit(self):
        import itertools

        m = np.array([[2, 1], [1, 2]])
        canon = tuple(canonical_form(m).reshape(-1))
        # Brute-force the whole orbit: row perms x column perms x per-row value maps.
        seen = []
        for rp in itertools.permutations(range(2)):
            for cp in itertools.permutations(range(2)):
                base = m[list(rp), :][:, list(cp)]
                for perm1 in itertools.permutations([1, 2]):
                    for perm2 in itertools.permutations([1, 2]):
                        mapped = base.copy()
                        mapped[0] = [perm1[v - 1] for v in base[0]]
                        mapped[1] = [perm2[v - 1] for v in base[1]]
                        seen.append(tuple(mapped.reshape(-1)))
        assert canon == min(seen)

    def test_size_limit_enforced(self):
        big = np.ones((9, 9), dtype=int)
        with pytest.raises(ValueError):
            canonical_form(big)

    def test_greedy_agrees_on_simple_cases(self):
        for m in ([[1, 1], [1, 2]], [[1, 2, 3], [1, 1, 2]], [[1], [1]]):
            assert np.array_equal(canonical_form(m), canonical_form_greedy(m))

    def test_greedy_handles_large_matrices(self):
        rng = np.random.default_rng(0)
        m = rng.integers(1, 5, size=(20, 30))
        out = canonical_form_greedy(m)
        assert out.shape == (20, 30)


class TestEquivalence:
    def test_reflexive(self):
        m = [[1, 2], [2, 1]]
        assert are_equivalent(m, m)

    def test_symmetric(self):
        a = [[1, 2], [1, 1]]
        b = [[1, 1], [2, 1]]
        assert are_equivalent(a, b) == are_equivalent(b, a)

    def test_different_shapes_not_equivalent(self):
        assert not are_equivalent([[1, 2]], [[1], [2]])

    def test_value_permutation_equivalence(self):
        assert are_equivalent([[1, 2, 3]], [[3, 1, 2]])

    def test_not_equivalent_when_row_patterns_differ(self):
        assert not are_equivalent([[1, 1, 2]], [[1, 2, 3]])


class TestConstraintMatrixObject:
    def test_from_entries_and_shape(self):
        m = ConstraintMatrix.from_entries([[1, 2], [1, 1], [2, 1]])
        assert m.shape == (3, 2)
        assert m.p == 3 and m.q == 2
        assert m.max_entry == 2
        assert m.row(0) == (1, 2)
        assert m.row_value_count(1) == 1

    def test_rejects_invalid_entries(self):
        with pytest.raises(ValueError):
            ConstraintMatrix.from_entries([[0, 1]])
        with pytest.raises(ValueError):
            ConstraintMatrix.from_entries([])

    def test_random_respects_parameters(self):
        m = ConstraintMatrix.random(4, 6, 3, seed=1)
        assert m.shape == (4, 6)
        assert m.max_entry <= 3
        assert m.is_row_normalized()

    def test_random_without_normalization(self):
        m = ConstraintMatrix.random(3, 3, 5, seed=2, normalized=False)
        assert m.shape == (3, 3)

    def test_random_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ConstraintMatrix.random(0, 2, 2)

    def test_random_deterministic(self):
        assert ConstraintMatrix.random(3, 4, 3, seed=9) == ConstraintMatrix.random(3, 4, 3, seed=9)

    def test_normalized_and_canonical(self):
        m = ConstraintMatrix.from_entries([[3, 1, 3], [2, 2, 1]])
        assert m.normalized().is_row_normalized()
        canon = m.canonical()
        assert canon.is_equivalent_to(m)

    def test_index_method(self):
        m = ConstraintMatrix.from_entries([[1, 2], [1, 1]])
        assert m.index() == matrix_index([[1, 2], [1, 1]])

    def test_permuted_row_and_column(self):
        m = ConstraintMatrix.from_entries([[1, 2], [1, 1]])
        p = m.permuted(row_perm=[1, 0], col_perm=[1, 0])
        assert p.entries == ((1, 1), (2, 1))
        assert p.is_equivalent_to(m)

    def test_permuted_values(self):
        m = ConstraintMatrix.from_entries([[1, 2], [1, 1]])
        p = m.permuted(value_perms=[{1: 2, 2: 1}, {1: 1}])
        assert p.entries == ((2, 1), (1, 1))
        assert p.is_equivalent_to(m)

    def test_permuted_rejects_invalid_inputs(self):
        m = ConstraintMatrix.from_entries([[1, 2], [1, 1]])
        with pytest.raises(ValueError):
            m.permuted(row_perm=[0, 0])
        with pytest.raises(ValueError):
            m.permuted(col_perm=[0, 2])
        with pytest.raises(ValueError):
            m.permuted(value_perms=[{1: 1, 2: 1}, {1: 1}])
        with pytest.raises(ValueError):
            m.permuted(value_perms=[{1: 1}])

    def test_to_array_is_copy(self):
        m = ConstraintMatrix.from_entries([[1, 2]])
        arr = m.to_array()
        arr[0, 0] = 99
        assert m.entries == ((1, 2),)
