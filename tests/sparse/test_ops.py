"""Tests for structural/element-wise CSR operations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse.formats import CSRMatrix
from repro.sparse.generators import random_csr
from repro.sparse.ops import (
    add,
    drop_explicit_zeros,
    extract_columns,
    hstack,
    row_stats,
    scale,
    take_rows,
    transpose,
    vstack,
)


class TestTranspose:
    def test_matches_dense(self, small_csr, small_dense):
        np.testing.assert_array_equal(transpose(small_csr).to_dense(), small_dense.T)

    def test_double_transpose(self, sample_matrix):
        assert transpose(transpose(sample_matrix)) == sample_matrix

    def test_empty(self):
        t = transpose(CSRMatrix.empty(2, 5))
        assert t.shape == (5, 2)


class TestAddScale:
    def test_add_matches_dense(self, rng):
        a = random_csr(10, 12, 30, seed=1)
        b = random_csr(10, 12, 30, seed=2)
        np.testing.assert_allclose(
            add(a, b).to_dense(), a.to_dense() + b.to_dense(), atol=1e-12
        )

    def test_add_shape_mismatch(self, small_csr):
        with pytest.raises(ValueError, match="shape"):
            add(small_csr, CSRMatrix.empty(2, 2))

    def test_scale(self, small_csr, small_dense):
        np.testing.assert_array_equal(scale(small_csr, -2.0).to_dense(), -2.0 * small_dense)

    def test_scale_preserves_structure(self, small_csr):
        s = scale(small_csr, 0.0)
        assert s.nnz == small_csr.nnz  # explicit zeros retained


class TestDropZeros:
    def test_drops_stored_zeros(self):
        m = CSRMatrix(2, 2, [0, 2, 3], [0, 1, 0], [1.0, 0.0, 2.0], check=False)
        d = drop_explicit_zeros(m)
        assert d.nnz == 2
        np.testing.assert_array_equal(d.to_dense(), [[1.0, 0.0], [2.0, 0.0]])

    def test_tolerance(self):
        m = CSRMatrix(1, 2, [0, 2], [0, 1], [1e-15, 1.0], check=False)
        assert drop_explicit_zeros(m, tol=1e-12).nnz == 1

    def test_noop_when_no_zeros(self, small_csr):
        assert drop_explicit_zeros(small_csr) == small_csr


class TestStack:
    def test_hstack_matches_dense(self, rng):
        parts = [random_csr(6, w, 10, seed=i) for i, w in enumerate([3, 5, 2])]
        stacked = hstack(parts)
        np.testing.assert_array_equal(
            stacked.to_dense(), np.hstack([p.to_dense() for p in parts])
        )

    def test_vstack_matches_dense(self, rng):
        parts = [random_csr(h, 7, 10, seed=i) for i, h in enumerate([2, 4, 3])]
        stacked = vstack(parts)
        np.testing.assert_array_equal(
            stacked.to_dense(), np.vstack([p.to_dense() for p in parts])
        )

    def test_hstack_row_mismatch(self):
        with pytest.raises(ValueError, match="equal row counts"):
            hstack([CSRMatrix.empty(2, 2), CSRMatrix.empty(3, 2)])

    def test_vstack_col_mismatch(self):
        with pytest.raises(ValueError, match="equal column counts"):
            vstack([CSRMatrix.empty(2, 2), CSRMatrix.empty(2, 3)])

    def test_empty_input(self):
        with pytest.raises(ValueError):
            hstack([])
        with pytest.raises(ValueError):
            vstack([])

    def test_single_matrix(self, small_csr):
        assert hstack([small_csr]) == small_csr
        assert vstack([small_csr]) == small_csr

    def test_hstack_with_empty_panels(self, small_csr):
        stacked = hstack([small_csr, CSRMatrix.empty(4, 3)])
        assert stacked.n_cols == 7
        assert stacked.nnz == small_csr.nnz


class TestExtractColumns:
    def test_matches_dense_slice(self, small_csr, small_dense):
        sub = extract_columns(small_csr, 1, 3)
        np.testing.assert_array_equal(sub.to_dense(), small_dense[:, 1:3])

    def test_full_range(self, small_csr):
        assert extract_columns(small_csr, 0, small_csr.n_cols) == small_csr

    def test_invalid_range(self, small_csr):
        with pytest.raises(IndexError):
            extract_columns(small_csr, 3, 1)


class TestTakeRows:
    def test_order_preserved(self, small_csr, small_dense):
        sub = take_rows(small_csr, np.array([3, 0, 2]))
        np.testing.assert_array_equal(sub.to_dense(), small_dense[[3, 0, 2]])

    def test_repeats_allowed(self, small_csr, small_dense):
        sub = take_rows(small_csr, np.array([2, 2]))
        np.testing.assert_array_equal(sub.to_dense(), small_dense[[2, 2]])

    def test_empty_selection(self, small_csr):
        sub = take_rows(small_csr, np.array([], dtype=np.int64))
        assert sub.n_rows == 0 and sub.nnz == 0

    def test_out_of_range(self, small_csr):
        with pytest.raises(IndexError):
            take_rows(small_csr, np.array([9]))


class TestRowStats:
    def test_regular_matrix_low_gini(self):
        m = CSRMatrix.identity(50)
        s = row_stats(m)
        assert s["min"] == s["max"] == 1
        assert s["gini"] == pytest.approx(0.0, abs=1e-9)

    def test_skewed_matrix_high_gini(self):
        # one dense row among empty rows
        m = CSRMatrix(10, 10, [0] + [10] * 10, np.arange(10), np.ones(10), check=False)
        s = row_stats(m)
        assert s["gini"] > 0.8

    def test_empty(self):
        s = row_stats(CSRMatrix.empty(0, 0))
        assert s["mean"] == 0.0


class TestProperties:
    @given(seed=st.integers(0, 1000), panels=st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_hstack_of_extracted_columns_roundtrips(self, seed, panels):
        m = random_csr(15, 20, 60, seed=seed)
        bounds = np.linspace(0, 20, panels + 1).astype(int)
        parts = [extract_columns(m, bounds[i], bounds[i + 1]) for i in range(panels)]
        assert hstack(parts) == m
