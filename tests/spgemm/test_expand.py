"""Tests for the product-expansion primitive."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse.formats import CSRMatrix
from repro.sparse.generators import random_csr
from repro.spgemm.expand import expand_products
from repro.spgemm.flops import total_flops


def accumulate(n_rows, n_cols, rows, cols, vals):
    dense = np.zeros((n_rows, n_cols))
    np.add.at(dense, (rows, cols), vals)
    return dense


class TestExpand:
    def test_products_accumulate_to_product(self, rng):
        a = random_csr(10, 8, 25, seed=1)
        b = random_csr(8, 12, 30, seed=2)
        rows, cols, vals = expand_products(a, b)
        got = accumulate(a.n_rows, b.n_cols, rows, cols, vals)
        np.testing.assert_allclose(got, a.to_dense() @ b.to_dense(), atol=1e-12)

    def test_count_matches_flops(self, sample_matrix):
        rows, _, _ = expand_products(sample_matrix, sample_matrix)
        assert rows.size == total_flops(sample_matrix, sample_matrix) // 2

    def test_rows_ascending(self, sample_matrix):
        rows, _, _ = expand_products(sample_matrix, sample_matrix)
        assert np.all(np.diff(rows) >= 0)

    def test_row_range(self, rng):
        a = random_csr(12, 10, 30, seed=3)
        b = random_csr(10, 10, 30, seed=4)
        rows, cols, vals = expand_products(a, b, 4, 9)
        assert rows.size == 0 or (rows.min() >= 4 and rows.max() < 9)
        got = accumulate(a.n_rows, b.n_cols, rows, cols, vals)
        expected = np.zeros_like(got)
        expected[4:9] = (a.to_dense() @ b.to_dense())[4:9]
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_batched_ranges_cover_everything(self, rng):
        a = random_csr(15, 15, 50, seed=5)
        total = 0
        for lo in range(0, 15, 4):
            rows, _, _ = expand_products(a, a, lo, min(lo + 4, 15))
            total += rows.size
        assert total == total_flops(a, a) // 2

    def test_empty_range(self, sample_matrix):
        rows, cols, vals = expand_products(sample_matrix, sample_matrix, 3, 3)
        assert rows.size == cols.size == vals.size == 0

    def test_empty_matrix(self):
        a = CSRMatrix.empty(5, 5)
        rows, _, _ = expand_products(a, a)
        assert rows.size == 0
        assert total_flops(a, a) // 2 == 0

    def test_dimension_mismatch(self):
        a = random_csr(4, 5, 8, seed=1)
        with pytest.raises(ValueError, match="mismatch"):
            expand_products(a, a)

    def test_invalid_range(self, sample_matrix):
        with pytest.raises(IndexError):
            expand_products(sample_matrix, sample_matrix, 5, 2)

    def test_deterministic(self, sample_matrix):
        r1 = expand_products(sample_matrix, sample_matrix)
        r2 = expand_products(sample_matrix, sample_matrix)
        for x, y in zip(r1, r2):
            np.testing.assert_array_equal(x, y)


class TestProperties:
    @given(seed_a=st.integers(0, 300), seed_b=st.integers(0, 300))
    @settings(max_examples=40, deadline=None)
    def test_expansion_equals_dense_product(self, seed_a, seed_b):
        a = random_csr(9, 7, 20, seed=seed_a)
        b = random_csr(7, 11, 22, seed=seed_b)
        rows, cols, vals = expand_products(a, b)
        got = accumulate(a.n_rows, b.n_cols, rows, cols, vals)
        np.testing.assert_allclose(got, a.to_dense() @ b.to_dense(), atol=1e-10)
