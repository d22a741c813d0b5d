"""Tests for Gustavson and ESC baselines, upper bounds, and the oracle."""

import numpy as np
import pytest

from repro.sparse.formats import CSRMatrix
from repro.sparse.generators import banded, random_csr
from repro.spgemm.esc import spgemm_esc
from repro.spgemm.gustavson import spgemm_gustavson
from repro.spgemm.reference import assert_same_product, spgemm_scipy
from repro.spgemm.symbolic import symbolic_sort
from repro.spgemm.upperbound import row_upper_bound, row_upper_bound_cols, tightness
from tests.conftest import assert_equals_scipy_product


class TestGustavson:
    def test_matches_scipy(self):
        a = random_csr(25, 25, 80, seed=51)
        assert_equals_scipy_product(spgemm_gustavson(a, a), a, a)

    def test_rectangular(self):
        a = random_csr(10, 8, 25, seed=52)
        b = random_csr(8, 12, 20, seed=53)
        assert_equals_scipy_product(spgemm_gustavson(a, b), a, b)

    def test_empty(self):
        a = CSRMatrix.empty(4, 4)
        assert spgemm_gustavson(a, a).nnz == 0

    def test_dimension_mismatch(self):
        a = random_csr(4, 5, 8, seed=1)
        with pytest.raises(ValueError, match="mismatch"):
            spgemm_gustavson(a, a)


class TestESC:
    def test_matches_scipy(self, sample_matrix):
        assert_equals_scipy_product(
            spgemm_esc(sample_matrix, sample_matrix), sample_matrix, sample_matrix
        )

    def test_batched_same_as_unbatched(self, sample_matrix):
        full = spgemm_esc(sample_matrix, sample_matrix)
        tiny = spgemm_esc(sample_matrix, sample_matrix, batch_products=32)
        assert full == tiny

    def test_empty(self):
        a = CSRMatrix.empty(5, 5)
        assert spgemm_esc(a, a).nnz == 0

    def test_dimension_mismatch(self):
        a = random_csr(4, 5, 8, seed=1)
        with pytest.raises(ValueError, match="mismatch"):
            spgemm_esc(a, a)


class TestUpperBound:
    def test_bound_dominates_actual(self, sample_matrix):
        ub = row_upper_bound(sample_matrix, sample_matrix)
        actual = symbolic_sort(sample_matrix, sample_matrix)
        assert np.all(ub >= actual)

    def test_cols_clamp(self):
        a = CSRMatrix.from_dense(np.ones((2, 6)))
        b = CSRMatrix.from_dense(np.ones((6, 3)))
        ub = row_upper_bound(a, b)
        clamped = row_upper_bound_cols(a, b)
        assert np.all(ub == 18)
        assert np.all(clamped == 3)

    def test_tightness_banded_vs_random(self):
        """The paper's Section IV.B observation: upper bounds are loose,
        and looser for matrices with collisions."""
        band = banded(200, 4, seed=1)
        rand = random_csr(200, 200, 800, seed=2)
        t_band = tightness(row_upper_bound(band, band), symbolic_sort(band, band))
        t_rand = tightness(row_upper_bound(rand, rand), symbolic_sort(rand, rand))
        assert t_band > t_rand >= 1.0

    def test_tightness_edges(self):
        assert tightness(np.array([0]), np.array([0])) == 1.0
        assert tightness(np.array([5]), np.array([0])) == float("inf")


class TestReference:
    def test_assert_same_product_passes(self, sample_matrix):
        c = spgemm_scipy(sample_matrix, sample_matrix)
        assert_same_product(c, sample_matrix, sample_matrix)

    def test_assert_same_product_catches_corruption(self, sample_matrix):
        c = spgemm_scipy(sample_matrix, sample_matrix)
        bad = CSRMatrix(
            c.n_rows, c.n_cols, c.row_offsets, c.col_ids, c.data * 1.5, check=False
        )
        with pytest.raises(AssertionError):
            assert_same_product(bad, sample_matrix, sample_matrix)

    def test_dimension_mismatch(self):
        a = random_csr(4, 5, 8, seed=1)
        with pytest.raises(ValueError, match="mismatch"):
            spgemm_scipy(a, a)
