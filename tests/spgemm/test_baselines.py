"""Tests for Gustavson and ESC baselines, the upper bound, and the oracle."""

import numpy as np
import pytest

from repro.sparse.formats import CSRMatrix
from repro.sparse.generators import banded, random_csr
from repro.spgemm.accumulators import esc_accumulate_rows
from repro.spgemm.flops import products_per_row
from tests.reference import (
    assert_same_product,
    spgemm_gustavson,
    spgemm_scipy,
    symbolic_sort,
)
from repro.spgemm.twophase import spgemm_twophase
from tests.conftest import assert_equals_scipy_product


def esc(a, b):
    return spgemm_twophase(a, b, kernel="esc").matrix


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
    """The numpy ESC kernel: ``spgemm_twophase(kernel="esc")``."""

    def test_matches_scipy(self, sample_matrix):
        assert_equals_scipy_product(
            esc(sample_matrix, sample_matrix), sample_matrix, sample_matrix
        )

    def test_batched_same_as_unbatched(self, sample_matrix):
        a, rows = sample_matrix, np.arange(sample_matrix.n_rows)
        full = esc_accumulate_rows(a, a, rows)
        tiny = esc_accumulate_rows(a, a, rows, batch_products=32)
        np.testing.assert_array_equal(full.col_ids, tiny.col_ids)
        np.testing.assert_array_equal(full.values, tiny.values)

    def test_empty(self):
        a = CSRMatrix.empty(5, 5)
        assert esc(a, a).nnz == 0

    def test_dimension_mismatch(self):
        a = random_csr(4, 5, 8, seed=1)
        with pytest.raises(ValueError, match="mismatch"):
            esc(a, a)


class TestUpperBound:
    def test_bound_dominates_actual(self, sample_matrix):
        ub = products_per_row(sample_matrix, sample_matrix)
        actual = symbolic_sort(sample_matrix, sample_matrix)
        assert np.all(ub >= actual)

    def test_tightness_banded_vs_random(self):
        """The paper's Section IV.B observation: upper bounds are loose,
        and looser for matrices with collisions."""
        def looseness(a):
            return products_per_row(a, a).sum() / symbolic_sort(a, a).sum()

        band = banded(200, 4, seed=1)
        rand = random_csr(200, 200, 800, seed=2)
        assert looseness(band) > looseness(rand) >= 1.0


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
