"""Tests for the full spECK-style two-phase kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse.formats import CSRMatrix
from repro.sparse.generators import banded, random_csr, rmat
from repro.spgemm.flops import products_per_row, total_flops
from repro.spgemm.twophase import spgemm_twophase
from tests.conftest import assert_equals_scipy_product


class TestCorrectness:
    def test_matches_scipy(self, sample_matrix):
        r = spgemm_twophase(sample_matrix, sample_matrix)
        assert_equals_scipy_product(r.matrix, sample_matrix, sample_matrix)

    def test_rectangular(self):
        a = random_csr(20, 15, 60, seed=31)
        b = random_csr(15, 25, 50, seed=32)
        r = spgemm_twophase(a, b)
        assert_equals_scipy_product(r.matrix, a, b)

    def test_identity(self):
        i = CSRMatrix.identity(20)
        r = spgemm_twophase(i, i)
        assert r.matrix == i

    def test_empty(self):
        a = CSRMatrix.empty(6, 6)
        r = spgemm_twophase(a, a)
        assert r.matrix.nnz == 0
        assert r.stats.flops == 0

    def test_dimension_mismatch(self):
        a = random_csr(4, 5, 8, seed=1)
        with pytest.raises(ValueError, match="mismatch"):
            spgemm_twophase(a, a)


class TestStats:
    @pytest.fixture(scope="class")
    def result(self):
        a = rmat(9, 6.0, seed=41)
        return a, spgemm_twophase(a, a)

    def test_flops_consistent(self, result):
        a, r = result
        assert r.stats.flops == total_flops(a, a)

    def test_nnz_out_matches_matrix(self, result):
        _, r = result
        assert r.stats.nnz_out == r.matrix.nnz

    def test_transfer_byte_fields(self, result):
        a, r = result
        assert r.stats.analysis_bytes == a.n_rows * 8
        assert r.stats.symbolic_bytes == a.n_rows * 8
        assert r.stats.output_bytes == r.matrix.nbytes()

    def test_kernel_counts_match_groupings(self, result):
        """One launch per stage over the rows with work, none without."""
        _, r = result
        assert (r.stats.symbolic_kernels, r.stats.numeric_kernels) == (1, 1)
        empty = CSRMatrix.empty(4, 4)
        for kernel in ("auto", "esc"):
            stats = spgemm_twophase(empty, empty, kernel=kernel).stats
            assert (stats.symbolic_kernels, stats.numeric_kernels) == (0, 0)

    def test_input_nnz(self, result):
        a, r = result
        assert r.stats.input_nnz == 2 * a.nnz

    def test_compression_ratio(self, result):
        _, r = result
        assert r.stats.compression_ratio == pytest.approx(
            r.stats.flops / r.stats.nnz_out
        )
        assert r.stats.compression_ratio >= 2.0

    def test_groupings_cover_productive_rows(self, result):
        a, r = result
        np.testing.assert_array_equal(
            np.diff(r.matrix.row_offsets) > 0, products_per_row(a, a) > 0)


class TestFamilies:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: banded(150, 4, seed=1, fill=0.6),
            lambda: rmat(8, 8.0, seed=2),
            lambda: random_csr(120, 120, 700, seed=3),
        ],
        ids=["banded", "rmat", "uniform"],
    )
    def test_product_correct(self, make):
        a = make()
        r = spgemm_twophase(a, a)
        assert_equals_scipy_product(r.matrix, a, a)


class TestProperties:
    @given(seed=st.integers(0, 500), n=st.integers(2, 40))
    @settings(max_examples=30, deadline=None)
    def test_random_products_correct(self, seed, n):
        a = random_csr(n, n, 4 * n, seed=seed)
        r = spgemm_twophase(a, a)
        assert_equals_scipy_product(r.matrix, a, a)
        assert r.stats.flops == total_flops(a, a)
