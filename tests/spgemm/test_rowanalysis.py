"""Tests for the row-analysis stage: products per row of ``A``."""

import numpy as np

from repro.spgemm.flops import flops_per_row, products_per_row, total_flops
from repro.spgemm.native import native_available
from repro.spgemm.twophase import spgemm_symbolic, spgemm_twophase

KERNELS = ["esc", "native"] if native_available() else ["esc"]


class TestRowAnalysis:
    def test_flops_match_module(self, sample_matrix):
        a = sample_matrix
        products = products_per_row(a, a)
        assert products.dtype == np.int64
        np.testing.assert_array_equal(2 * products, flops_per_row(a, a))

    def test_totals(self, sample_matrix):
        a = sample_matrix
        for kernel in KERNELS:
            assert spgemm_symbolic(a, a, kernel=kernel).flops == total_flops(a, a)

    def test_nonempty_rows(self, sample_matrix):
        """A row has output exactly when it has products."""
        a = sample_matrix
        row_nnz = spgemm_symbolic(a, a).row_nnz
        np.testing.assert_array_equal(row_nnz > 0, products_per_row(a, a) > 0)

    def test_transfer_bytes(self, sample_matrix):
        # the D2H info transfer of Fig. 3: one int64 per row
        stats = spgemm_twophase(sample_matrix, sample_matrix).stats
        assert stats.analysis_bytes == sample_matrix.n_rows * 8
