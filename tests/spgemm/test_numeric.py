"""Tests for the numeric phase."""

import dataclasses

import numpy as np
import pytest

from repro.sparse.generators import random_csr
from repro.spgemm.numeric import RowSlots
from repro.spgemm.twophase import spgemm_numeric, spgemm_symbolic
from tests.conftest import assert_equals_scipy_product
from tests.reference import symbolic_sort


def numeric_phase(a, b, kernel="auto", dest=None):
    """The numeric stage on the symbolic stage's exact counts."""
    return spgemm_numeric(spgemm_symbolic(a, b, kernel=kernel), dest).matrix


class TestNumericPhase:
    def test_matches_scipy(self, sample_matrix):
        a = sample_matrix
        assert_equals_scipy_product(numeric_phase(a, a), a, a)

    def test_rectangular(self):
        a = random_csr(10, 14, 35, seed=21)
        b = random_csr(14, 9, 30, seed=22)
        assert_equals_scipy_product(numeric_phase(a, b), a, b)

    def test_output_layout_fixed_by_counts(self, sample_matrix):
        a = sample_matrix
        c = numeric_phase(a, a)
        np.testing.assert_array_equal(np.diff(c.row_offsets), symbolic_sort(a, a))

    def test_grouping_order_irrelevant(self, sample_matrix):
        """Which kernel fills the rows does not change a bit."""
        a = sample_matrix
        assert numeric_phase(a, a) == numeric_phase(a, a, kernel="esc")

    def test_destination_slots(self, sample_matrix):
        """The same rows written into a caller's arrays — behind an
        offset, column ids shifted — instead of a fresh allocation."""
        a = sample_matrix
        ref = numeric_phase(a, a)
        row_nnz = np.diff(ref.row_offsets)
        pad = 5
        for kernel in ("auto", "esc"):
            cols = np.full(ref.nnz + 2 * pad, -1, dtype=np.int64)
            vals = np.full(ref.nnz + 2 * pad, np.nan)
            dest = RowSlots(ref.row_offsets[:-1] + pad, row_nnz, 100, cols, vals)
            sym = spgemm_symbolic(a, a, kernel=kernel)
            assert spgemm_numeric(sym, dest).matrix is None
            np.testing.assert_array_equal(cols[pad:-pad], ref.col_ids + 100)
            np.testing.assert_array_equal(vals[pad:-pad], ref.data)
            assert np.all(cols[:pad] == -1) and np.all(cols[-pad:] == -1)
            lying = RowSlots(dest.starts, row_nnz + 1, 100, cols, vals)
            with pytest.raises(RuntimeError, match="row 0 does not fit its slot"):
                spgemm_numeric(sym, lying)

    def test_bad_counts_length(self, sample_matrix):
        a = sample_matrix
        short = RowSlots(*(np.zeros(3, dtype=np.int64),) * 2, 0,
                         np.empty(0, dtype=np.int64), np.empty(0))
        with pytest.raises(ValueError, match="one slot per row"):
            spgemm_numeric(spgemm_symbolic(a, a), short)

    def test_inconsistent_counts_detected(self, sample_matrix):
        a = sample_matrix
        sym = spgemm_symbolic(a, a, kernel="esc")
        row_nnz = sym.row_nnz.copy()
        row_nnz[np.flatnonzero(row_nnz)[0]] += 1  # lie about one row
        with pytest.raises(RuntimeError, match="does not fit its slot"):
            spgemm_numeric(dataclasses.replace(sym, row_nnz=row_nnz))
