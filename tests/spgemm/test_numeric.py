"""Tests for the numeric phase."""

import numpy as np
import pytest

from repro.sparse.generators import random_csr
from repro.spgemm.kernels import KernelSpec, plan_groups
from repro.spgemm.numeric import RowSlots, numeric_grouped
from repro.spgemm.symbolic import symbolic_sort
from tests.conftest import assert_equals_scipy_product


def numeric_phase(a, b, row_nnz, kernel="auto", **kw):
    """The numeric stage on the exact counts, grouped as ``kernel`` plans."""
    grouping = plan_groups(row_nnz, KernelSpec(kernel))
    return numeric_grouped(a, b, row_nnz, grouping, **kw)


class TestNumericPhase:
    def test_matches_scipy(self, sample_matrix):
        a = sample_matrix
        row_nnz = symbolic_sort(a, a)
        c = numeric_phase(a, a, row_nnz)
        assert_equals_scipy_product(c, a, a)

    def test_rectangular(self):
        a = random_csr(10, 14, 35, seed=21)
        b = random_csr(14, 9, 30, seed=22)
        c = numeric_phase(a, b, symbolic_sort(a, b))
        assert_equals_scipy_product(c, a, b)

    def test_output_layout_fixed_by_counts(self, sample_matrix):
        a = sample_matrix
        row_nnz = symbolic_sort(a, a)
        c = numeric_phase(a, a, row_nnz)
        np.testing.assert_array_equal(np.diff(c.row_offsets), row_nnz)

    def test_grouping_order_irrelevant(self, sample_matrix):
        a = sample_matrix
        row_nnz = symbolic_sort(a, a)
        default = numeric_phase(a, a, row_nnz)
        # force everything through the numpy path
        all_esc = plan_groups(row_nnz, KernelSpec(kind="esc"))
        assert all(g.method == "esc" for g in all_esc)
        via_esc = numeric_grouped(a, a, row_nnz, all_esc)
        assert default == via_esc

    def test_destination_slots(self, sample_matrix):
        """The same rows written into a caller's arrays — behind an
        offset, column ids shifted — instead of a fresh allocation."""
        a = sample_matrix
        row_nnz = symbolic_sort(a, a)
        ref = numeric_phase(a, a, row_nnz)
        pad = 5
        cols = np.full(ref.nnz + 2 * pad, -1, dtype=np.int64)
        vals = np.full(ref.nnz + 2 * pad, np.nan)
        dest = RowSlots(ref.row_offsets[:-1] + pad, row_nnz, 100, cols, vals)
        grouping = plan_groups(row_nnz, KernelSpec())
        assert numeric_grouped(a, a, row_nnz, grouping, dest=dest) is None
        np.testing.assert_array_equal(cols[pad:-pad], ref.col_ids + 100)
        np.testing.assert_array_equal(vals[pad:-pad], ref.data)
        assert np.all(cols[:pad] == -1) and np.all(cols[-pad:] == -1)
        lying = RowSlots(dest.starts, row_nnz + 1, 100, cols, vals)
        with pytest.raises(RuntimeError, match="row 0 does not fit its slot"):
            numeric_grouped(a, a, row_nnz, grouping, dest=lying)

    def test_bad_counts_length(self, sample_matrix):
        with pytest.raises(ValueError, match="length"):
            numeric_phase(sample_matrix, sample_matrix, np.zeros(3, dtype=np.int64))

    def test_inconsistent_counts_detected(self, sample_matrix):
        a = sample_matrix
        row_nnz = symbolic_sort(a, a).copy()
        nonzero = np.flatnonzero(row_nnz)
        row_nnz[nonzero[0]] += 1  # lie about one row
        with pytest.raises(RuntimeError, match="disagrees"):
            numeric_phase(a, a, row_nnz, kernel="esc")
