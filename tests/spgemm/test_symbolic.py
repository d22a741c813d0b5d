"""Tests for the symbolic phase and row batching."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse.formats import CSRMatrix
from repro.sparse.generators import random_csr
from tests.reference import spgemm_scipy, symbolic_sort
from repro.spgemm.expand import row_batches
from repro.spgemm.twophase import spgemm_symbolic


def expected_row_nnz(a, b):
    return spgemm_scipy(a, b).row_nnz()


class TestSymbolicSort:
    def test_matches_scipy(self, sample_matrix):
        np.testing.assert_array_equal(
            symbolic_sort(sample_matrix, sample_matrix),
            expected_row_nnz(sample_matrix, sample_matrix),
        )

    def test_batched_matches_unbatched(self, sample_matrix):
        full = symbolic_sort(sample_matrix, sample_matrix)
        tiny = symbolic_sort(sample_matrix, sample_matrix, batch_products=64)
        np.testing.assert_array_equal(full, tiny)

    def test_empty(self):
        a = CSRMatrix.empty(5, 5)
        np.testing.assert_array_equal(symbolic_sort(a, a), np.zeros(5))


class TestSymbolicGrouped:
    """The pipeline's symbolic stage: one count over the rows with products."""

    def test_matches_scipy(self, sample_matrix):
        a = sample_matrix
        np.testing.assert_array_equal(
            spgemm_symbolic(a, a, kernel="esc").row_nnz, expected_row_nnz(a, a)
        )

    def test_rectangular(self):
        a = random_csr(12, 8, 30, seed=1)
        b = random_csr(8, 20, 25, seed=2)
        np.testing.assert_array_equal(
            spgemm_symbolic(a, b, kernel="esc").row_nnz, expected_row_nnz(a, b)
        )


class TestDispatcher:
    """The oracle and the pipeline's stage count the same rows."""

    METHODS = {
        "sort": symbolic_sort,
        "grouped": lambda a, b: spgemm_symbolic(a, b).row_nnz,
    }

    @pytest.mark.parametrize("method", ["sort", "grouped"])
    def test_methods_agree(self, sample_matrix, method):
        np.testing.assert_array_equal(
            self.METHODS[method](sample_matrix, sample_matrix),
            expected_row_nnz(sample_matrix, sample_matrix),
        )


class TestRowBatches:
    def test_respects_budget(self):
        ppr = np.array([5, 5, 5, 5, 5])
        batches = list(row_batches(ppr, 10))
        for lo, hi in batches:
            assert ppr[lo:hi].sum() <= 10

    def test_covers_all_rows(self):
        ppr = np.array([3, 9, 1, 4, 12, 2])
        batches = list(row_batches(ppr, 10))
        covered = []
        for lo, hi in batches:
            covered.extend(range(lo, hi))
        assert covered == list(range(6))

    def test_oversized_row_gets_own_batch(self):
        ppr = np.array([2, 100, 3])
        batches = list(row_batches(ppr, 10))
        assert (1, 2) in batches

    def test_zero_rows(self):
        assert list(row_batches(np.array([], dtype=np.int64), 10)) == []

    def test_bad_budget(self):
        with pytest.raises(ValueError):
            list(row_batches(np.array([1]), 0))

    @given(
        ppr=st.lists(st.integers(0, 30) | st.just(0), min_size=1, max_size=40),
        budget=st.integers(1, 100),
    )
    @settings(max_examples=200, deadline=None)
    def test_batches_partition_rows(self, ppr, budget):
        ppr = np.asarray(ppr, dtype=np.int64)
        batches = list(row_batches(ppr, budget))
        # contiguous, ordered, disjoint, covering
        assert batches[0][0] == 0
        assert batches[-1][1] == ppr.size
        for (l0, h0), (l1, h1) in zip(batches, batches[1:]):
            assert h0 == l1
        for lo, hi in batches:
            # within budget, or one over-budget row after zero-product rows
            assert ppr[lo:hi].sum() <= budget or (
                ppr[hi - 1] > budget and not ppr[lo:hi - 1].any())
            # and as long as the budget allows
            if hi < ppr.size:
                assert ppr[lo:hi + 1].sum() > budget
