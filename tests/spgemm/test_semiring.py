"""Tests for semiring SpGEMM."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse.formats import CSRMatrix
from repro.sparse.generators import banded, random_csr, rmat
from repro.sparse.ops import drop_explicit_zeros
from repro.spgemm.native import native_available, native_build_error
from repro.spgemm.semiring import (
    MAX_MIN,
    MIN_PLUS,
    OR_AND,
    PLUS_TIMES,
    Semiring,
    spgemm_semiring,
)
from repro.spgemm.twophase import spgemm_twophase
from tests.conftest import assert_equals_scipy_product, assert_same_bytes


def semiring_dense(m, zero):
    """Dense form of ``m`` in which absent entries are the semiring zero."""
    out = np.full(m.shape, zero)
    out[m.expand_row_ids(), m.col_ids] = m.data
    return out


def dense_semiring_product(a, b, add, mul, zero):
    """Brute-force reference on dense arrays with explicit zero handling."""
    da, db = semiring_dense(a, zero), semiring_dense(b, zero)
    n, k = da.shape
    m = db.shape[1]
    out = np.full((n, m), zero)
    for i in range(n):
        for j in range(m):
            acc = zero
            for x in range(k):
                if da[i, x] != zero and db[x, j] != zero and not (
                    np.isinf(zero) and (np.isinf(da[i, x]) or np.isinf(db[x, j]))
                ):
                    acc = add(acc, mul(da[i, x], db[x, j]))
            out[i, j] = acc
    return out


def normal_values(m):
    """``m``'s structure with standard normal values."""
    values = np.random.default_rng(0).standard_normal(m.nnz)
    return CSRMatrix(m.n_rows, m.n_cols, m.row_offsets, m.col_ids, values)


class TestPlusTimes:
    @pytest.mark.parametrize("kernel", [
        "esc",
        pytest.param("native", marks=pytest.mark.skipif(
            not native_available(),
            reason=f"native kernel unavailable: {native_build_error()}")),
    ])
    @pytest.mark.parametrize("operand", [
        lambda: rmat(10, 8, seed=1), lambda: banded(3000, 20, seed=2),
    ], ids=["rmat", "banded"])
    def test_bit_identical_to_pipeline(self, kernel, operand):
        # the pipeline sums in expansion order; so must the semiring path
        a = drop_explicit_zeros(normal_values(operand()))
        ref = drop_explicit_zeros(spgemm_twophase(a, a, kernel=kernel).matrix)
        assert_same_bytes(spgemm_semiring(a, a, PLUS_TIMES), ref)

    def test_matches_standard_product(self, sample_matrix):
        c = spgemm_semiring(sample_matrix, sample_matrix, PLUS_TIMES)
        assert_equals_scipy_product(c, sample_matrix, sample_matrix)

    def test_batched(self, sample_matrix):
        full = spgemm_semiring(sample_matrix, sample_matrix)
        tiny = spgemm_semiring(sample_matrix, sample_matrix, batch_products=64)
        assert full == tiny


class TestMinPlus:
    def test_two_hop_shortest_paths(self):
        # path graph 0 -> 1 -> 2 with weights 3, 4
        a = CSRMatrix.from_dense([[0, 3, 0], [0, 0, 4], [0, 0, 0]])
        c = spgemm_semiring(a, a, MIN_PLUS)
        np.testing.assert_array_equal(c.to_dense(), [[0, 0, 7], [0, 0, 0], [0, 0, 0]])

    def test_takes_minimum_over_paths(self):
        # two 2-hop routes from 0 to 2: 1+10 and 5+1
        dense = np.zeros((4, 4))
        dense[0, 1] = 1.0
        dense[1, 2] = 10.0
        dense[0, 3] = 5.0
        dense[3, 2] = 1.0
        a = CSRMatrix.from_dense(dense)
        c = spgemm_semiring(a, a, MIN_PLUS)
        assert c.to_dense()[0, 2] == 6.0


class TestDenseReference:
    @pytest.mark.parametrize("semiring, add, mul", [
        pytest.param(MIN_PLUS, min, lambda x, y: x + y, id="min_plus"),
        pytest.param(MAX_MIN, max, min, id="max_min"),
        pytest.param(OR_AND, max, lambda x, y: float(bool(x) and bool(y)),
                     id="or_and"),
    ])
    def test_against_dense_reference(self, semiring, add, mul):
        a = random_csr(8, 8, 20, seed=5)
        # negative weights / widths, and a stored 0.0: an entry for
        # MIN_PLUS, absent for the two semirings whose zero it is
        values = np.where(np.arange(a.nnz) % 3 == 0, -a.data, a.data)
        values[a.nnz // 2] = 0.0
        a = CSRMatrix(a.n_rows, a.n_cols, a.row_offsets, a.col_ids, values)
        c = spgemm_semiring(a, a, semiring)
        expected = dense_semiring_product(a, a, add, mul, semiring.zero)
        np.testing.assert_array_equal(semiring_dense(c, semiring.zero), expected)
        # the zero is absent, never stored
        assert not np.any(c.data == semiring.zero)


class TestMaxMin:
    def test_widest_path(self):
        # 0 -> 1 -> 2 widths 5, 2 ; 0 -> 3 -> 2 widths 3, 3
        dense = np.zeros((4, 4))
        dense[0, 1], dense[1, 2] = 5.0, 2.0
        dense[0, 3], dense[3, 2] = 3.0, 3.0
        a = CSRMatrix.from_dense(dense)
        c = spgemm_semiring(a, a, MAX_MIN)
        assert c.to_dense()[0, 2] == 3.0  # the max over path minima

    def test_all_negative_entry_is_absent(self):
        # both products are negative widths: max over them is below the
        # zero (0.0) the fold starts from, so the entry is absent
        a = CSRMatrix.from_dense([[-1.0, 2.0]])
        b = CSRMatrix.from_dense([[-3.0], [-4.0]])
        assert spgemm_semiring(a, b, MAX_MIN).nnz == 0


class TestOrAnd:
    def test_two_hop_reachability(self):
        a = CSRMatrix.from_dense([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        c = spgemm_semiring(a, a, OR_AND)
        np.testing.assert_array_equal(
            c.to_dense(), [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
        )

    def test_output_is_boolean(self, sample_matrix):
        c = spgemm_semiring(sample_matrix, sample_matrix, OR_AND)
        assert set(np.unique(c.data)) <= {1.0}


class TestEdgeCases:
    def test_empty(self):
        a = CSRMatrix.empty(4, 4)
        for sr in (PLUS_TIMES, MIN_PLUS, OR_AND):
            assert spgemm_semiring(a, a, sr).nnz == 0

    def test_dimension_mismatch(self):
        a = random_csr(3, 4, 5, seed=1)
        with pytest.raises(ValueError, match="mismatch"):
            spgemm_semiring(a, a)

    def test_annihilated_products_pruned(self):
        # values that multiply to the semiring zero must not appear
        a = CSRMatrix(1, 2, [0, 1], [1], [2.0])
        b = CSRMatrix(2, 1, [0, 0, 1], [0], [-2.0])
        c = spgemm_semiring(a, b, Semiring("sum_plus", np.add, np.add, 0.0))
        assert c.nnz == 0  # 2 + (-2) == additive zero -> pruned

    def test_stored_zero_operand_does_not_multiply(self):
        # a stored PLUS_TIMES zero is absent: no 0 * inf = nan is formed
        a = CSRMatrix(1, 2, [0, 2], [0, 1], [0.0, 1.0])
        b = CSRMatrix(2, 1, [0, 1, 2], [0, 0], [np.inf, 2.0])
        c = spgemm_semiring(a, b, PLUS_TIMES)
        np.testing.assert_array_equal(c.to_dense(), [[2.0]])

    def test_repr(self):
        assert "min_plus" in repr(MIN_PLUS)


class TestProperties:
    @given(seed=st.integers(0, 300))
    @settings(max_examples=25, deadline=None)
    def test_plus_times_always_matches_scipy(self, seed):
        a = random_csr(10, 10, 25, seed=seed)
        c = spgemm_semiring(a, a)
        assert_equals_scipy_product(c, a, a)

    @given(seed=st.integers(0, 200))
    @settings(max_examples=20, deadline=None)
    def test_or_and_matches_boolean_dense(self, seed):
        a = random_csr(9, 9, 20, seed=seed)
        c = spgemm_semiring(a, a, OR_AND)
        expected = ((a.to_dense() != 0) @ (a.to_dense() != 0)) > 0
        np.testing.assert_array_equal(c.to_dense() != 0, expected)
