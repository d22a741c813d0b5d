"""The paper's rejected MKL baseline, as a test-local 32-bit-index guard.

The paper considers Intel MKL as the CPU baseline and rejects it: "since
MKL Library only supports integer as the data type for the arrays
row_offsets and col_ids, it cannot handle large matrices".  The guard
below reproduces that limitation in front of the repo's two-phase
kernel: any matrix whose output would need offsets beyond ``INT32_MAX``
raises :class:`IndexWidthError` before computing, exactly as a 32-bit API
would overflow — which is why the framework insists on int64.
"""

import sys

import numpy as np
import pytest

from repro.sparse.formats import CSRMatrix
from repro.sparse.generators import random_csr
from repro.spgemm.flops import total_flops
from repro.spgemm.twophase import spgemm_twophase
from tests.conftest import assert_equals_scipy_product

INT32_MAX = np.iinfo(np.int32).max

mkl = sys.modules[__name__]  # the guard's globals, for monkeypatching


class IndexWidthError(OverflowError):
    """The matrix needs index values a 32-bit CSR representation cannot hold."""


def _check_32bit(value: int, what: str) -> None:
    if value > INT32_MAX:
        raise IndexWidthError(
            f"{what} = {value} exceeds INT32_MAX ({INT32_MAX}); "
            "a 32-bit CSR library (MKL) cannot represent this matrix"
        )


def spgemm_mkl_like(a: CSRMatrix, b: CSRMatrix) -> CSRMatrix:
    """SpGEMM constrained to 32-bit index arithmetic: raises
    :class:`IndexWidthError` when inputs or the (upper bound of the)
    output exceed 32-bit offsets — before any numeric work, the way a
    32-bit API fails at allocation time."""
    if a.n_cols != b.n_rows:
        raise ValueError(f"dimension mismatch: A is {a.shape}, B is {b.shape}")
    _check_32bit(max(a.n_rows, a.n_cols, b.n_cols), "matrix dimension")
    _check_32bit(a.nnz, "nnz(A)")
    _check_32bit(b.nnz, "nnz(B)")
    # an int32 row_offsets array overflows at total output nnz; the upper
    # bound is what an implementation must allocate against
    _check_32bit(total_flops(a, b) // 2, "upper bound of nnz(C)")
    return spgemm_twophase(a, b).matrix


class TestCorrectness:
    def test_matches_scipy(self, sample_matrix):
        c = mkl.spgemm_mkl_like(sample_matrix, sample_matrix)
        assert_equals_scipy_product(c, sample_matrix, sample_matrix)

    def test_rectangular(self):
        a = random_csr(12, 9, 30, seed=71)
        b = random_csr(9, 15, 28, seed=72)
        assert_equals_scipy_product(mkl.spgemm_mkl_like(a, b), a, b)

    def test_dimension_mismatch(self):
        a = random_csr(4, 5, 8, seed=1)
        with pytest.raises(ValueError, match="mismatch"):
            mkl.spgemm_mkl_like(a, a)


class TestInt32Limitation:
    """The paper: 'MKL Library only supports integer as the data type for
    the arrays row_offsets and col_ids, it can not handle large matrices'."""

    def test_large_upper_bound_rejected(self, sample_matrix, monkeypatch):
        # shrink the representable range so the suite-sized matrix "overflows"
        monkeypatch.setattr(mkl, "INT32_MAX", 10)
        with pytest.raises(mkl.IndexWidthError, match="INT32_MAX"):
            mkl.spgemm_mkl_like(sample_matrix, sample_matrix)

    def test_error_is_raised_before_compute(self, sample_matrix, monkeypatch):
        calls = []
        monkeypatch.setattr(mkl, "INT32_MAX", 10)
        monkeypatch.setattr(
            mkl, "spgemm_twophase",
            lambda *a, **k: calls.append(1),
        )
        with pytest.raises(mkl.IndexWidthError):
            mkl.spgemm_mkl_like(sample_matrix, sample_matrix)
        assert calls == []  # never reached the numeric work

    def test_error_is_overflow_error(self):
        assert issubclass(mkl.IndexWidthError, OverflowError)

    def test_within_range_accepted(self):
        a = random_csr(20, 20, 60, seed=73)
        c = mkl.spgemm_mkl_like(a, a)
        assert c.nnz > 0
