"""An MKL-style CPU SpGEMM with 32-bit index arrays.

The paper considers Intel MKL as the CPU baseline and rejects it: "since
MKL Library only supports integer as the data type for the arrays
row_offsets and col_ids, it cannot handle large matrices".  This module
reproduces that limitation faithfully so the test suite (and the Table II
discussion in EXPERIMENTS.md) can demonstrate *why* the framework insists
on int64: any matrix whose output would need offsets beyond ``INT32_MAX``
raises :class:`IndexWidthError` before computing, exactly as a 32-bit API
would overflow.

Past the refusals it multiplies with the repo's own two-phase kernel
(:func:`~repro.spgemm.twophase.spgemm_twophase`): what this baseline
reproduces is the index-width limit, not MKL's accumulator.
"""

from __future__ import annotations

import numpy as np

from ..sparse.formats import CSRMatrix
from ..spgemm.flops import total_flops
from ..spgemm.twophase import spgemm_twophase

__all__ = ["IndexWidthError", "spgemm_mkl_like", "INT32_MAX"]

INT32_MAX = np.iinfo(np.int32).max


class IndexWidthError(OverflowError):
    """The matrix needs index values a 32-bit CSR representation cannot hold."""


def _check_32bit(value: int, what: str) -> None:
    if value > INT32_MAX:
        raise IndexWidthError(
            f"{what} = {value} exceeds INT32_MAX ({INT32_MAX}); "
            "a 32-bit CSR library (MKL) cannot represent this matrix"
        )


def spgemm_mkl_like(a: CSRMatrix, b: CSRMatrix) -> CSRMatrix:
    """SpGEMM constrained to 32-bit index arithmetic.

    Raises :class:`IndexWidthError` when inputs or the (upper bound of
    the) output exceed 32-bit offsets — before any numeric work, the way
    a 32-bit API fails at allocation time.
    """
    if a.n_cols != b.n_rows:
        raise ValueError(f"dimension mismatch: A is {a.shape}, B is {b.shape}")
    _check_32bit(max(a.n_rows, a.n_cols, b.n_cols), "matrix dimension")
    _check_32bit(a.nnz, "nnz(A)")
    _check_32bit(b.nnz, "nnz(B)")
    # an int32 row_offsets array overflows at total output nnz; the upper
    # bound is what an implementation must allocate against
    ub_total = total_flops(a, b) // 2
    _check_32bit(ub_total, "upper bound of nnz(C)")

    return spgemm_twophase(a, b).matrix
