"""Flop counting for SpGEMM (paper Table II and Algorithm 4, lines 6-13).

Following the paper's convention a multiply-add counts as **2 flops**, so

    flop(A x B) = 2 * sum over nonzeros A[i,k] of nnz(B[k,*])

The per-row variant is the *row analysis* quantity the spECK-style kernel
computes in its first stage, and the per-chunk variant is what the hybrid
scheduler (``GetFlops`` in Algorithm 4) sorts on.  The *compression ratio*
``flop(C) / nnz(C)`` is the paper's key performance indicator (Section V.B).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..sparse.formats import CSRMatrix

__all__ = [
    "product_prefix",
    "products_per_row",
    "flops_per_row",
    "total_flops",
    "compression_ratio",
]


def product_prefix(
    a: CSRMatrix,
    b: CSRMatrix,
    b_row_nnz: Optional[np.ndarray] = None,
    *,
    scratch: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Intermediate products of ``A x B`` as a row prefix: ``prefix[i]``
    counts the products rows ``[0, i)`` of A form, so any row range is
    one subtraction (int64, length ``n_rows_A + 1``).

    The one product count in the package: nnz of the referenced B rows
    gathered over ``A.col_ids``, segment-summed by ``A.row_offsets``.
    ``b_row_nnz`` restricts B's rows to part of their columns (one
    column panel's nnz per row; default: the whole rows);  ``scratch``
    is a reusable ``nnz_A + 1`` int64 buffer whose first element is 0.
    """
    if a.n_cols != b.n_rows:
        raise ValueError(f"dimension mismatch: A is {a.shape}, B is {b.shape}")
    if b_row_nnz is None:
        b_row_nnz = b.row_nnz()
    if scratch is None:
        scratch = np.zeros(a.nnz + 1, dtype=np.int64)
    np.cumsum(b_row_nnz[a.col_ids], out=scratch[1:])
    return scratch[a.row_offsets]


def products_per_row(a: CSRMatrix, b: CSRMatrix) -> np.ndarray:
    """Intermediate products of each row of ``A`` in ``A x B`` (int64):
    the row analysis (Fig. 3 stage 1), and the per-row upper bound on
    output nnz (every product a distinct column)."""
    return np.diff(product_prefix(a, b))


def flops_per_row(a: CSRMatrix, b: CSRMatrix) -> np.ndarray:
    """Flops contributed by each row of ``A`` in ``A x B`` (int64 array).
    A multiply-add counts as 2 flops."""
    return 2 * products_per_row(a, b)


def total_flops(a: CSRMatrix, b: CSRMatrix) -> int:
    """Total flops of ``A x B`` (2 x number of intermediate products)."""
    return 2 * int(product_prefix(a, b)[-1])


def compression_ratio(flops: int, nnz_out: int) -> float:
    """``flop(C) / nnz(C)`` — the paper's performance indicator.

    Values near 2 mean almost every intermediate product is a distinct
    output nonzero (irregular graphs); large values mean heavy collision
    (regular meshes) and thus more compute per transferred byte.
    Empty outputs return 0.0.
    """
    return flops / nnz_out if nnz_out else 0.0
