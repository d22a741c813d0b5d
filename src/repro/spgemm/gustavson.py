"""Gustavson's sequential row-row SpGEMM (paper Algorithm 1).

The deliberately simple reference: per-row dict accumulation, Python loops
and all.  Slow, but its correctness is self-evident, which makes it the
oracle every vectorized kernel is tested against (the vectorized kernels
are *also* cross-checked against scipy in the test suite, giving two
independent oracles).
"""

from __future__ import annotations

import numpy as np

from ..sparse.formats import CSRMatrix, INDEX_DTYPE, VALUE_DTYPE

__all__ = ["spgemm_gustavson"]


def spgemm_gustavson(a: CSRMatrix, b: CSRMatrix) -> CSRMatrix:
    """Sequential Gustavson SpGEMM: ``C[i,*] = sum_k A[i,k] * B[k,*]``."""
    if a.n_cols != b.n_rows:
        raise ValueError(f"dimension mismatch: A is {a.shape}, B is {b.shape}")

    row_offsets = np.zeros(a.n_rows + 1, dtype=INDEX_DTYPE)
    cols_per_row = []
    vals_per_row = []

    for i in range(a.n_rows):
        acc = {}
        a_lo, a_hi = a.row_offsets[i], a.row_offsets[i + 1]
        for idx in range(a_lo, a_hi):
            k = a.col_ids[idx]
            a_ik = a.data[idx]
            b_lo, b_hi = b.row_offsets[k], b.row_offsets[k + 1]
            for jdx in range(b_lo, b_hi):
                j = int(b.col_ids[jdx])
                value = a_ik * b.data[jdx]
                if j in acc:
                    acc[j] += value
                else:
                    acc[j] = value
        cols = sorted(acc)
        row_offsets[i + 1] = row_offsets[i] + len(cols)
        cols_per_row.append(np.asarray(cols, dtype=INDEX_DTYPE))
        vals_per_row.append(np.asarray([acc[j] for j in cols], dtype=VALUE_DTYPE))

    col_ids = (
        np.concatenate(cols_per_row) if cols_per_row else np.empty(0, dtype=INDEX_DTYPE)
    )
    data = (
        np.concatenate(vals_per_row) if vals_per_row else np.empty(0, dtype=VALUE_DTYPE)
    )
    return CSRMatrix(a.n_rows, b.n_cols, row_offsets, col_ids, data, check=False)
