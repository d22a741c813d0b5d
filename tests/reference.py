"""The cross-checking oracles: scipy.sparse, and two slow references.

scipy's SpGEMM is an independent, battle-tested implementation; every
kernel in the package is validated against it (and against the
sequential Gustavson reference below) in this suite.  The library itself
never computes through scipy, nor through these references:
:func:`spgemm_gustavson` is the paper's Algorithm 1 — per-row dict
accumulation, Python loops and all, slow but self-evidently right — and
:func:`symbolic_sort` the oracle count of each output row's nnz (paper
Section II.B's symbolic phase) by expand + lexsort + unique, batched over
rows so peak memory is bounded.
"""

import numpy as np

from repro.sparse.formats import CSRMatrix, INDEX_DTYPE, VALUE_DTYPE
from repro.sparse.ops import drop_explicit_zeros
from repro.spgemm.expand import PRODUCT_BATCH, expand_products, row_batches
from repro.spgemm.flops import products_per_row


def spgemm_scipy(a: CSRMatrix, b: CSRMatrix) -> CSRMatrix:
    """``A x B`` via scipy, returned in canonical CSR."""
    if a.n_cols != b.n_rows:
        raise ValueError(f"dimension mismatch: A is {a.shape}, B is {b.shape}")
    return CSRMatrix.from_scipy(a.to_scipy() @ b.to_scipy())


def assert_same_product(
    candidate: CSRMatrix,
    a: CSRMatrix,
    b: CSRMatrix,
    rtol: float = 1e-9,
    atol: float = 1e-12,
) -> None:
    """Raise ``AssertionError`` unless ``candidate`` equals ``A x B``.

    Structure must match exactly (scipy prunes numerically-zero entries,
    so candidates are compared after the same pruning); values must match
    within tolerance.
    """
    expected = spgemm_scipy(a, b)
    got = drop_explicit_zeros(candidate)
    if got.shape != expected.shape:
        raise AssertionError(f"shape mismatch: {got.shape} vs {expected.shape}")
    if not got.allclose(expected, rtol=rtol, atol=atol):
        raise AssertionError(
            f"product mismatch: candidate nnz={got.nnz}, expected nnz={expected.nnz}"
        )


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


def symbolic_sort(
    a: CSRMatrix, b: CSRMatrix, *, batch_products: int = PRODUCT_BATCH
) -> np.ndarray:
    """Exact output-row nnz via expand + sort + unique (oracle path)."""
    out = np.zeros(a.n_rows, dtype=INDEX_DTYPE)
    for lo, hi in row_batches(products_per_row(a, b), batch_products):
        rows, cols, _ = expand_products(a, b, lo, hi)
        if rows.size == 0:
            continue
        order = np.lexsort((cols, rows))
        rows, cols = rows[order], cols[order]
        new = np.empty(rows.size, dtype=bool)
        new[0] = True
        new[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        np.add.at(out, rows[new], 1)
    return out
