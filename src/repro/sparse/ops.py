"""Element-wise and structural operations on CSR matrices.

These are support routines for the SpGEMM kernels, chunk assembly, and the
test suite (e.g. verifying ``C = A @ A`` against the dense product).
All operations are vectorized.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .coo import coo_to_csr_arrays
from .csc import CSCMatrix
from .formats import CSRMatrix, INDEX_DTYPE, VALUE_DTYPE

__all__ = [
    "transpose",
    "add",
    "scale",
    "hstack",
    "vstack",
    "drop_explicit_zeros",
    "keep_entries",
    "extract_columns",
    "take_rows",
    "row_stats",
]


def transpose(a: CSRMatrix) -> CSRMatrix:
    """Transpose: CSR -> CSC arrays of A are exactly CSR arrays of Aᵀ."""
    csc = CSCMatrix.from_csr(a)
    return CSRMatrix(
        a.n_cols, a.n_rows, csc.col_offsets, csc.row_ids, csc.data, check=False
    )


def scale(a: CSRMatrix, alpha: float) -> CSRMatrix:
    """Return ``alpha * A`` (structure preserved, including explicit zeros)."""
    return CSRMatrix(
        a.n_rows, a.n_cols, a.row_offsets.copy(), a.col_ids.copy(),
        a.data * float(alpha), check=False,
    )


def add(a: CSRMatrix, b: CSRMatrix) -> CSRMatrix:
    """Sparse ``A + B`` via merged COO triplets (duplicates summed).

    Entries that cancel to exactly 0.0 remain stored; callers that need a
    pruned structure apply :func:`drop_explicit_zeros`.
    """
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    rows = np.concatenate([a.expand_row_ids(), b.expand_row_ids()])
    cols = np.concatenate([a.col_ids, b.col_ids])
    data = np.concatenate([a.data, b.data])
    row_offsets, col_ids, out = coo_to_csr_arrays(a.n_rows, rows, cols, data)
    return CSRMatrix(a.n_rows, a.n_cols, row_offsets, col_ids, out, check=False)


def keep_entries(a: CSRMatrix, keep: np.ndarray) -> CSRMatrix:
    """The stored entries where the boolean ``keep`` (one per entry) is
    true, in their order, with the row offsets recounted."""
    kept = np.zeros(a.nnz + 1, dtype=INDEX_DTYPE)
    np.cumsum(keep, out=kept[1:])
    return CSRMatrix(
        a.n_rows, a.n_cols, kept[a.row_offsets], a.col_ids[keep], a.data[keep],
        check=False,
    )


def drop_explicit_zeros(a: CSRMatrix, tol: float = 0.0) -> CSRMatrix:
    """Remove stored entries with ``|value| <= tol`` and recompute offsets."""
    return keep_entries(a, np.abs(a.data) > tol)


def hstack(mats: Sequence[CSRMatrix]) -> CSRMatrix:
    """Concatenate matrices horizontally ``[M0 | M1 | ...]``.

    The definition of how the chunks ``C[row][0..num_col_panels)`` of one
    output row panel sit side by side (column panels are contiguous
    column ranges).  The product path no longer calls it — chunks are
    written straight into :class:`repro.core.assemble.OutputLayout` —
    but the tests keep ``vstack`` of ``hstack`` as that layout's oracle.
    """
    if not mats:
        raise ValueError("hstack of zero matrices")
    n_rows = mats[0].n_rows
    if any(m.n_rows != n_rows for m in mats):
        raise ValueError("hstack requires equal row counts")

    col_shift = np.cumsum([0] + [m.n_cols for m in mats])
    total_cols = int(col_shift[-1])

    per_row = sum(m.row_nnz() for m in mats)
    row_offsets = np.zeros(n_rows + 1, dtype=INDEX_DTYPE)
    row_offsets[1:] = np.cumsum(per_row)
    nnz = int(row_offsets[-1])

    col_ids = np.empty(nnz, dtype=INDEX_DTYPE)
    data = np.empty(nnz, dtype=VALUE_DTYPE)

    # write each matrix's rows into its interleaved destination slots
    cursor = row_offsets[:-1].copy()
    for m, shift in zip(mats, col_shift[:-1]):
        cnt = m.row_nnz()
        # destination index for each element of m: cursor[row] + intra-row pos
        starts = np.repeat(cursor, cnt)
        intra = np.arange(m.nnz, dtype=INDEX_DTYPE) - np.repeat(
            m.row_offsets[:-1], cnt
        )
        dest = starts + intra
        col_ids[dest] = m.col_ids + shift
        data[dest] = m.data
        cursor += cnt

    return CSRMatrix(n_rows, total_cols, row_offsets, col_ids, data, check=False)


def vstack(mats: Sequence[CSRMatrix]) -> CSRMatrix:
    """Concatenate matrices vertically (row panels back into one matrix)."""
    if not mats:
        raise ValueError("vstack of zero matrices")
    n_cols = mats[0].n_cols
    if any(m.n_cols != n_cols for m in mats):
        raise ValueError("vstack requires equal column counts")

    n_rows = sum(m.n_rows for m in mats)
    row_offsets = np.zeros(n_rows + 1, dtype=INDEX_DTYPE)
    pos, base = 1, 0
    for m in mats:
        row_offsets[pos : pos + m.n_rows] = m.row_offsets[1:] + base
        base += m.nnz
        pos += m.n_rows
    col_ids = np.concatenate([m.col_ids for m in mats])
    data = np.concatenate([m.data for m in mats])
    return CSRMatrix(n_rows, n_cols, row_offsets, col_ids, data, check=False)


def extract_columns(a: CSRMatrix, start: int, stop: int) -> CSRMatrix:
    """Reference implementation of the column-panel extraction.

    Returns rows restricted to columns ``[start, stop)``, renumbered to
    ``[0, stop - start)``.  Deliberately simple (mask + recount); the
    optimized ``col_offset`` partitioner in :mod:`repro.sparse.partition`
    is validated against this.
    """
    if not 0 <= start <= stop <= a.n_cols:
        raise IndexError(f"invalid column range [{start}, {stop})")
    mask = (a.col_ids >= start) & (a.col_ids < stop)
    rows = a.expand_row_ids()[mask]
    row_offsets = np.zeros(a.n_rows + 1, dtype=INDEX_DTYPE)
    np.add.at(row_offsets, rows + 1, 1)
    np.cumsum(row_offsets, out=row_offsets)
    return CSRMatrix(
        a.n_rows, stop - start, row_offsets,
        a.col_ids[mask] - start, a.data[mask], check=False,
    )


def take_rows(a: CSRMatrix, rows: np.ndarray) -> CSRMatrix:
    """Gather an arbitrary subset of rows into a compact CSR matrix.

    Output row ``i`` is input row ``rows[i]`` (order preserved, repeats
    allowed).  Used by the row-group kernels, which process scattered row
    sets selected by the load balancer.
    """
    rows = np.asarray(rows, dtype=INDEX_DTYPE)
    if rows.size and (rows.min() < 0 or rows.max() >= a.n_rows):
        raise IndexError("row index out of range")
    counts = a.row_nnz()[rows]
    row_offsets = np.zeros(rows.size + 1, dtype=INDEX_DTYPE)
    np.cumsum(counts, out=row_offsets[1:])
    nnz = int(row_offsets[-1])
    starts = a.row_offsets[rows]
    src = np.repeat(starts - row_offsets[:-1], counts) + np.arange(nnz, dtype=INDEX_DTYPE)
    return CSRMatrix(
        rows.size, a.n_cols, row_offsets, a.col_ids[src], a.data[src], check=False
    )


def row_stats(a: CSRMatrix) -> dict:
    """Summary statistics of the row-length distribution (skew diagnostics
    used when characterizing the input suite, cf. Section V.C)."""
    cnt = a.row_nnz()
    if cnt.size == 0:
        return {"min": 0, "max": 0, "mean": 0.0, "std": 0.0, "gini": 0.0}
    mean = float(cnt.mean())
    sorted_cnt = np.sort(cnt)
    n = cnt.size
    cum = np.cumsum(sorted_cnt, dtype=np.float64)
    # Gini coefficient of row lengths: 0 = perfectly regular, ->1 = skewed
    gini = float((n + 1 - 2 * (cum / cum[-1]).sum()) / n) if cum[-1] > 0 else 0.0
    return {
        "min": int(cnt.min()),
        "max": int(cnt.max()),
        "mean": mean,
        "std": float(cnt.std()),
        "gini": gini,
    }
