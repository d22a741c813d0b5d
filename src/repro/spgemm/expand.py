"""The *expansion* primitive shared by every SpGEMM path.

For ``C = A x B`` (row-row formulation), every nonzero ``A[i, k]`` scales row
``k`` of ``B``; expansion materializes all these *intermediate products* as
three flat arrays ``(out_rows, out_cols, values)``.  ESC sorts them, the
hash baseline inserts them into per-row tables — but the expansion itself
is identical, so it lives here once, fully vectorized (no per-nonzero
Python loops).

The number of products ``P`` equals ``flops / 2``; memory is ``O(P)``, so
every caller expands in :func:`row_batches` of at most
:data:`PRODUCT_BATCH` products.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional, Tuple

import numpy as np

from ..sparse.formats import CSRMatrix, INDEX_DTYPE, VALUE_DTYPE

__all__ = ["PRODUCT_BATCH", "expand_products", "row_batches"]

#: default cap on the intermediate products one batch expands at once
PRODUCT_BATCH = 1 << 22


def row_batches(products_per_row: np.ndarray, budget: int) -> Iterator[Tuple[int, int]]:
    """Yield contiguous row ranges whose total products stay within ``budget``.

    A single row exceeding the budget still gets its own batch, together
    with any zero-product rows before it (it cannot be split by this
    phase — the out-of-core planner splits on columns for that case).
    Each batch is found by two searches of the products prefix.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    n = products_per_row.size
    prefix = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(products_per_row, out=prefix[1:])
    total = int(prefix[-1])
    start = 0
    while start < n:
        lo = prefix[start]
        # past the zero-product rows and the first row with products ...
        first = int(np.searchsorted(prefix, lo, side="right"))
        # ... or as far as the budget reaches, whichever is further
        fits = int(np.searchsorted(prefix, min(int(lo) + budget, total),
                                   side="right")) - 1
        stop = min(n, max(first, fits))
        yield start, stop
        start = stop


def expand_products(
    a: CSRMatrix,
    b: CSRMatrix,
    row_start: int = 0,
    row_stop: Optional[int] = None,
    *,
    multiply: Callable[[np.ndarray, np.ndarray], np.ndarray] = np.multiply,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Materialize intermediate products of rows ``[row_start, row_stop)``.

    Returns ``(out_rows, out_cols, values)`` where ``out_rows`` are *global*
    row ids of A (ascending), ``out_cols`` are B column ids, and
    ``values[p] = multiply(A[i, k], B[k, j])``, cast to float64 (a
    boolean ``multiply`` would otherwise miss ``ufunc.at``'s fast path
    downstream).  Products of one A row appear
    consecutively, ordered by the position of ``A[i, k]`` within the row
    and then by B's column order — i.e. deterministic.

    The row range lets callers batch expansion to bound peak memory.
    """
    if a.n_cols != b.n_rows:
        raise ValueError(f"dimension mismatch: A is {a.shape}, B is {b.shape}")
    if row_stop is None:
        row_stop = a.n_rows
    if not 0 <= row_start <= row_stop <= a.n_rows:
        raise IndexError(f"invalid row range [{row_start}, {row_stop})")

    lo = int(a.row_offsets[row_start])
    hi = int(a.row_offsets[row_stop])
    a_cols = a.col_ids[lo:hi]
    a_vals = a.data[lo:hi]
    if a_cols.size == 0:
        empty_i = np.empty(0, dtype=INDEX_DTYPE)
        return empty_i, empty_i.copy(), np.empty(0, dtype=VALUE_DTYPE)

    counts = b.row_nnz()[a_cols]  # products per A element
    total = int(counts.sum())

    # row id of each A element in the range
    a_rows = np.repeat(
        np.arange(row_start, row_stop, dtype=INDEX_DTYPE),
        np.diff(a.row_offsets[row_start : row_stop + 1]),
    )
    out_rows = np.repeat(a_rows, counts)

    # gather source indices into B's element arrays:
    #   element e of A contributes B positions [row_offsets[k_e], +counts_e)
    starts = b.row_offsets[a_cols]
    exclusive = np.concatenate(
        [np.zeros(1, dtype=INDEX_DTYPE), np.cumsum(counts, dtype=INDEX_DTYPE)[:-1]]
    )
    src = np.repeat(starts - exclusive, counts) + np.arange(total, dtype=INDEX_DTYPE)

    out_cols = b.col_ids[src]
    values = np.asarray(
        multiply(np.repeat(a_vals, counts), b.data[src]), dtype=VALUE_DTYPE)
    return out_rows, out_cols, values
