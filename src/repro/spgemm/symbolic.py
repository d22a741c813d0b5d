"""Symbolic phase: exact nnz of every output row (paper Section II.B).

"The first phase is the symbolic phase, where they first count the number
of non-zero elements of each row in the output matrix."  Knowing the counts
makes exact output allocation possible before any value is computed.

The pipeline's symbolic stage is the kernel's own count
(:func:`~repro.spgemm.twophase.spgemm_symbolic`); :func:`symbolic_sort`
here is the independent oracle — expand + lexsort + unique, batched over
rows so peak memory is bounded.
"""

from __future__ import annotations

import numpy as np

from ..sparse.formats import CSRMatrix, INDEX_DTYPE
from .expand import PRODUCT_BATCH, expand_products, row_batches
from .flops import products_per_row

__all__ = ["symbolic_sort"]


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

