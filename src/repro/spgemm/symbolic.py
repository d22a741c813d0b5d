"""Symbolic phase: exact nnz of every output row (paper Section II.B).

"The first phase is the symbolic phase, where they first count the number
of non-zero elements of each row in the output matrix."  Knowing the counts
makes exact output allocation possible before any value is computed.

Three interchangeable implementations:

``symbolic_sort``
    expand + lexsort + unique.  Simple, used as the oracle and by the
    profiling path; batched over rows so peak memory is bounded.
``symbolic_grouped``
    the spECK-style path: per row group, one registered accumulator
    (hash/dense/esc) in a structure-only run.
``symbolic_row_nnz``
    convenience dispatcher.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..sparse.formats import CSRMatrix, INDEX_DTYPE
from .expand import expand_products, row_batches
from .groups import RowGrouping, group_rows
from .upperbound import row_upper_bound

__all__ = [
    "row_batches",
    "symbolic_sort",
    "symbolic_grouped",
    "symbolic_row_nnz",
]

#: default cap on intermediate products materialized at once
PRODUCT_BATCH = 1 << 23


def symbolic_sort(
    a: CSRMatrix, b: CSRMatrix, *, batch_products: int = PRODUCT_BATCH
) -> np.ndarray:
    """Exact output-row nnz via expand + sort + unique (oracle path)."""
    ppr = row_upper_bound(a, b)  # products per row
    out = np.zeros(a.n_rows, dtype=INDEX_DTYPE)
    for lo, hi in row_batches(ppr, batch_products):
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


def symbolic_grouped(
    a: CSRMatrix,
    b: CSRMatrix,
    grouping: RowGrouping,
    work: np.ndarray,
    *,
    slice_cache: Optional["RowSliceCache"] = None,
) -> np.ndarray:
    """spECK-style symbolic execution: one structure-only accumulator pass
    per row group, dispatched by group method through the kernel registry
    (:mod:`repro.spgemm.kernels`).  ``work`` is the per-row upper bound
    sizing hash tables and output buffers.  ``slice_cache`` memoizes the
    per-group ``take_rows(a, ...)`` slices so the numeric pass (and
    sibling chunks of the same A panel) reuse them."""
    from .kernels import accumulate  # deferred: kernels imports this module's peers

    out = np.zeros(a.n_rows, dtype=INDEX_DTYPE)
    for g in grouping:
        if len(g) == 0:
            continue
        res = accumulate(
            g.method, a, b, g.rows, work[g.rows],
            with_values=False, slice_cache=slice_cache,
        )
        out[g.rows] = res.counts
    return out


def symbolic_row_nnz(a: CSRMatrix, b: CSRMatrix, method: str = "grouped") -> np.ndarray:
    """Exact nnz per output row of ``A x B``.

    ``method`` is one of ``"grouped"`` (spECK-style) or ``"sort"`` (oracle).
    """
    if method == "sort":
        return symbolic_sort(a, b)
    if method == "grouped":
        work = row_upper_bound(a, b)
        grouping = group_rows(work, b.n_cols)
        return symbolic_grouped(a, b, grouping, work)
    raise ValueError(f"unknown symbolic method {method!r}")
