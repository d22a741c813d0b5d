"""Numeric phase: compute output values into an exactly-sized allocation.

"The second phase is called numeric phase, which starts with the knowledge
of the number of non-zero elements in the output matrix, and thus, space
allocation is now feasible."  Row groups are re-derived from the *exact*
symbolic counts (the paper's second, global load-balancing pass), and each
group's accumulator writes directly into its rows' slots of the shared
output arrays — mirroring how the GPU kernels write disjoint ranges of one
pre-allocated buffer.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..sparse.formats import CSRMatrix, INDEX_DTYPE, VALUE_DTYPE
from ..sparse.ops import RowSliceCache
from .accumulators import RowResults
from .groups import RowGrouping, group_rows
from .native import native_fill_rows

__all__ = ["numeric_grouped", "numeric_phase"]


def numeric_grouped(
    a: CSRMatrix,
    b: CSRMatrix,
    row_nnz: np.ndarray,
    grouping: RowGrouping,
    *,
    slice_cache: Optional[RowSliceCache] = None,
    precomputed: Optional[Sequence[Optional[RowResults]]] = None,
) -> CSRMatrix:
    """Run the numeric phase with an explicit row grouping.

    ``row_nnz`` are the exact symbolic counts; they fix the output layout
    (``row_offsets``) before any group runs, so groups can fill their rows
    independently and in any order.  Accumulators are dispatched by group
    method through the kernel registry.  ``slice_cache`` memoizes
    row-group gathers of ``a`` across passes and sibling chunks.

    ``precomputed`` (parallel to ``grouping.groups``) supplies cached
    :class:`RowResults` for *fused* groups whose symbolic pass already
    produced values (esc/merge kernels); those groups only scatter here
    instead of recomputing.  ``None`` entries run normally.  ``native``
    groups fill their rows of the output arrays in place — no
    :class:`RowResults`, no scatter.
    """
    row_nnz = np.asarray(row_nnz, dtype=INDEX_DTYPE)
    if row_nnz.size != a.n_rows:
        raise ValueError("row_nnz length must equal the number of A rows")

    row_offsets = np.zeros(a.n_rows + 1, dtype=INDEX_DTYPE)
    np.cumsum(row_nnz, out=row_offsets[1:])
    nnz = int(row_offsets[-1])
    col_ids = np.empty(nnz, dtype=INDEX_DTYPE)
    data = np.empty(nnz, dtype=VALUE_DTYPE)

    from .kernels import accumulate  # deferred: kernels imports this module's peers

    if precomputed is not None and len(precomputed) != len(grouping.groups):
        raise ValueError("precomputed must align with grouping.groups")

    for gi, g in enumerate(grouping):
        if len(g) == 0:
            continue
        res = precomputed[gi] if precomputed is not None else None
        if res is None:
            if g.method == "native":
                # the kernel itself refuses a row that disagrees with row_nnz
                native_fill_rows(a, b, g.rows, row_offsets, col_ids, data)
                continue
            # exact counts are the tightest possible table/buffer sizing
            res = accumulate(
                g.method, a, b, g.rows, row_nnz[g.rows],
                with_values=True, slice_cache=slice_cache,
            )
        if not np.array_equal(res.counts, row_nnz[g.rows]):
            raise RuntimeError(
                "numeric phase disagrees with symbolic counts — "
                "accumulator inconsistency"
            )
        # scatter the group's concatenated rows into their global slots
        starts = row_offsets[g.rows]
        local = res.offsets()
        src_n = res.nnz
        dest = np.repeat(starts - local[:-1], res.counts) + np.arange(
            src_n, dtype=INDEX_DTYPE
        )
        col_ids[dest] = res.col_ids
        data[dest] = res.values

    return CSRMatrix(a.n_rows, b.n_cols, row_offsets, col_ids, data, check=False)


def numeric_phase(a: CSRMatrix, b: CSRMatrix, row_nnz: np.ndarray) -> CSRMatrix:
    """Numeric phase with the standard exact-count re-grouping."""
    grouping = group_rows(np.asarray(row_nnz), b.n_cols)
    return numeric_grouped(a, b, row_nnz, grouping)
