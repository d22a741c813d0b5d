"""The paper's naive column partition, kept as a test-side reference.

Section III.D first describes a simplistic column split and then
replaces it with the ``col_offset`` scheme
(:func:`repro.sparse.partition.partition_columns`).  Nothing in the
package calls the simplistic one; ``tests/sparse/test_partition.py``
checks the optimized scheme against it, and
``benchmarks/test_kernels_wallclock.py`` times the two side by side.
"""

from typing import List, Tuple

import numpy as np

from repro.sparse.formats import CSRMatrix, INDEX_DTYPE, VALUE_DTYPE
from repro.sparse.partition import panel_boundaries


def partition_columns_naive(b: CSRMatrix, num_panels: int) -> Tuple[CSRMatrix, ...]:
    """Two-stage count/fill with full per-panel rescans (paper's baseline).

    For each panel ``[start_col, end_col)`` every row is scanned from its
    beginning; elements inside the column range are counted, then copied.
    Kept deliberately close to the paper's description — the per-row scan
    uses binary search rather than a linear walk so the test suite stays
    fast, but the panel × row rescan structure (the inefficiency the
    ``col_offset`` scheme removes) is preserved.
    """
    bounds = panel_boundaries(b.n_cols, num_panels)
    panels: List[CSRMatrix] = []
    for p in range(num_panels):
        start_col, end_col = int(bounds[p]), int(bounds[p + 1])
        # stage 1: count nnz of this panel per row
        counts = np.zeros(b.n_rows, dtype=INDEX_DTYPE)
        lo_idx = np.empty(b.n_rows, dtype=INDEX_DTYPE)
        for r in range(b.n_rows):
            lo, hi = b.row_offsets[r], b.row_offsets[r + 1]
            row_cols = b.col_ids[lo:hi]
            i0 = np.searchsorted(row_cols, start_col, side="left")
            i1 = np.searchsorted(row_cols, end_col, side="left")
            counts[r] = i1 - i0
            lo_idx[r] = lo + i0
        # stage 2: allocate, then fill
        row_offsets = np.zeros(b.n_rows + 1, dtype=INDEX_DTYPE)
        np.cumsum(counts, out=row_offsets[1:])
        col_ids = np.empty(int(row_offsets[-1]), dtype=INDEX_DTYPE)
        data = np.empty(int(row_offsets[-1]), dtype=VALUE_DTYPE)
        for r in range(b.n_rows):
            n = counts[r]
            if n:
                dst = row_offsets[r]
                src = lo_idx[r]
                col_ids[dst : dst + n] = b.col_ids[src : src + n] - start_col
                data[dst : dst + n] = b.data[src : src + n]
        panels.append(
            CSRMatrix(b.n_rows, end_col - start_col, row_offsets, col_ids, data, check=False)
        )
    return tuple(panels)
