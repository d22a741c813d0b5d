"""The per-candidate planner as it stood before the product table, kept
as a test-only reference (verbatim, less its sampled-estimate path,
which the planner no longer has): every candidate grid re-runs
``build_col_offsets`` on B, gathers an ``nnz_A x c`` matrix and sums it
row panel by row panel in a Python loop.  ``test_product_table.py``
requires the table-based planner and ``GridSizing`` to reproduce it."""

import numpy as np

from repro.core.chunks import BYTES_PER_ELEM, ChunkGrid, csr_bytes
from repro.sparse.partition import build_col_offsets

INTERMEDIATE_BYTES_PER_PRODUCT = 32


def panel_row_products(a_panel, b_panel):
    """Per-row products of ``a_panel @ b_panel`` by a direct gather on
    the sliced panels — what the governor's re-split ran per chunk
    before ``GridSizing`` (``core/memcheck.py``)."""
    b_row_nnz = np.diff(b_panel.row_offsets)
    gathered = b_row_nnz[a_panel.col_ids]
    csum = np.concatenate([[0], np.cumsum(gathered, dtype=np.int64)])
    return (csum[a_panel.row_offsets[1:]]
            - csum[a_panel.row_offsets[:-1]]).astype(np.int64)


def chunk_flops(a, b, grid):
    splits = build_col_offsets(b, grid.col_bounds)
    per_row_per_panel = np.diff(splits, axis=1)  # (n_rows_B, num_col_panels)
    per_elem = per_row_per_panel[a.col_ids, :]   # (nnz_A, num_col_panels)

    out = np.zeros((grid.num_row_panels, grid.num_col_panels), dtype=np.int64)
    for rp in range(grid.num_row_panels):
        lo = int(a.row_offsets[grid.row_bounds[rp]])
        hi = int(a.row_offsets[grid.row_bounds[rp + 1]])
        out[rp, :] = per_elem[lo:hi, :].sum(axis=0)
    return 2 * out


def chunk_footprint_bytes(rows, flops):
    products = flops // 2
    out_upper = csr_bytes(rows, products)
    intermediates = products * INTERMEDIATE_BYTES_PER_PRODUCT
    return intermediates + out_upper


def resident_input_bytes(a, b, num_col_panels):
    a_bytes = csr_bytes(a.n_rows, a.nnz)
    b_bytes = b.nnz * BYTES_PER_ELEM + num_col_panels * (b.n_rows + 1) * 8
    return a_bytes + b_bytes


def worst_chunk(a, b, grid):
    flops = chunk_flops(a, b, grid)
    worst = 0
    for rp in range(grid.num_row_panels):
        rows = int(grid.row_bounds[rp + 1] - grid.row_bounds[rp])
        for cp in range(grid.num_col_panels):
            footprint = chunk_footprint_bytes(rows, int(flops[rp, cp]))
            worst = max(worst, footprint)
    return worst


def plan_grid(a, b, node, *, safety=0.85, buffers=2, max_panels=64):
    """``(grid, worst_chunk_bytes, budget_bytes)`` of the first fit."""
    candidates = sorted(
        (r * c, abs(r - c), r, c)
        for r in range(1, max_panels + 1)
        for c in range(1, max_panels + 1)
        if max(r, c) <= 4 * min(r, c)  # keep panel grids balanced
    )
    for _, _, r, c in candidates:
        if r > a.n_rows or c > b.n_cols:
            continue
        resident = resident_input_bytes(a, b, c)
        free = node.gpu.device_memory_bytes - resident
        budget = int(free * safety) // max(buffers, 1)
        if budget <= 0:
            continue
        grid = ChunkGrid.regular(a.n_rows, b.n_cols, r, c)
        worst = worst_chunk(a, b, grid)
        if worst <= budget:
            return grid, worst, budget
    raise ValueError("no grid fits")
