"""Panel partitioning of the input matrices (paper Section III.D).

The out-of-core framework needs ``A`` split into *row panels* and ``B`` into
*column panels*:

* Row panels are trivial under CSR — rows are stored contiguously, so a
  panel is a slice of ``row_offsets`` plus a copy of the element range
  (:meth:`CSRMatrix.row_slice`).
* Column panels are the hard case: CSR cannot address a column range
  directly.  The paper uses a two-stage *count then fill* algorithm, and
  accelerates the scan with an auxiliary ``col_offset`` structure — a
  rolling per-row pointer marking where the next panel's elements begin —
  parallelized "in a prefix sum fashion".

Two schemes are provided:

``partition_columns_naive``
    the simplistic algorithm the paper describes first: for every panel,
    rescan every row from ``row_offsets[r]``.  Cost grows with
    ``num_panels × nnz``.
``build_col_offsets`` + ``partition_columns``
    the optimized scheme: one pass computes, for every row, the split
    points of all panels (this matrix *is* the paper's ``col_offset``
    structure — column ``p`` holds the pointer state after panel ``p`` is
    consumed); panels are then gathered by prefix-sum address arithmetic
    and no rescanning.  The pass is one C sweep of B and each gather one
    C copy, from the runtime-compiled library of
    :mod:`repro.spgemm.native`; without it (no compiler, or
    ``REPRO_NATIVE=0``) the same split and the same panel bytes come from
    numpy, which is also the tests' reference.

Both return panels whose column ids are renumbered to panel-local indices,
which is what the in-core SpGEMM kernel consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .formats import CSRMatrix, INDEX_DTYPE, VALUE_DTYPE

__all__ = [
    "panel_boundaries",
    "partition_rows",
    "partition_columns_naive",
    "build_col_offsets",
    "partition_columns",
    "PanelSet",
]


def panel_boundaries(n: int, num_panels: int) -> np.ndarray:
    """Boundaries of ``num_panels`` near-equal contiguous ranges of [0, n).

    Returns an int64 array of length ``num_panels + 1`` starting at 0 and
    ending at ``n``; earlier panels get the remainder (like
    ``numpy.array_split``).
    """
    if num_panels <= 0:
        raise ValueError("num_panels must be positive")
    if num_panels > max(n, 1):
        raise ValueError(f"cannot split {n} indices into {num_panels} panels")
    base, extra = divmod(n, num_panels)
    sizes = np.full(num_panels, base, dtype=INDEX_DTYPE)
    sizes[:extra] += 1
    out = np.zeros(num_panels + 1, dtype=INDEX_DTYPE)
    np.cumsum(sizes, out=out[1:])
    return out


@dataclass(frozen=True)
class PanelSet:
    """Panels of one matrix plus the boundaries they were cut at."""

    panels: Tuple[CSRMatrix, ...]
    boundaries: np.ndarray  # length num_panels + 1
    axis: str  # "rows" or "cols"

    def __len__(self) -> int:
        return len(self.panels)

    def __getitem__(self, i: int) -> CSRMatrix:
        return self.panels[i]

    def sizes(self) -> np.ndarray:
        return np.diff(self.boundaries)


def partition_rows(a: CSRMatrix, num_panels: int) -> PanelSet:
    """Split ``A`` into contiguous row panels (paper: the easy direction)."""
    bounds = panel_boundaries(a.n_rows, num_panels)
    panels = tuple(
        a.row_slice(int(bounds[i]), int(bounds[i + 1])) for i in range(num_panels)
    )
    return PanelSet(panels=panels, boundaries=bounds, axis="rows")


# ----------------------------------------------------------------------
# column panels — naive rescan
# ----------------------------------------------------------------------
def partition_columns_naive(b: CSRMatrix, num_panels: int) -> PanelSet:
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
    return PanelSet(panels=tuple(panels), boundaries=bounds, axis="cols")


# ----------------------------------------------------------------------
# column panels — col_offset structure, prefix-sum parallel fill
# ----------------------------------------------------------------------
def build_col_offsets(b: CSRMatrix, boundaries: Sequence[int]) -> np.ndarray:
    """The paper's ``col_offset`` structure for all panels at once.

    Returns an ``(n_rows, num_panels + 1)`` int64 matrix ``S`` where
    ``S[r, p]`` is the index into ``col_ids``/``data`` of the first element
    of row ``r`` belonging to panel ``p`` or later; ``S[r, num_panels]`` is
    the end of the row.  Row ``r``'s elements of panel ``p`` live in
    ``[S[r, p], S[r, p + 1])`` — no rescanning.

    Built in one pass ("prefix sum fashion"): classify every element into
    its panel, histogram per (row, panel), and prefix-sum along the panel
    axis — one C sweep of ``b`` when the native library is available,
    else numpy.  Both count, so they agree on unsorted rows too.
    """
    bounds = np.asarray(boundaries)
    if bounds.ndim != 1 or bounds.size < 2 or bounds.dtype.kind not in "iu":
        raise ValueError("boundaries must be one row of two or more integer cuts")
    bounds = bounds.astype(INDEX_DTYPE, copy=False)
    # a matrix without columns is one empty panel, as panel_boundaries cuts it
    no_cols = b.n_cols == 0 and bounds.size == 2
    if bounds[0] != 0 or bounds[-1] != b.n_cols or (
            np.any(np.diff(bounds) <= 0) and not no_cols):
        raise ValueError("boundaries must be strictly increasing from 0 to n_cols")
    num_panels = bounds.size - 1

    from ..spgemm import native  # deferred: spgemm imports sparse
    if native.native_available():
        return native.native_col_offsets(b, bounds)
    panel_of_col = np.repeat(np.arange(num_panels), np.diff(bounds))
    panel_of_elem = panel_of_col[b.col_ids]
    rows = b.expand_row_ids()
    counts = np.bincount(
        rows * num_panels + panel_of_elem, minlength=b.n_rows * num_panels
    ).reshape(b.n_rows, num_panels)

    splits = np.empty((b.n_rows, num_panels + 1), dtype=INDEX_DTYPE)
    splits[:, 0] = b.row_offsets[:-1]
    np.cumsum(counts, axis=1, out=splits[:, 1:])
    splits[:, 1:] += b.row_offsets[:-1, None]
    return splits


def partition_columns(b: CSRMatrix, num_panels: int) -> PanelSet:
    """Optimized column partition using the ``col_offset`` split matrix.

    Because rows are sorted by column id, each panel's elements occupy a
    contiguous sub-range of every row; the split matrix gives the ranges
    and one gather per panel copies them — total work O(nnz + rows·panels).
    The gather is C when the native library is available, else numpy: the
    same bytes either way.

    Precondition: ``b``'s column ids are strictly increasing within every
    row (:meth:`CSRMatrix.has_sorted_rows`).  The panels are built
    unchecked, so an unsorted row would put ids outside ``[0, width)``
    into them — every loader of outside input refuses such an operand
    (:func:`repro.sparse.io.canonical_csr`).

    One panel *is* ``b``: the same object, no split matrix, no gather.
    """
    bounds = panel_boundaries(b.n_cols, num_panels)
    if num_panels == 1:
        return PanelSet(panels=(b,), boundaries=bounds, axis="cols")
    splits = build_col_offsets(b, bounds)

    from ..spgemm import native  # deferred: spgemm imports sparse
    if native.native_available():
        arrays = native.native_col_panels(b, splits, bounds)
    else:
        arrays = []
        for p in range(num_panels):
            lo = splits[:, p]
            counts = splits[:, p + 1] - lo
            row_offsets = np.zeros(b.n_rows + 1, dtype=INDEX_DTYPE)
            np.cumsum(counts, out=row_offsets[1:])
            # prefix-sum gather: element j of the panel comes from
            # lo[row(j)] + (j - row_offsets[row(j)])
            src = np.repeat(lo - row_offsets[:-1], counts) + np.arange(
                int(row_offsets[-1]), dtype=INDEX_DTYPE)
            arrays.append((row_offsets, b.col_ids[src] - bounds[p], b.data[src]))
    panels = tuple(
        CSRMatrix(b.n_rows, int(bounds[p + 1] - bounds[p]), *arr, check=False)
        for p, arr in enumerate(arrays)
    )
    return PanelSet(panels=panels, boundaries=bounds, axis="cols")
