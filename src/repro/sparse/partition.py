"""Panel partitioning of the input matrices (paper Section III.D).

The out-of-core framework needs ``A`` split into *row panels* and ``B`` into
*column panels*:

* Row panels are trivial under CSR — rows are stored contiguously, so a
  panel is a rebased slice of ``row_offsets`` over a view of the element
  range (:func:`partition_rows`).
* Column panels are the hard case: CSR cannot address a column range
  directly.  The paper uses a two-stage *count then fill* algorithm, and
  accelerates the scan with an auxiliary ``col_offset`` structure — a
  rolling per-row pointer marking where the next panel's elements begin —
  parallelized "in a prefix sum fashion".

The paper first describes a simplistic algorithm — for every panel,
rescan every row from ``row_offsets[r]``, at a cost that grows with
``num_panels × nnz`` — and replaces it (the tests keep it as a
reference).  Here:

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

Column panels have their column ids renumbered to panel-local indices,
which is what the in-core SpGEMM kernel consumes.
"""

from __future__ import annotations

from typing import Sequence, Tuple, Union

import numpy as np

from .formats import CSRMatrix, INDEX_DTYPE

__all__ = [
    "panel_boundaries",
    "partition_rows",
    "build_col_offsets",
    "partition_columns",
    "check_bounds",
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


def check_bounds(bounds, n: int) -> np.ndarray:
    """``bounds`` as int64 cut points of ``[0, n)``: one row of two or
    more integers strictly increasing from 0 to ``n`` (a dimension of
    size 0 is one empty panel, ``[0, 0]``, as :func:`panel_boundaries`
    cuts it).  Anything else raises :class:`ValueError`."""
    bounds = np.asarray(bounds)
    if bounds.ndim != 1 or bounds.size < 2 or bounds.dtype.kind not in "iu":
        raise ValueError("boundaries must be one row of two or more integer cuts")
    bounds = bounds.astype(INDEX_DTYPE, copy=False)
    if bounds[0] != 0 or bounds[-1] != n or (
            np.any(np.diff(bounds) <= 0) and not (n == 0 and bounds.size == 2)):
        raise ValueError(f"boundaries must be strictly increasing from 0 to {n}")
    return bounds


def _cuts(bounds: Union[int, Sequence[int]], n: int) -> np.ndarray:
    """Checked cut points: ``bounds`` itself, or an int ``k`` as
    :func:`panel_boundaries` ``(n, k)``."""
    if isinstance(bounds, (int, np.integer)):
        return panel_boundaries(n, int(bounds))
    return check_bounds(bounds, n)


def partition_rows(a: CSRMatrix, bounds: Union[int, Sequence[int]]
                   ) -> Tuple[CSRMatrix, ...]:
    """Split ``A`` into contiguous row panels at ``bounds`` (or into ``k``
    near-equal ones) — the easy direction.

    The panels are views of ``A``: each shares its ``col_ids`` and
    ``data``, and its rebased ``row_offsets`` is the only new array
    (:meth:`CSRMatrix.row_slice` copies)."""
    bounds = _cuts(bounds, a.n_rows)
    ends = a.row_offsets[bounds]
    return tuple(
        CSRMatrix(int(bounds[i + 1] - bounds[i]), a.n_cols,
                  a.row_offsets[bounds[i]:bounds[i + 1] + 1] - ends[i],
                  a.col_ids[ends[i]:ends[i + 1]], a.data[ends[i]:ends[i + 1]],
                  check=False)
        for i in range(bounds.size - 1)
    )


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
    bounds = check_bounds(boundaries, b.n_cols)
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


def partition_columns(b: CSRMatrix, bounds: Union[int, Sequence[int]]
                      ) -> Tuple[CSRMatrix, ...]:
    """Split ``B`` into column panels at ``bounds`` (or into ``k``
    near-equal ones) using the ``col_offset`` split matrix.

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
    bounds = _cuts(bounds, b.n_cols)
    num_panels = bounds.size - 1
    if num_panels == 1:
        return (b,)
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
    return tuple(
        CSRMatrix(b.n_rows, int(bounds[p + 1] - bounds[p]), *arr, check=False)
        for p, arr in enumerate(arrays)
    )
