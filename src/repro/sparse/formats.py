"""Compressed Sparse Row (CSR) matrix, built from scratch on numpy.

This is the central data structure of the reproduction.  Following the paper
(Section II.A), a CSR matrix is three arrays:

``row_offsets``
    ``n_rows + 1`` int64 values; row ``r`` occupies the half-open slice
    ``[row_offsets[r], row_offsets[r + 1])`` of ``col_ids`` and ``data``.
``col_ids``
    column index of each stored element, sorted within each row.
``data``
    the stored values, aligned with ``col_ids``.

We deliberately do *not* wrap :class:`scipy.sparse.csr_matrix`: the paper's
partitioning and kernel code manipulates the raw arrays (rolling
``col_offset`` pointers, panel-local column renumbering, group-wise numeric
writes), so the substrate must expose them first-class.  scipy is used only
to convert to and from it, and as the test suite's cross-checking oracle.

Indices are int64 throughout — the paper rejects MKL precisely because its
32-bit ``row_offsets``/``col_ids`` cannot address large outputs.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

__all__ = ["CSRMatrix"]

INDEX_DTYPE = np.int64
VALUE_DTYPE = np.float64


def _as_index_array(arr, name: str) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=INDEX_DTYPE)
    if out.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {out.shape}")
    return out


class CSRMatrix:
    """A sparse matrix in CSR format.

    Parameters
    ----------
    n_rows, n_cols:
        Logical dimensions of the matrix.
    row_offsets:
        int64 array of length ``n_rows + 1``; must start at 0, end at
        ``len(col_ids)``, and be non-decreasing.
    col_ids:
        int64 array of column indices, each in ``[0, n_cols)``.
    data:
        float64 array of values, same length as ``col_ids``.
    check:
        When True (default) the invariants above are validated eagerly.
        Kernels that construct known-good matrices pass ``check=False``.
    sort_rows:
        When True, column ids within each row are sorted (stable, values
        carried along).  The paper assumes sorted rows (Section II.A).
    """

    __slots__ = ("n_rows", "n_cols", "row_offsets", "col_ids", "data",
                 "__weakref__")

    def __init__(
        self,
        n_rows: int,
        n_cols: int,
        row_offsets,
        col_ids,
        data,
        *,
        check: bool = True,
        sort_rows: bool = False,
    ) -> None:
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self.row_offsets = _as_index_array(row_offsets, "row_offsets")
        self.col_ids = _as_index_array(col_ids, "col_ids")
        self.data = np.ascontiguousarray(data, dtype=VALUE_DTYPE)
        if sort_rows:
            self._sort_rows_inplace()
        if check:
            self.validate()

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, n_rows: int, n_cols: int) -> "CSRMatrix":
        """An all-zero matrix with no stored elements."""
        return cls(
            n_rows,
            n_cols,
            np.zeros(n_rows + 1, dtype=INDEX_DTYPE),
            np.empty(0, dtype=INDEX_DTYPE),
            np.empty(0, dtype=VALUE_DTYPE),
            check=False,
        )

    @classmethod
    def identity(cls, n: int) -> "CSRMatrix":
        return cls(
            n,
            n,
            np.arange(n + 1, dtype=INDEX_DTYPE),
            np.arange(n, dtype=INDEX_DTYPE),
            np.ones(n, dtype=VALUE_DTYPE),
            check=False,
        )

    @classmethod
    def from_dense(cls, dense) -> "CSRMatrix":
        """Build from a 2-D array, storing exactly the non-zero entries."""
        dense = np.asarray(dense, dtype=VALUE_DTYPE)
        if dense.ndim != 2:
            raise ValueError("from_dense expects a 2-D array")
        rows, cols = np.nonzero(dense)
        order = np.lexsort((cols, rows))
        rows, cols = rows[order], cols[order]
        row_offsets = np.zeros(dense.shape[0] + 1, dtype=INDEX_DTYPE)
        np.add.at(row_offsets, rows + 1, 1)
        np.cumsum(row_offsets, out=row_offsets)
        return cls(
            dense.shape[0],
            dense.shape[1],
            row_offsets,
            cols.astype(INDEX_DTYPE),
            dense[rows, cols],
            check=False,
        )

    @classmethod
    def from_scipy(cls, mat) -> "CSRMatrix":
        """Convert from any scipy.sparse matrix (via CSR, duplicates summed)."""
        csr = mat.tocsr()
        csr.sum_duplicates()
        csr.sort_indices()
        return cls(
            csr.shape[0],
            csr.shape[1],
            csr.indptr.astype(INDEX_DTYPE),
            csr.indices.astype(INDEX_DTYPE),
            csr.data.astype(VALUE_DTYPE),
            check=False,
        )

    def to_scipy(self):
        """Convert to :class:`scipy.sparse.csr_matrix` (copies arrays)."""
        import scipy.sparse as sp

        return sp.csr_matrix(
            (self.data.copy(), self.col_ids.copy(), self.row_offsets.copy()),
            shape=(self.n_rows, self.n_cols),
        )

    def to_dense(self) -> np.ndarray:
        """Materialize as a dense 2-D float64 array."""
        out = np.zeros((self.n_rows, self.n_cols), dtype=VALUE_DTYPE)
        rows = self.expand_row_ids()
        # += via add.at to honour (unexpected) duplicate entries
        np.add.at(out, (rows, self.col_ids), self.data)
        return out

    def copy(self) -> "CSRMatrix":
        return CSRMatrix(
            self.n_rows,
            self.n_cols,
            self.row_offsets.copy(),
            self.col_ids.copy(),
            self.data.copy(),
            check=False,
        )

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise ``ValueError`` if any CSR invariant is violated."""
        if self.n_rows < 0 or self.n_cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if self.row_offsets.shape[0] != self.n_rows + 1:
            raise ValueError(
                f"row_offsets has length {self.row_offsets.shape[0]}, "
                f"expected n_rows + 1 = {self.n_rows + 1}"
            )
        if self.col_ids.shape[0] != self.data.shape[0]:
            raise ValueError("col_ids and data lengths differ")
        if self.row_offsets[0] != 0:
            raise ValueError("row_offsets must start at 0")
        if self.row_offsets[-1] != self.col_ids.shape[0]:
            raise ValueError("row_offsets must end at nnz")
        if np.any(np.diff(self.row_offsets) < 0):
            raise ValueError("row_offsets must be non-decreasing")
        if self.col_ids.size:
            if self.col_ids.min() < 0 or self.col_ids.max() >= self.n_cols:
                raise ValueError("col_ids out of range")

    def has_sorted_rows(self) -> bool:
        """True when column ids are strictly increasing within every row."""
        if self.nnz < 2:
            return True
        diffs = np.diff(self.col_ids)
        # positions where a new row starts in col_ids: diffs there are free
        row_starts = self.row_offsets[1:-1]
        mask = np.ones(self.nnz - 1, dtype=bool)
        mask[row_starts[(row_starts > 0) & (row_starts < self.nnz)] - 1] = False
        return bool(np.all(diffs[mask] > 0))

    def _sort_rows_inplace(self) -> None:
        rows = self.expand_row_ids()
        order = np.lexsort((self.col_ids, rows))
        self.col_ids = self.col_ids[order]
        self.data = self.data[order]

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of stored elements."""
        return int(self.col_ids.shape[0])

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.n_rows, self.n_cols)

    def row_nnz(self) -> np.ndarray:
        """nnz of every row, length ``n_rows``."""
        return np.diff(self.row_offsets)

    def nbytes(self) -> int:
        """Exact storage footprint of the three arrays in bytes.

        This is what the paper's transfer-cost accounting charges when a
        chunk moves across PCIe.
        """
        return self.row_offsets.nbytes + self.col_ids.nbytes + self.data.nbytes

    def density(self) -> float:
        total = self.n_rows * self.n_cols
        return self.nnz / total if total else 0.0

    def expand_row_ids(self) -> np.ndarray:
        """Row index of every stored element (COO-style row array)."""
        return np.repeat(
            np.arange(self.n_rows, dtype=INDEX_DTYPE), np.diff(self.row_offsets)
        )

    # ------------------------------------------------------------------
    # row access / slicing
    # ------------------------------------------------------------------
    def row(self, r: int) -> Tuple[np.ndarray, np.ndarray]:
        """Views of (col_ids, data) for row ``r``."""
        if not 0 <= r < self.n_rows:
            raise IndexError(f"row {r} out of range for {self.n_rows}-row matrix")
        lo, hi = self.row_offsets[r], self.row_offsets[r + 1]
        return self.col_ids[lo:hi], self.data[lo:hi]

    def iter_rows(self) -> Iterator[Tuple[int, np.ndarray, np.ndarray]]:
        """Yield ``(r, col_ids_view, data_view)`` for every row."""
        for r in range(self.n_rows):
            lo, hi = self.row_offsets[r], self.row_offsets[r + 1]
            yield r, self.col_ids[lo:hi], self.data[lo:hi]

    def row_slice(self, start: int, stop: int) -> "CSRMatrix":
        """Contiguous row panel ``[start, stop)`` as a new CSR matrix.

        This is the paper's row-panel partition of ``A`` (Section III.D):
        trivially cheap under CSR because rows are stored contiguously.
        """
        if not 0 <= start <= stop <= self.n_rows:
            raise IndexError(f"invalid row slice [{start}, {stop})")
        lo, hi = self.row_offsets[start], self.row_offsets[stop]
        return CSRMatrix(
            stop - start,
            self.n_cols,
            self.row_offsets[start : stop + 1] - lo,
            self.col_ids[lo:hi].copy(),
            self.data[lo:hi].copy(),
            check=False,
        )

    # ------------------------------------------------------------------
    # comparison / repr
    # ------------------------------------------------------------------
    def allclose(self, other: "CSRMatrix", rtol: float = 1e-9, atol: float = 1e-12) -> bool:
        """Structural + numerical equality (both sides must be canonical:
        sorted rows, no duplicates, no explicit zeros are *not* required —
        explicit zeros are compared as stored)."""
        if self.shape != other.shape:
            return False
        if not np.array_equal(self.row_offsets, other.row_offsets):
            return False
        if not np.array_equal(self.col_ids, other.col_ids):
            return False
        return bool(np.allclose(self.data, other.data, rtol=rtol, atol=atol))

    def __eq__(self, other: object) -> bool:  # exact equality
        if not isinstance(other, CSRMatrix):
            return NotImplemented
        return (
            self.shape == other.shape
            and np.array_equal(self.row_offsets, other.row_offsets)
            and np.array_equal(self.col_ids, other.col_ids)
            and np.array_equal(self.data, other.data)
        )

    def __hash__(self):  # mutable container
        raise TypeError("CSRMatrix is unhashable")

    def __matmul__(self, other: "CSRMatrix") -> "CSRMatrix":
        """``A @ B`` via the in-core two-phase SpGEMM kernel."""
        if not isinstance(other, CSRMatrix):
            return NotImplemented
        from ..spgemm.twophase import spgemm_twophase

        return spgemm_twophase(self, other).matrix

    def __repr__(self) -> str:
        return (
            f"CSRMatrix(shape={self.n_rows}x{self.n_cols}, nnz={self.nnz}, "
            f"density={self.density():.2e})"
        )
