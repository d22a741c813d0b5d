"""Matrix I/O: MatrixMarket text format and compressed .npz archives.

SuiteSparse distributes matrices as MatrixMarket ``.mtx`` files; a real
deployment of this framework would load the paper's nine inputs through
:func:`read_matrix_market`.  The synthetic suite is cached on disk as
``.npz`` for fast benchmark re-runs.
"""

from __future__ import annotations

import os
from typing import Union

import numpy as np

from .coo import COOMatrix
from .formats import CSRMatrix, INDEX_DTYPE, VALUE_DTYPE

__all__ = [
    "canonical_csr",
    "read_matrix_market",
    "write_matrix_market",
    "save_npz",
    "load_npz",
]

PathLike = Union[str, os.PathLike]


def _outside_array(values, name: str, kinds: str) -> np.ndarray:
    """``values`` as the 1-D array numpy reads it as, refused unless its
    dtype kind is one of ``kinds`` — a later cast can then only widen,
    never truncate ``1.7`` or parse ``"1e3"``."""
    arr = np.asarray(values)
    if arr.ndim != 1 or (arr.size and arr.dtype.kind not in kinds):
        wanted = "integers" if kinds == "i" else "numbers"
        raise ValueError(f"{name} must be a flat list of {wanted}")
    return arr


def canonical_csr(shape, row_offsets, col_ids, data) -> CSRMatrix:
    """The door for CSR arrays that arrive from outside the program (a
    request body, a file): integral shape and indices, numeric values,
    the CSR invariants, and column ids *strictly increasing within every
    row* — no unsorted row, no duplicate entry.  Column partitioning and
    the kernels assume that form and do not re-check it per run
    (:func:`~repro.sparse.partition.partition_columns`), so an operand
    that is not in it is refused here, once, with ``ValueError``."""
    dims = _outside_array(shape, "shape", "i")
    if dims.shape != (2,):
        raise ValueError("shape must be [n_rows, n_cols]")
    mat = CSRMatrix(
        int(dims[0]), int(dims[1]),
        _outside_array(row_offsets, "row_offsets", "i"),
        _outside_array(col_ids, "col_ids", "i"),
        _outside_array(data, "data", "iuf"),
    )
    if not mat.has_sorted_rows():
        raise ValueError(
            "column ids must be strictly increasing within every row "
            "(an unsorted row or a duplicate entry)"
        )
    return mat


def read_matrix_market(path: PathLike) -> CSRMatrix:
    """Parse a MatrixMarket coordinate file into a canonical CSR matrix.

    Supports ``real``, ``integer`` and ``pattern`` fields and the
    ``general`` / ``symmetric`` / ``skew-symmetric`` symmetry qualifiers
    (symmetric entries are mirrored, as SuiteSparse expects).
    """
    with open(path, "r") as fh:
        header = fh.readline()
        if not header.startswith("%%MatrixMarket"):
            raise ValueError(f"{path}: missing MatrixMarket header")
        parts = header.strip().split()
        if len(parts) < 5:
            raise ValueError(f"{path}: malformed header {header!r}")
        _, obj, fmt, field, symmetry = parts[:5]
        if obj.lower() != "matrix" or fmt.lower() != "coordinate":
            raise ValueError(f"{path}: only coordinate matrices are supported")
        field = field.lower()
        symmetry = symmetry.lower()
        if field not in ("real", "integer", "pattern"):
            raise ValueError(f"{path}: unsupported field {field!r}")
        if symmetry not in ("general", "symmetric", "skew-symmetric"):
            raise ValueError(f"{path}: unsupported symmetry {symmetry!r}")

        # skip comments
        line = fh.readline()
        while line.startswith("%"):
            line = fh.readline()
        n_rows, n_cols, nnz = (int(tok) for tok in line.split())

        rows = np.empty(nnz, dtype=INDEX_DTYPE)
        cols = np.empty(nnz, dtype=INDEX_DTYPE)
        data = np.empty(nnz, dtype=VALUE_DTYPE)
        for i in range(nnz):
            toks = fh.readline().split()
            rows[i] = int(toks[0]) - 1  # 1-based in the file
            cols[i] = int(toks[1]) - 1
            data[i] = float(toks[2]) if field != "pattern" else 1.0

    if symmetry in ("symmetric", "skew-symmetric"):
        off_diag = rows != cols
        sign = -1.0 if symmetry == "skew-symmetric" else 1.0
        rows = np.concatenate([rows, cols[off_diag]])
        cols_full = np.concatenate([cols, rows[: nnz][off_diag]])
        data = np.concatenate([data, sign * data[off_diag]])
        cols = cols_full

    # the triplets are range-checked, then sorted by (row, col) with
    # duplicates summed: canonical by construction
    return COOMatrix(n_rows, n_cols, rows, cols, data).to_csr()


def write_matrix_market(path: PathLike, mat: CSRMatrix, comment: str = "") -> None:
    """Write a CSR matrix as a general real coordinate MatrixMarket file."""
    rows = mat.expand_row_ids()
    with open(path, "w") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n")
        if comment:
            for line in comment.splitlines():
                fh.write(f"% {line}\n")
        fh.write(f"{mat.n_rows} {mat.n_cols} {mat.nnz}\n")
        for r, c, v in zip(rows, mat.col_ids, mat.data):
            fh.write(f"{r + 1} {c + 1} {float(v)!r}\n")


def save_npz(path: PathLike, mat: CSRMatrix) -> None:
    """Save a CSR matrix as a compressed numpy archive."""
    np.savez_compressed(
        path,
        shape=np.array(mat.shape, dtype=INDEX_DTYPE),
        row_offsets=mat.row_offsets,
        col_ids=mat.col_ids,
        data=mat.data,
    )


def load_npz(path: PathLike) -> CSRMatrix:
    """Load a CSR matrix saved by :func:`save_npz`; whatever else the
    file holds is refused by :func:`canonical_csr`."""
    with np.load(path) as archive:
        return canonical_csr(archive["shape"], archive["row_offsets"],
                             archive["col_ids"], archive["data"])
