"""Graph utilities shared by the application algorithms."""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..device.specs import NodeSpec
from ..sparse.formats import CSRMatrix, INDEX_DTYPE
from ..sparse.ops import add, keep_entries, transpose
from ..spgemm.twophase import spgemm_twophase

__all__ = [
    "multiply", "symmetrize", "remove_diagonal", "to_unweighted",
    "hadamard_sum", "hadamard",
]


def multiply(a: CSRMatrix, b: CSRMatrix, node: Optional[NodeSpec]) -> CSRMatrix:
    """``A x B`` in core without a ``node``, else out of core on it."""
    if node is None:
        return spgemm_twophase(a, b).matrix
    from ..core.api import run_out_of_core

    return run_out_of_core(a, b, node).matrix


def remove_diagonal(g: CSRMatrix) -> CSRMatrix:
    """Drop self-loops."""
    return keep_entries(g, g.col_ids != g.expand_row_ids())


def to_unweighted(g: CSRMatrix) -> CSRMatrix:
    """Set every stored value to 1.0 (adjacency structure only)."""
    return CSRMatrix(
        g.n_rows, g.n_cols, g.row_offsets.copy(), g.col_ids.copy(),
        np.ones(g.nnz), check=False,
    )


def symmetrize(g: CSRMatrix, *, unweighted: bool = True) -> CSRMatrix:
    """Undirected simple graph from a directed one: ``sign(G + Gᵀ)`` with
    the diagonal removed (when ``unweighted``), else ``G + Gᵀ``."""
    sym = remove_diagonal(add(g, transpose(g)))
    return to_unweighted(sym) if unweighted else sym


def _keys(m: CSRMatrix) -> np.ndarray:
    """(row, col) -> single int64 key; safe while rows*cols < 2^63."""
    return m.expand_row_ids() * np.int64(m.n_cols) + m.col_ids


def hadamard(a: CSRMatrix, b: CSRMatrix) -> CSRMatrix:
    """Element-wise product ``A ∘ B`` (intersection of structures)."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    ka, kb = _keys(a), _keys(b)
    common, ia, ib = np.intersect1d(ka, kb, assume_unique=False, return_indices=True)
    rows = (common // a.n_cols).astype(INDEX_DTYPE)
    row_offsets = np.zeros(a.n_rows + 1, dtype=INDEX_DTYPE)
    np.add.at(row_offsets, rows + 1, 1)
    np.cumsum(row_offsets, out=row_offsets)
    return CSRMatrix(
        a.n_rows, a.n_cols, row_offsets,
        (common % a.n_cols).astype(INDEX_DTYPE),
        a.data[ia] * b.data[ib],
        check=False,
    )


def hadamard_sum(a: CSRMatrix, b: CSRMatrix) -> float:
    """``sum(A ∘ B)`` without materializing the product structure."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    ka, kb = _keys(a), _keys(b)
    _, ia, ib = np.intersect1d(ka, kb, assume_unique=False, return_indices=True)
    return float((a.data[ia] * b.data[ib]).sum())
