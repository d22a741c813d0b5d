"""Semiring SpGEMM — the GraphBLAS view of the paper's kernel.

The paper motivates SpGEMM through graph algorithms (citing the GraphBLAS
foundations [22], APSP [8], [35], and MCL clustering [29], [33]); many of
those run matrix multiplication over a *semiring* other than (+, x):
shortest paths over (min, +), reachability over (or, and), widest paths
over (max, min).

This module generalizes the ESC kernel: expansion applies the semiring's
``multiply`` to the operand values, and compression combines colliding
products with the semiring's ``add`` (a ufunc, applied with ``reduceat``
over the sorted product list) — structurally identical to the numeric
phase, so everything the out-of-core framework does applies unchanged.

Annihilating products (``mul == zero``, e.g. +inf path concatenations)
are dropped before compression, keeping the output properly sparse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..sparse.formats import CSRMatrix, INDEX_DTYPE, VALUE_DTYPE
from .expand import PRODUCT_BATCH, expand_products, row_batches
from .flops import products_per_row

__all__ = [
    "Semiring",
    "PLUS_TIMES",
    "MIN_PLUS",
    "MAX_MIN",
    "OR_AND",
    "spgemm_semiring",
]


@dataclass(frozen=True)
class Semiring:
    """A (add, multiply, zero) algebra for SpGEMM.

    ``add`` must be a numpy ufunc (it is applied via ``reduceat``);
    ``multiply`` is any vectorized binary function; ``zero`` is the
    additive identity — entries equal to it are *absent* from the sparse
    structure, and products equal to it are dropped.
    """

    name: str
    add: np.ufunc
    multiply: Callable[[np.ndarray, np.ndarray], np.ndarray]
    zero: float

    def __repr__(self) -> str:
        return f"Semiring({self.name})"


PLUS_TIMES = Semiring("plus_times", np.add, np.multiply, 0.0)
#: shortest paths: path weight = sum of edges, combine = min
MIN_PLUS = Semiring("min_plus", np.minimum, np.add, np.inf)
#: widest paths / bottleneck: path width = min edge, combine = max
MAX_MIN = Semiring("max_min", np.maximum, np.minimum, 0.0)
#: boolean reachability
OR_AND = Semiring("or_and", np.logical_or, np.logical_and, 0.0)


def spgemm_semiring(
    a: CSRMatrix,
    b: CSRMatrix,
    semiring: Semiring = PLUS_TIMES,
    *,
    batch_products: int = PRODUCT_BATCH,
) -> CSRMatrix:
    """``C = A (+.x) B`` over an arbitrary semiring (ESC formulation).

    Stored zeros of the *semiring* (values equal to ``semiring.zero``)
    are pruned from the result, so e.g. ``OR_AND`` outputs are 0/1
    matrices with no explicit falses.
    """
    if a.n_cols != b.n_rows:
        raise ValueError(f"dimension mismatch: A is {a.shape}, B is {b.shape}")

    out_offsets = np.zeros(a.n_rows + 1, dtype=INDEX_DTYPE)
    col_parts, val_parts = [], []

    for lo, hi in row_batches(products_per_row(a, b), batch_products):
        rows, cols, _ = expand_products(a, b, lo, hi)
        if rows.size == 0:
            continue
        # recompute the values under the semiring's multiply: expansion
        # gives us the source positions implicitly via a second pass
        vals = _semiring_products(a, b, lo, hi, semiring)

        # drop annihilated products
        alive = ~_equals_zero(vals, semiring.zero)
        rows, cols, vals = rows[alive], cols[alive], vals[alive]
        if rows.size == 0:
            continue

        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        new = np.empty(rows.size, dtype=bool)
        new[0] = True
        new[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        starts = np.flatnonzero(new)
        combined = semiring.add.reduceat(vals, starts)
        out_rows = rows[starts]
        out_cols = cols[starts]

        keep = ~_equals_zero(combined, semiring.zero)
        out_rows, out_cols, combined = out_rows[keep], out_cols[keep], combined[keep]
        np.add.at(out_offsets, out_rows + 1, 1)
        col_parts.append(out_cols)
        val_parts.append(np.asarray(combined, dtype=VALUE_DTYPE))

    np.cumsum(out_offsets, out=out_offsets)
    col_ids = (
        np.concatenate(col_parts) if col_parts else np.empty(0, dtype=INDEX_DTYPE)
    )
    data = np.concatenate(val_parts) if val_parts else np.empty(0, dtype=VALUE_DTYPE)
    return CSRMatrix(a.n_rows, b.n_cols, out_offsets, col_ids, data, check=False)


def _semiring_products(a, b, lo, hi, semiring) -> np.ndarray:
    """Product values under the semiring multiply, for rows [lo, hi).

    Mirrors :func:`expand_products`' gather so values align with its
    (rows, cols) output.
    """
    a_lo, a_hi = int(a.row_offsets[lo]), int(a.row_offsets[hi])
    a_cols = a.col_ids[a_lo:a_hi]
    a_vals = a.data[a_lo:a_hi]
    counts = b.row_nnz()[a_cols]
    total = int(counts.sum())
    starts = b.row_offsets[a_cols]
    exclusive = np.concatenate(
        [np.zeros(1, dtype=INDEX_DTYPE), np.cumsum(counts, dtype=INDEX_DTYPE)[:-1]]
    )
    src = np.repeat(starts - exclusive, counts) + np.arange(total, dtype=INDEX_DTYPE)
    return np.asarray(
        semiring.multiply(np.repeat(a_vals, counts), b.data[src]), dtype=VALUE_DTYPE
    )


def _equals_zero(vals: np.ndarray, zero: float) -> np.ndarray:
    if np.isinf(zero):
        return np.isinf(vals) & (np.sign(vals) == np.sign(zero))
    return vals == zero
