"""Worst-case (upper-bound) estimates of output size.

Section IV.B of the paper discusses — and rejects — sizing device buffers
from upper bounds: "the gap between upper bounds and the actual sizes are
really large".  We implement the estimators anyway because (a) the
Nagasaka baseline's hash accumulator sizes its per-row tables from them,
and (b) the ablation bench
quantifies exactly how loose they are (the paper's argument).

Two bounds are provided:

``row_upper_bound``
    the flops-based bound: every intermediate product could be a distinct
    output nonzero, so ``ub[i] = sum over A[i,k] of nnz(B[k,*])``.
``row_upper_bound_cols``
    the trivial clamp ``min(flops-bound, n_cols of B)`` — an output row
    cannot hold more nonzeros than the output width.
"""

from __future__ import annotations

import numpy as np

from ..sparse.formats import CSRMatrix
from .flops import product_prefix

__all__ = ["row_upper_bound", "row_upper_bound_cols", "tightness"]


def row_upper_bound(a: CSRMatrix, b: CSRMatrix) -> np.ndarray:
    """Flops-based per-row upper bound on nnz of ``(A x B)[i, *]``."""
    return np.diff(product_prefix(a, b))


def row_upper_bound_cols(a: CSRMatrix, b: CSRMatrix) -> np.ndarray:
    """Upper bound clamped by the output width."""
    return np.minimum(row_upper_bound(a, b), b.n_cols)


def tightness(upper_bound: np.ndarray, actual: np.ndarray) -> float:
    """Aggregate looseness factor ``sum(ub) / sum(actual)`` (>= 1).

    The paper's observation is that this is "really large" for irregular
    matrices — our Table II analogs show factors of 1.1x (regular meshes)
    up to several x (social graphs).  Returns ``inf`` when the actual
    output is empty but the bound is not.
    """
    ub = int(np.asarray(upper_bound).sum())
    act = int(np.asarray(actual).sum())
    if act == 0:
        return float("inf") if ub else 1.0
    return ub / act
