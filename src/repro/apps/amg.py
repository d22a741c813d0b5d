"""Algebraic-multigrid building blocks on the SpGEMM executors.

The paper's numerical motivation ([7]): AMG preconditioners spend much of
their setup in the Galerkin triple product ``A_c = R · A · P``.  Both
multiplications route through the framework (in-core, or out-of-core on a
simulated node).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..device.specs import NodeSpec
from ..sparse.formats import CSRMatrix, INDEX_DTYPE
from ..sparse.ops import transpose
from .graphs import multiply

__all__ = ["aggregation_prolongator", "galerkin_product", "amg_hierarchy"]


def aggregation_prolongator(n_fine: int, agg_size: int) -> CSRMatrix:
    """Piecewise-constant aggregation ``P``: fine point i -> aggregate
    ``i // agg_size`` (each column scaled to unit 2-norm)."""
    if agg_size < 1:
        raise ValueError("agg_size must be >= 1")
    n_coarse = (n_fine + agg_size - 1) // agg_size
    cols = np.arange(n_fine, dtype=INDEX_DTYPE) // agg_size
    sizes = np.bincount(cols, minlength=n_coarse).astype(float)
    vals = 1.0 / np.sqrt(sizes[cols])
    return CSRMatrix(
        n_fine, n_coarse,
        np.arange(n_fine + 1, dtype=INDEX_DTYPE), cols, vals,
    )


def galerkin_product(
    a: CSRMatrix, p: CSRMatrix, *, node: Optional[NodeSpec] = None
) -> CSRMatrix:
    """The coarse operator ``Pᵀ · A · P``."""
    if a.n_cols != p.n_rows:
        raise ValueError(f"dimension mismatch: A {a.shape} vs P {p.shape}")
    ap = multiply(a, p, node)
    return multiply(transpose(p), ap, node)


def amg_hierarchy(
    a: CSRMatrix,
    *,
    agg_size: int = 4,
    min_size: int = 64,
    max_levels: int = 10,
    node: Optional[NodeSpec] = None,
) -> Tuple[CSRMatrix, ...]:
    """A full coarsening hierarchy ``(A_0, A_1, ...)`` by repeated
    aggregation + Galerkin products, until the operator is small."""
    if a.n_rows != a.n_cols:
        raise ValueError("AMG coarsening needs a square operator")
    levels = [a]
    current = a
    for _ in range(max_levels - 1):
        if current.n_rows <= min_size:
            break
        p = aggregation_prolongator(current.n_rows, agg_size)
        current = galerkin_product(current, p, node=node)
        levels.append(current)
    return tuple(levels)
