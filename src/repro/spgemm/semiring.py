"""Semiring SpGEMM — the GraphBLAS view of the paper's kernel.

The paper motivates SpGEMM through graph algorithms (citing the GraphBLAS
foundations [22], APSP [8], [35], and MCL clustering [29], [33]); many of
those run matrix multiplication over a *semiring* other than (+, x):
shortest paths over (min, +), reachability over (or, and), widest paths
over (max, min).

The algebra is a parameter of the pipeline's one numpy ESC
(:func:`~repro.spgemm.accumulators.esc_accumulate_rows`): expansion
applies the semiring's ``multiply``, and duplicate coordinates fold with
its ``add`` in the same stable-sorted order the ``(+, x)`` product uses.
:func:`spgemm_semiring` only removes the semiring zero from the operands
and from the result, so ``PLUS_TIMES`` gives the pipeline's product bit
for bit, its explicit zeros removed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..sparse.formats import CSRMatrix, INDEX_DTYPE
from ..sparse.ops import keep_entries
from .expand import PRODUCT_BATCH

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

    ``add`` must be a numpy ufunc: duplicate products fold into their
    entry with ``add.at``, in expansion order.  ``multiply`` is any
    vectorized binary function.  ``zero`` is the additive identity: it
    seeds every entry's fold, and entries equal to it are *absent* from
    the sparse structure, in the operands and in the product alike.
    """

    name: str
    add: np.ufunc
    multiply: Callable[[np.ndarray, np.ndarray], np.ndarray]
    zero: float

    def __repr__(self) -> str:
        return f"Semiring({self.name})"


#: the ordinary product; sums start from -0.0 as the native kernel's do
PLUS_TIMES = Semiring("plus_times", np.add, np.multiply, -0.0)
#: shortest paths: path weight = sum of edges, combine = min
MIN_PLUS = Semiring("min_plus", np.minimum, np.add, np.inf)
#: widest paths / bottleneck: path width = min edge, combine = max
MAX_MIN = Semiring("max_min", np.maximum, np.minimum, 0.0)
#: boolean reachability: the 0/1 products combine by max, which is OR
OR_AND = Semiring("or_and", np.maximum, np.logical_and, 0.0)


def spgemm_semiring(
    a: CSRMatrix,
    b: CSRMatrix,
    semiring: Semiring = PLUS_TIMES,
    *,
    batch_products: int = PRODUCT_BATCH,
) -> CSRMatrix:
    """``C = A (+.x) B`` over an arbitrary semiring (ESC formulation).

    Stored entries equal to ``semiring.zero`` are absent: they are
    removed from both operands before the multiply and from the result
    after it, so e.g. ``OR_AND`` outputs are 0/1 matrices with no
    explicit falses.
    """
    from .accumulators import esc_accumulate_rows  # it imports PLUS_TIMES

    if a.n_cols != b.n_rows:
        raise ValueError(f"dimension mismatch: A is {a.shape}, B is {b.shape}")
    zero = semiring.zero
    a, b = keep_entries(a, a.data != zero), keep_entries(b, b.data != zero)
    res = esc_accumulate_rows(
        a, b, np.arange(a.n_rows, dtype=INDEX_DTYPE),
        batch_products=batch_products, semiring=semiring,
    )
    c = CSRMatrix(a.n_rows, b.n_cols, res.offsets(), res.col_ids, res.values,
                  check=False)
    return keep_entries(c, c.data != zero)
