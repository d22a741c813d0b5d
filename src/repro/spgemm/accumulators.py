"""The numpy row accumulator: expand / sort / compress (ESC).

Intermediate products with colliding column ids must be combined into one
output nonzero.  Without a C compiler this is the one way the pipeline
does it: Liu & Vinter's ESC formulation, vectorized across all rows of a
group — expand every product, sort by ``(row, column)``, and sum each run
of equal keys.  With a compiler the ``native`` kernel
(:mod:`repro.spgemm.native`) runs instead; both sum in the same order.

Every sum starts from -0.0, the additive identity, as the native SPA
does: from +0.0 an entry whose products are all -0.0 comes back +0.0.
The algebra is a parameter (a :class:`~repro.spgemm.semiring.Semiring`,
``PLUS_TIMES`` by default), so the semiring products run here too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..sparse.formats import CSRMatrix, INDEX_DTYPE, VALUE_DTYPE
from ..sparse.ops import take_rows
from .expand import PRODUCT_BATCH, expand_products, row_batches
from .flops import products_per_row
from .semiring import PLUS_TIMES, Semiring

__all__ = ["RowResults", "empty_results", "esc_accumulate_rows"]


@dataclass(frozen=True)
class RowResults:
    """Accumulated output rows of one group, in the group's row order.

    ``counts[i]`` output nonzeros for ``rows[i]``; ``col_ids``/``values``
    are the concatenated per-row results, columns ascending within a row.
    ``values`` is None for symbolic-only (structure) passes.
    """

    rows: np.ndarray
    counts: np.ndarray
    col_ids: np.ndarray
    values: Optional[np.ndarray]

    @property
    def nnz(self) -> int:
        return int(self.col_ids.size)

    def offsets(self) -> np.ndarray:
        out = np.zeros(self.rows.size + 1, dtype=INDEX_DTYPE)
        np.cumsum(self.counts, out=out[1:])
        return out


def empty_results(rows: np.ndarray, with_values: bool) -> RowResults:
    return RowResults(
        rows=rows,
        counts=np.zeros(rows.size, dtype=INDEX_DTYPE),
        col_ids=np.empty(0, dtype=INDEX_DTYPE),
        values=np.empty(0, dtype=VALUE_DTYPE) if with_values else None,
    )


# ----------------------------------------------------------------------
# ESC accumulation (expand / sort / compress, whole group at once)
# ----------------------------------------------------------------------
def esc_accumulate_rows(
    a: CSRMatrix,
    b: CSRMatrix,
    rows: np.ndarray,
    *,
    with_values: bool = True,
    batch_products: int = PRODUCT_BATCH,
    semiring: Semiring = PLUS_TIMES,
) -> RowResults:
    """ESC-accumulate the products of the given A rows in one batch.

    The bhSPARSE formulation applied per row group: expand every
    intermediate product of the group at once, sort by the fused
    ``(row, column)`` key with one stable radix sort, and segment-reduce
    duplicate coordinates — no per-row Python loop anywhere on the path.
    The key counts rows from the batch's first; a batch whose rows x
    width would overflow int64 sorts on the two keys instead
    (``np.lexsort``, stable too, so the order is the same).

    The stable sort preserves expansion order among equal keys, and the
    segment reduction uses ``np.add.at`` (strictly sequential in element
    order — ``np.add.reduceat`` would pairwise-sum long runs), so
    duplicate products combine in expansion (ascending ``k``) order —
    bit-identical to the ``native`` kernel for any input.

    ``semiring`` swaps the algebra: products are ``semiring.multiply``,
    each entry's fold starts from ``semiring.zero`` and runs
    ``semiring.add.at`` in that same order.  The default ``PLUS_TIMES``
    (zero -0.0) is the ``(+, x)`` product above.  Entries equal to the
    zero are kept; :func:`~repro.spgemm.semiring.spgemm_semiring` drops
    them.

    Expansion is tiled over contiguous row ranges of at most
    ``batch_products`` products, bounding peak memory by the batch;
    tiling never changes the result (rows never straddle a batch
    boundary).
    """
    rows = np.asarray(rows, dtype=INDEX_DTYPE)
    width = int(b.n_cols)
    if rows.size == 0 or width == 0:
        return empty_results(rows, with_values)
    sub = take_rows(a, rows)

    counts = np.zeros(rows.size, dtype=INDEX_DTYPE)
    cols_parts = []
    vals_parts = []
    for lo, hi in row_batches(products_per_row(sub, b), batch_products):
        prod_rows, prod_cols, prod_vals = expand_products(
            sub, b, lo, hi, multiply=semiring.multiply)
        if prod_rows.size == 0:
            continue
        prod_rows -= lo
        new = np.empty(prod_rows.size, dtype=bool)
        new[0] = True
        if (hi - lo) * width <= 1 << 63:
            # fused sort key: one stable (radix) argsort replaces the lexsort
            key = prod_rows * width + prod_cols
            order = np.argsort(key, kind="stable")
            key = key[order]
            new[1:] = key[1:] != key[:-1]
        else:
            order = np.lexsort((prod_cols, prod_rows))
            r, c = prod_rows[order], prod_cols[order]
            new[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
        starts = np.flatnonzero(new)
        first = order[starts]
        counts[lo:hi] = np.bincount(prod_rows[first], minlength=hi - lo)
        cols_parts.append(prod_cols[first])
        if with_values:
            seg = np.cumsum(new) - 1  # segment id of every sorted product
            sums = np.full(starts.size, semiring.zero, dtype=VALUE_DTYPE)
            semiring.add.at(sums, seg, prod_vals[order])
            vals_parts.append(sums)

    col_ids = (
        np.concatenate(cols_parts) if cols_parts else np.empty(0, dtype=INDEX_DTYPE)
    )
    values = None
    if with_values:
        values = (
            np.concatenate(vals_parts) if vals_parts else np.empty(0, dtype=VALUE_DTYPE)
        )
    return RowResults(rows=rows, counts=counts, col_ids=col_ids, values=values)
