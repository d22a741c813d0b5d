"""Row accumulators: hash tables and dense arrays (paper Section II.B).

Intermediate products with colliding column ids must be combined into one
output nonzero.  Two methods are implemented, matching the paper (which
follows spECK [30] and Nagasaka et al. [28]):

``hash``
    per-row open-addressing hash tables sized from the upper-bound estimate
    (load factor <= 1/2), keyed by column id, linear probing, followed by a
    per-row sort of the surviving keys — "it then sorts the values of each
    row ... according to their column ids".
``dense``
    a dense accumulation buffer per row; column ids index the buffer
    directly.  Efficient when output rows are dense relative to the chunk
    width, wasteful otherwise — exactly the trade-off the row grouping
    exploits.

Every sum starts from -0.0, the additive identity, as the native SPA
does: from +0.0 an entry whose products are all -0.0 comes back +0.0.

Both are vectorized across all rows of a group.  The hash insertion runs
the classic GPU trick in numpy: all pending products write their key to
their probe slot (arbitrary winner), everyone re-reads the slot, products
whose key now matches accumulate there, the rest advance to the next slot.
Each iteration of the Python-level loop is one *probe step*, not one
product, so the loop count is bounded by the probe-sequence length (small
at load factor 1/2), keeping the whole thing O(products) vector work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..sparse.formats import CSRMatrix, INDEX_DTYPE, VALUE_DTYPE
from ..sparse.ops import RowSliceCache, take_rows
from .expand import expand_products, products_per_row, row_batches

__all__ = [
    "RowResults",
    "hash_accumulate_rows",
    "dense_accumulate_rows",
    "esc_accumulate_rows",
]

#: Knuth multiplicative hashing constant (2^32 / phi), as used by many
#: GPU SpGEMM hash kernels.
_HASH_MULT = np.int64(2654435761)

#: dense accumulation processes rows in batches bounded by this many buffer
#: elements, so peak memory stays flat regardless of group size
DENSE_BATCH_ELEMS = 1 << 22

#: hash accumulation expands intermediate products in row batches bounded
#: by this many products, so peak memory is O(batch) instead of O(group)
HASH_PRODUCT_BATCH = 1 << 22


def _take(a: CSRMatrix, rows: np.ndarray, slice_cache: Optional[RowSliceCache]) -> CSRMatrix:
    if slice_cache is not None:
        return slice_cache.take(rows)
    return take_rows(a, rows)


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


def _empty_results(rows: np.ndarray, with_values: bool) -> RowResults:
    return RowResults(
        rows=rows,
        counts=np.zeros(rows.size, dtype=INDEX_DTYPE),
        col_ids=np.empty(0, dtype=INDEX_DTYPE),
        values=np.empty(0, dtype=VALUE_DTYPE) if with_values else None,
    )


# ----------------------------------------------------------------------
# hash accumulation
# ----------------------------------------------------------------------
def _table_capacities(work: np.ndarray) -> np.ndarray:
    """Power-of-two table sizes >= 2x the upper-bound work per row."""
    need = np.maximum(2 * np.asarray(work, dtype=np.int64), 2)
    exp = np.ceil(np.log2(need)).astype(np.int64)
    return np.maximum(np.int64(1) << exp, 16)


def _hash_insert(
    keys: np.ndarray,
    vals: Optional[np.ndarray],
    table_off: np.ndarray,
    caps: np.ndarray,
    prod_rows: np.ndarray,
    prod_cols: np.ndarray,
    prod_vals: Optional[np.ndarray],
) -> None:
    """Insert one batch of products into the per-row open-addressing tables.

    Per-row tables are disjoint, so batches that keep whole rows together
    produce bit-identical tables to a single monolithic insertion: within a
    row, products retire at the same probe step and accumulate in the same
    order regardless of which other rows share the batch.
    """
    base = table_off[prod_rows]  # prod_rows are local (0..num group rows)
    mask = caps[prod_rows] - 1
    slot = base + ((prod_cols * _HASH_MULT) & mask)

    pending = np.arange(prod_rows.size, dtype=INDEX_DTYPE)
    max_steps = int(caps.max())
    for _ in range(max_steps + 1):
        if pending.size == 0:
            break
        s = slot[pending]
        c = prod_cols[pending]
        # claim empty slots (racing writes, numpy keeps the last writer —
        # any single winner is equally correct)
        empty = keys[s] == -1
        if np.any(empty):
            keys[s[empty]] = c[empty]
        # products whose column now owns the slot accumulate and retire
        won = keys[s] == c
        if np.any(won):
            if vals is not None:
                np.add.at(vals, s[won], prod_vals[pending[won]])
            pending = pending[~won]
            slot_adv = slot[pending]
        else:
            slot_adv = s
        if pending.size:
            # linear probe within the row's table
            b_off = table_off[prod_rows[pending]]
            m = caps[prod_rows[pending]] - 1
            slot[pending] = b_off + ((slot_adv - b_off + 1) & m)
    else:
        raise RuntimeError("hash table overflow: probe sequence exhausted")


def hash_accumulate_rows(
    a: CSRMatrix,
    b: CSRMatrix,
    rows: np.ndarray,
    work: np.ndarray,
    *,
    with_values: bool = True,
    slice_cache: Optional[RowSliceCache] = None,
    batch_products: int = HASH_PRODUCT_BATCH,
) -> RowResults:
    """Hash-accumulate the products of the given A rows.

    Parameters
    ----------
    rows:
        Row indices of ``A`` (the group), ascending.
    work:
        Upper-bound products per listed row (from row analysis); sizes the
        per-row tables so the load factor never exceeds 1/2.
    with_values:
        False runs the *symbolic* variant — structure only, no value array.
    slice_cache:
        Optional :class:`~repro.sparse.ops.RowSliceCache` over ``a`` that
        memoizes the group gather across symbolic/numeric passes and
        sibling chunks of the same row panel.
    batch_products:
        Expansion is tiled over contiguous row ranges holding at most this
        many intermediate products, bounding peak memory by the batch
        instead of the whole group (a row above the budget still gets its
        own batch).  The result is bit-identical for any batch size.
    """
    rows = np.asarray(rows, dtype=INDEX_DTYPE)
    if rows.size == 0:
        return _empty_results(rows, with_values)
    sub = _take(a, rows, slice_cache)

    caps = _table_capacities(work)
    table_off = np.zeros(rows.size + 1, dtype=INDEX_DTYPE)
    np.cumsum(caps, out=table_off[1:])
    total = int(table_off[-1])

    keys = np.full(total, -1, dtype=INDEX_DTYPE)
    vals = np.full(total, -0.0, dtype=VALUE_DTYPE) if with_values else None

    inserted_any = False
    for lo, hi in row_batches(products_per_row(sub, b), batch_products):
        prod_rows, prod_cols, prod_vals = expand_products(sub, b, lo, hi)
        if prod_rows.size == 0:
            continue
        inserted_any = True
        _hash_insert(
            keys, vals, table_off, caps, prod_rows, prod_cols,
            prod_vals if with_values else None,
        )
    if not inserted_any:
        return _empty_results(rows, with_values)

    # extract: valid slots per row, sorted by column id (the paper's
    # post-insert sort producing CSR rows)
    valid = keys != -1
    slot_rows = np.repeat(np.arange(rows.size, dtype=INDEX_DTYPE), caps)
    vr = slot_rows[valid]
    vc = keys[valid]
    order = np.lexsort((vc, vr))
    counts = np.bincount(vr, minlength=rows.size).astype(INDEX_DTYPE)
    return RowResults(
        rows=rows,
        counts=counts,
        col_ids=vc[order],
        values=vals[valid][order] if with_values else None,
    )


# ----------------------------------------------------------------------
# ESC accumulation (expand / sort / compress, whole group at once)
# ----------------------------------------------------------------------
def esc_accumulate_rows(
    a: CSRMatrix,
    b: CSRMatrix,
    rows: np.ndarray,
    work: Optional[np.ndarray] = None,
    *,
    with_values: bool = True,
    slice_cache: Optional[RowSliceCache] = None,
    batch_products: int = HASH_PRODUCT_BATCH,
) -> RowResults:
    """ESC-accumulate the products of the given A rows in one batch.

    The bhSPARSE formulation applied per row group: expand every
    intermediate product of the group at once, sort by the fused
    ``(row, column)`` key with one stable radix sort, and segment-reduce
    duplicate coordinates — no per-row and no per-probe-step Python loops
    anywhere on the path.

    The stable sort preserves expansion order among equal keys, and the
    segment reduction uses ``np.add.at`` (strictly sequential in element
    order — ``np.add.reduceat`` would pairwise-sum long runs), so
    duplicate products combine in expansion (ascending ``k``) order —
    bit-identical to the ``hash`` / ``dense`` / ``native`` accumulators
    for any input.

    ``work`` is accepted for accumulator-signature uniformity and unused:
    ESC needs no per-row sizing.  Expansion is tiled over contiguous row
    ranges of at most ``batch_products`` products, bounding peak memory
    by the batch; tiling never changes the result (rows never straddle a
    batch boundary).
    """
    del work  # unused: ESC has no per-row table to size
    rows = np.asarray(rows, dtype=INDEX_DTYPE)
    if rows.size == 0:
        return _empty_results(rows, with_values)
    width = np.int64(b.n_cols)
    if width == 0:
        return _empty_results(rows, with_values)
    sub = _take(a, rows, slice_cache)

    counts = np.zeros(rows.size, dtype=INDEX_DTYPE)
    cols_parts = []
    vals_parts = []
    for lo, hi in row_batches(products_per_row(sub, b), batch_products):
        prod_rows, prod_cols, prod_vals = expand_products(sub, b, lo, hi)
        if prod_rows.size == 0:
            continue
        # fused sort key: one stable (radix) argsort replaces the lexsort
        key = prod_rows * width + prod_cols
        order = np.argsort(key, kind="stable")
        key = key[order]
        new = np.empty(key.size, dtype=bool)
        new[0] = True
        new[1:] = key[1:] != key[:-1]
        starts = np.flatnonzero(new)
        unique_key = key[starts]
        counts += np.bincount(unique_key // width, minlength=rows.size).astype(
            INDEX_DTYPE
        )
        cols_parts.append((unique_key % width).astype(INDEX_DTYPE))
        if with_values:
            seg = np.cumsum(new) - 1  # segment id of every sorted product
            sums = np.full(starts.size, -0.0, dtype=VALUE_DTYPE)
            np.add.at(sums, seg, prod_vals[order])
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


# ----------------------------------------------------------------------
# dense accumulation
# ----------------------------------------------------------------------
def dense_accumulate_rows(
    a: CSRMatrix,
    b: CSRMatrix,
    rows: np.ndarray,
    *,
    with_values: bool = True,
    batch_elems: int = DENSE_BATCH_ELEMS,
    slice_cache: Optional[RowSliceCache] = None,
) -> RowResults:
    """Dense-accumulate the products of the given A rows.

    Each row gets a dense buffer of the full output width ``b.n_cols``;
    rows are processed in batches so the buffer footprint stays below
    ``batch_elems`` elements.  ``slice_cache`` memoizes the per-batch
    ``take_rows`` gathers (see :func:`hash_accumulate_rows`).
    """
    rows = np.asarray(rows, dtype=INDEX_DTYPE)
    if rows.size == 0:
        return _empty_results(rows, with_values)
    width = b.n_cols
    if width == 0:
        return _empty_results(rows, with_values)

    batch_rows = max(1, int(batch_elems // max(width, 1)))
    counts = np.zeros(rows.size, dtype=INDEX_DTYPE)
    cols_parts = []
    vals_parts = []

    for start in range(0, rows.size, batch_rows):
        chunk_rows = rows[start : start + batch_rows]
        sub = _take(a, chunk_rows, slice_cache)
        prod_rows, prod_cols, prod_vals = expand_products(sub, b)

        touched = np.zeros((chunk_rows.size, width), dtype=bool)
        touched[prod_rows, prod_cols] = True
        if with_values:
            acc = np.full((chunk_rows.size, width), -0.0, dtype=VALUE_DTYPE)
            np.add.at(acc, (prod_rows, prod_cols), prod_vals)

        # np.nonzero walks row-major, so columns come out ascending per row
        out_r, out_c = np.nonzero(touched)
        counts[start : start + chunk_rows.size] = np.bincount(
            out_r, minlength=chunk_rows.size
        )
        cols_parts.append(out_c.astype(INDEX_DTYPE))
        if with_values:
            vals_parts.append(acc[out_r, out_c])

    col_ids = (
        np.concatenate(cols_parts) if cols_parts else np.empty(0, dtype=INDEX_DTYPE)
    )
    values = None
    if with_values:
        values = (
            np.concatenate(vals_parts) if vals_parts else np.empty(0, dtype=VALUE_DTYPE)
        )
    return RowResults(rows=rows, counts=counts, col_ids=col_ids, values=values)
