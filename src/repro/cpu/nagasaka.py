"""Multicore CPU SpGEMM after Nagasaka et al. [27] (hashmap variant).

This is the paper's CPU baseline *and* the CPU side of the hybrid executor:
"a recent high-performance multicore implementation from Nagasaka et al.
was invoked for each chunk (more specifically, the hashmap implementation
available from them)".

Structure of the original: rows are partitioned over threads; each thread
runs a symbolic pass sizing per-row hash tables from the upper bound, then
a numeric pass inserting products and finally sorting each row by column.
We reproduce exactly that structure — row-range partitioning balanced by
flops, per-range hash accumulation, int64 indices throughout (the reason
the paper prefers it over MKL) — with the per-range work vectorized and
ranges dispatched on a thread pool (numpy releases the GIL in its inner
loops, so ranges do overlap).

The per-range accumulator is a per-row open-addressing hash table sized
from the upper bound (load factor <= 1/2), keyed by column id with linear
probing, then sorted by column.  The insertion runs the classic GPU trick
in numpy: all pending products write their key to their probe slot
(arbitrary winner), everyone re-reads the slot, products whose key now
matches accumulate there, the rest advance to the next slot.  Each
iteration of the Python-level loop is one *probe step*, not one product,
so the loop count is bounded by the probe-sequence length.  Sums start
from -0.0, the additive identity, as the pipeline's kernels do.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional, Tuple

import numpy as np

from ..sparse.formats import CSRMatrix, INDEX_DTYPE, VALUE_DTYPE
from ..sparse.ops import take_rows
from ..spgemm.accumulators import RowResults, empty_results
from ..spgemm.expand import PRODUCT_BATCH, expand_products, row_batches
from ..spgemm.flops import flops_per_row, products_per_row

__all__ = ["balanced_row_ranges", "spgemm_nagasaka"]

#: Knuth multiplicative hashing constant (2^32 / phi), as used by many
#: GPU SpGEMM hash kernels.
_HASH_MULT = np.int64(2654435761)


def balanced_row_ranges(
    row_flops: np.ndarray, num_ranges: int
) -> List[Tuple[int, int]]:
    """Split rows into contiguous ranges with near-equal total flops.

    Greedy prefix splitting on the flop prefix-sum — the load balancing the
    multicore implementation performs before assigning rows to threads.
    Returns at most ``num_ranges`` non-empty ranges covering all rows.
    """
    if num_ranges <= 0:
        raise ValueError("num_ranges must be positive")
    n = int(row_flops.size)
    if n == 0:
        return []
    prefix = np.concatenate([[0], np.cumsum(row_flops, dtype=np.int64)])
    total = int(prefix[-1])
    if total == 0:
        return [(0, n)]
    targets = np.linspace(0, total, num_ranges + 1)
    cuts = np.searchsorted(prefix, targets, side="left")
    cuts[0], cuts[-1] = 0, n
    cuts = np.unique(np.clip(cuts, 0, n))
    return [(int(cuts[i]), int(cuts[i + 1])) for i in range(len(cuts) - 1)]


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


def _hash_accumulate_rows(
    a: CSRMatrix,
    b: CSRMatrix,
    rows: np.ndarray,
    work: np.ndarray,
    *,
    with_values: bool = True,
    batch_products: int = PRODUCT_BATCH,
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
    batch_products:
        Expansion is tiled over contiguous row ranges holding at most this
        many intermediate products, bounding peak memory by the batch
        instead of the whole group (a row above the budget still gets its
        own batch).  The result is bit-identical for any batch size.
    """
    rows = np.asarray(rows, dtype=INDEX_DTYPE)
    if rows.size == 0:
        return empty_results(rows, with_values)
    sub = take_rows(a, rows)

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
        return empty_results(rows, with_values)

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


def spgemm_nagasaka(
    a: CSRMatrix,
    b: CSRMatrix,
    *,
    num_threads: Optional[int] = None,
) -> CSRMatrix:
    """Multicore hash SpGEMM ``A x B``.

    ``num_threads`` defaults to the host's CPU count (the paper uses all
    28 hardware threads of its Xeon).
    """
    if a.n_cols != b.n_rows:
        raise ValueError(f"dimension mismatch: A is {a.shape}, B is {b.shape}")
    if num_threads is None:
        import os

        num_threads = os.cpu_count() or 1

    row_flops = flops_per_row(a, b)
    ranges = balanced_row_ranges(row_flops, num_threads)
    if not ranges:
        return CSRMatrix.empty(a.n_rows, b.n_cols)

    work = row_flops // 2  # upper-bound products sizes the hash tables

    def process(rng: Tuple[int, int]):
        lo, hi = rng
        rows = np.arange(lo, hi, dtype=INDEX_DTYPE)
        return _hash_accumulate_rows(a, b, rows, work[lo:hi])

    if len(ranges) == 1:
        results = [process(ranges[0])]
    else:
        with ThreadPoolExecutor(max_workers=num_threads) as pool:
            results = list(pool.map(process, ranges))

    # stitch the contiguous per-range outputs back into one CSR matrix
    counts = np.zeros(a.n_rows, dtype=INDEX_DTYPE)
    for res in results:
        counts[res.rows] = res.counts
    row_offsets = np.zeros(a.n_rows + 1, dtype=INDEX_DTYPE)
    np.cumsum(counts, out=row_offsets[1:])
    col_ids = np.concatenate([r.col_ids for r in results]) if results else np.empty(0, dtype=INDEX_DTYPE)
    data = np.concatenate([r.values for r in results]) if results else np.empty(0, dtype=VALUE_DTYPE)
    return CSRMatrix(a.n_rows, b.n_cols, row_offsets, col_ids, data, check=False)
