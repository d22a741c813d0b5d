"""Numeric phase: compute output values into an exactly-sized allocation.

"The second phase is called numeric phase, which starts with the knowledge
of the number of non-zero elements in the output matrix, and thus, space
allocation is now feasible."  Row groups are re-derived from the *exact*
symbolic counts (the paper's second, global load-balancing pass), and each
group's kernel writes directly into its rows' slots of the shared output
arrays — mirroring how the GPU kernels write disjoint ranges of one
pre-allocated buffer.

Where a row lands is a :class:`RowSlots`: a per-row ``(start, count)`` in
output arrays the caller names, plus a column ``shift``.  By default the
slots are the chunk's own rows back to back in arrays allocated here; a
caller that has laid out a larger product
(:class:`repro.core.assemble.OutputLayout`) passes that product's slots
instead and the same code fills them in place.  :func:`place_rows` is the
one row-segment copy every already-computed row takes into its slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..sparse.formats import CSRMatrix, INDEX_DTYPE, VALUE_DTYPE
from .accumulators import RowResults, esc_accumulate_rows
from .groups import RowGrouping
from .native import native_available, native_fill_slots, native_place_rows

__all__ = ["RowSlots", "place_rows", "numeric_grouped"]


@dataclass(frozen=True)
class RowSlots:
    """Where a block of output rows is written: row ``r`` owns
    ``col_ids/data[starts[r]:starts[r] + counts[r]]`` and its column ids
    are stored plus ``shift``.  ``starts`` / ``counts`` are contiguous
    int64, one entry per row; slots of different blocks never overlap, so
    blocks may be filled concurrently."""

    starts: np.ndarray
    counts: np.ndarray
    shift: int
    col_ids: np.ndarray
    data: np.ndarray


def place_rows(
    src_offsets: np.ndarray,
    src_cols: np.ndarray,
    src_vals: np.ndarray,
    slots: RowSlots,
    rows: Optional[np.ndarray] = None,
) -> None:
    """Copy packed rows — source row ``i`` is ``src_cols/src_vals[
    src_offsets[i]:src_offsets[i + 1]]`` — into ``slots``, each element
    once.  Source row ``i`` goes to slot row ``rows[i]`` (``None``: slot
    row ``i``).

    The fill kernel's refusal, applied per row before it is written: a
    row whose length differs from its slot's count, or whose slot leaves
    the output arrays, raises :class:`RuntimeError` naming the slot row.
    The compiled helper does the copy when available, numpy otherwise.
    """
    starts, counts = slots.starts, slots.counts
    if rows is not None:
        starts, counts = starts[rows], counts[rows]
    place = native_place_rows if native_available() else _place_rows_numpy
    bad = place(src_offsets, src_cols, src_vals, starts, counts,
                slots.shift, slots.col_ids, slots.data)
    if bad >= 0:
        row = bad if rows is None else int(rows[bad])
        raise RuntimeError(
            f"row {row} does not fit its slot: it holds "
            f"{int(src_offsets[bad + 1] - src_offsets[bad])} entries, the "
            f"slot is {int(counts[bad])} at {int(starts[bad])} of "
            f"{slots.col_ids.size}"
        )


def _place_rows_numpy(src_offsets, src_cols, src_vals, starts, counts,
                      shift, col_ids, data) -> int:
    """:func:`~repro.spgemm.native.native_place_rows` without a compiler:
    same contract, except that rows before a refused one are not written
    either."""
    if starts.shape != (src_offsets.size - 1,) or counts.shape != starts.shape:
        raise ValueError("slot starts/counts must hold one entry per source row")
    lengths = np.diff(src_offsets)
    cap = min(col_ids.size, data.size)
    refused = ((lengths != counts) | (lengths < 0) | (src_offsets[:-1] < 0)
               | (src_offsets[1:] > min(src_cols.size, src_vals.size))
               | (starts < 0) | (starts > cap - lengths))
    if refused.any():
        return int(np.argmax(refused))
    lo, hi = int(src_offsets[0]), int(src_offsets[-1])
    dest = np.repeat(starts - src_offsets[:-1], lengths) + np.arange(
        lo, hi, dtype=INDEX_DTYPE
    )
    col_ids[dest] = src_cols[lo:hi] + shift
    data[dest] = src_vals[lo:hi]
    return -1


def numeric_grouped(
    a: CSRMatrix,
    b: CSRMatrix,
    row_nnz: np.ndarray,
    grouping: RowGrouping,
    *,
    precomputed: Optional[Sequence[Optional[RowResults]]] = None,
    dest: Optional[RowSlots] = None,
) -> Optional[CSRMatrix]:
    """Run the numeric phase with an explicit row grouping.

    ``row_nnz`` are the exact symbolic counts; they fix the output layout
    (``row_offsets``) before any group runs, so groups can fill their rows
    independently and in any order.  ``native`` groups fill their slots
    in place — no :class:`RowResults`, no copy; ``esc`` groups are
    accumulated and copied to their slots.

    ``precomputed`` (parallel to ``grouping.groups``) supplies the
    :class:`RowResults` of ``esc`` groups whose symbolic pass already
    produced values; those groups are only copied here instead of
    recomputed.  ``None`` entries run normally.

    ``dest`` names slots in arrays the caller owns (one per row of ``a``,
    counts equal to ``row_nnz``); the rows are written there and ``None``
    is returned.  Without it the product gets its own exact allocation
    and comes back as a matrix.
    """
    row_nnz = np.ascontiguousarray(row_nnz, dtype=INDEX_DTYPE)
    if row_nnz.size != a.n_rows:
        raise ValueError("row_nnz length must equal the number of A rows")

    row_offsets = None
    if dest is None:
        row_offsets = np.zeros(a.n_rows + 1, dtype=INDEX_DTYPE)
        np.cumsum(row_nnz, out=row_offsets[1:])
        nnz = int(row_offsets[-1])
        dest = RowSlots(row_offsets[:-1], row_nnz, 0,
                        np.empty(nnz, dtype=INDEX_DTYPE),
                        np.empty(nnz, dtype=VALUE_DTYPE))
    elif dest.counts.shape != row_nnz.shape:
        raise ValueError("dest must hold one slot per row of A")
    else:
        # the kernels check the rows they write; a row no group touches
        # (symbolic count 0) must own an empty slot too
        wrong = np.flatnonzero(dest.counts != row_nnz)
        if wrong.size:
            r = int(wrong[0])
            raise RuntimeError(
                f"row {r} does not fit its slot: the symbolic count is "
                f"{int(row_nnz[r])}, the slot holds {int(dest.counts[r])}"
            )

    if precomputed is not None and len(precomputed) != len(grouping.groups):
        raise ValueError("precomputed must align with grouping.groups")

    for gi, g in enumerate(grouping):
        if len(g) == 0:
            continue
        res = precomputed[gi] if precomputed is not None else None
        if res is None:
            if g.method == "native":
                # the kernel itself refuses a row that disagrees with row_nnz
                native_fill_slots(a, b, g.rows, dest.starts, dest.counts,
                                  dest.shift, dest.col_ids, dest.data)
                continue
            res = esc_accumulate_rows(a, b, g.rows)
        if not np.array_equal(res.counts, row_nnz[g.rows]):
            raise RuntimeError(
                "numeric phase disagrees with symbolic counts — "
                "kernel inconsistency"
            )
        place_rows(res.offsets(), res.col_ids, res.values, dest, rows=g.rows)

    if row_offsets is None:
        return None
    return CSRMatrix(a.n_rows, b.n_cols, row_offsets, dest.col_ids, dest.data,
                     check=False)

