"""Numeric phase: where the output values land.

"The second phase is called numeric phase, which starts with the knowledge
of the number of non-zero elements in the output matrix, and thus, space
allocation is now feasible."  The kernel writes each row directly into its
slot of the output arrays (:func:`~repro.spgemm.twophase.spgemm_numeric`),
mirroring how the GPU kernels write disjoint ranges of one pre-allocated
buffer.

Where a row lands is a :class:`RowSlots`: a per-row ``(start, count)`` in
output arrays the caller names, plus a column ``shift``.  By default the
slots are the chunk's own rows back to back in a fresh allocation; a
caller that has laid out a larger product
(:class:`repro.core.assemble.OutputLayout`) passes that product's slots
instead and the same code fills them in place.  :func:`place_rows` is the
one row-segment copy every already-computed row takes into its slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..sparse.formats import INDEX_DTYPE
from .expand import row_batches
from .native import native_available, native_place_rows

__all__ = ["RowSlots", "place_rows"]

#: elements the numpy copy of :func:`place_rows` moves per block
_PLACE_BLOCK = 1 << 10


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
    # a block of rows at a time, so the index temporaries stay a few KiB
    # beside the output instead of three copies of the chunk's column ids
    for r0, r1 in row_batches(lengths, _PLACE_BLOCK):
        lo, hi = int(src_offsets[r0]), int(src_offsets[r1])
        dest = np.repeat(starts[r0:r1] - src_offsets[r0:r1], lengths[r0:r1])
        dest += np.arange(lo, hi, dtype=INDEX_DTYPE)
        col_ids[dest] = src_cols[lo:hi] + shift
        data[dest] = src_vals[lo:hi]
    return -1
