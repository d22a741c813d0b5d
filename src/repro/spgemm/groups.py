"""Host-side row grouping for load balance (spECK-style, paper Fig. 3).

After row analysis, rows of ``A`` are assigned to *groups* by work size so
that one kernel per group can use an appropriately sized accumulator:

* rows whose (estimated or exact) output is dense relative to the output
  width go to **dense-accumulation** groups;
* the rest go to **hash-accumulation** groups, bucketed by power-of-two
  work size so each kernel's hash tables are uniformly sized.

The paper performs this twice: once on the *upper-bound* estimate (before
the symbolic phase) and once on the *exact* per-row nnz (before the numeric
phase) — "we re-assign rows of matrix A based on the number of non-zero
elements to achieve global load balance again".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

__all__ = ["RowGroup", "RowGrouping", "group_rows"]

#: rows denser than this fraction of the output width use dense accumulation
DENSE_THRESHOLD = 1.0 / 16.0

#: hash groups are bucketed at powers of two between these work sizes
MIN_BUCKET = 16
MAX_BUCKET = 1 << 20


@dataclass(frozen=True)
class RowGroup:
    """A set of rows processed by one (simulated) kernel launch."""

    rows: np.ndarray  # int64 row indices, ascending
    method: str  # "dense" | "hash"
    bucket: int  # work-size bucket (power of two), 0 for dense groups

    def __len__(self) -> int:
        return int(self.rows.size)


@dataclass(frozen=True)
class RowGrouping:
    """All groups of one symbolic or numeric pass."""

    groups: Tuple[RowGroup, ...]
    n_rows: int

    def __iter__(self):
        return iter(self.groups)

    def __len__(self) -> int:
        return len(self.groups)

    def num_kernels(self) -> int:
        """Kernel launches this grouping costs (one per non-empty group)."""
        return sum(1 for g in self.groups if len(g) > 0)

    def coverage(self) -> np.ndarray:
        """Group index of every row; -1 marks rows with zero work
        (they are skipped entirely — their output rows are empty)."""
        out = np.full(self.n_rows, -1, dtype=np.int64)
        for gi, g in enumerate(self.groups):
            out[g.rows] = gi
        return out


def _bucket_of(work: np.ndarray) -> np.ndarray:
    """Power-of-two bucket per row, clamped to [MIN_BUCKET, MAX_BUCKET]."""
    clamped = np.clip(work, 1, MAX_BUCKET)
    exp = np.ceil(np.log2(clamped)).astype(np.int64)
    bucket = np.int64(1) << exp
    return np.maximum(bucket, MIN_BUCKET)


def group_rows(
    work_per_row: np.ndarray,
    out_width: int,
) -> RowGrouping:
    """Bin rows by work size and accumulation method.

    Parameters
    ----------
    work_per_row:
        Either the upper-bound products per row (symbolic grouping) or the
        exact output nnz per row (numeric re-grouping).
    out_width:
        Number of columns of the output chunk — the dense accumulator's
        buffer width, against which density is judged: rows with
        ``work >= DENSE_THRESHOLD * out_width`` use dense accumulation
        (the paper: "dense accumulation for dense rows and the hashmap
        methods for sparse rows").
    """
    work = np.asarray(work_per_row, dtype=np.int64)
    if np.any(work < 0):
        raise ValueError("work_per_row must be non-negative")
    n_rows = work.size
    groups: List[RowGroup] = []

    active = work > 0
    cutoff = max(1.0, DENSE_THRESHOLD * out_width)
    dense_mask = active & (work >= cutoff)
    hash_mask = active & ~dense_mask

    dense_rows = np.flatnonzero(dense_mask)
    if dense_rows.size:
        groups.append(RowGroup(rows=dense_rows, method="dense", bucket=0))

    hash_rows = np.flatnonzero(hash_mask)
    if hash_rows.size:
        buckets = _bucket_of(work[hash_rows])
        for b in np.unique(buckets):
            rows = hash_rows[buckets == b]
            groups.append(RowGroup(rows=rows, method="hash", bucket=int(b)))

    return RowGrouping(groups=tuple(groups), n_rows=n_rows)
