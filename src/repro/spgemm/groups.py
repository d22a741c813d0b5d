"""Row groups: the rows one kernel launch covers (paper Fig. 3).

spECK bins rows by work so each GPU kernel gets a uniformly sized
accumulator; the simulated device (:mod:`repro.device.kernels`) prices
that kernel analytically.  The host kernels need no binning: every row
with work forms one group, run by the resolved kernel
(:func:`~repro.spgemm.kernels.plan_groups`).  A grouping is derived twice
per multiplication, as in the paper — on the upper-bound work before the
symbolic phase and on the exact counts before the numeric phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

__all__ = ["RowGroup", "RowGrouping"]


@dataclass(frozen=True)
class RowGroup:
    """A set of rows processed by one (simulated) kernel launch."""

    rows: np.ndarray  # int64 row indices, ascending
    method: str  # "esc" | "native"

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

