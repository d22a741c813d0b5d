"""Panel-count planning against the device-memory budget.

In the paper's configuration the *inputs* fit in device memory and stay
resident; the output (plus the per-chunk intermediates) is what exceeds
the device.  The planner therefore reserves the resident-input footprint
and picks the smallest chunk grid such that the worst-case *chunk*
footprint — intermediate hash tables sized from the flops upper bound,
plus the worst-case output chunk — fits in the remaining pool
(Section IV.B).  Fewer, larger chunks amortize transfer latency better,
so the planner returns the coarsest grid that fits.

With asynchronous double buffering, *two* chunks are in flight at once,
so the chunk budget is halved.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from ..device.specs import NodeSpec
from ..sparse.formats import CSRMatrix
from ..sparse.partition import panel_boundaries
from ..spgemm.native import native_available
from .chunks import (
    BYTES_PER_ELEM,
    ChunkGrid,
    CutTable,
    GridSizing,
    ProductTable,
    csr_bytes,
    device_bytes_of,
    host_bytes_of,
    intermediate_bytes,
)

__all__ = [
    "PlanReport",
    "working_set_bytes",
    "default_device_bytes",
    "plan_grid",
]

#: floor of :func:`default_device_bytes`, so tiny matrices still get a
#: non-degenerate pool
MIN_DEVICE_MEMORY = 8 << 20


@dataclass(frozen=True)
class PlanReport:
    """The planner's decision plus the numbers behind it."""

    grid: ChunkGrid
    worst_chunk_bytes: int
    budget_bytes: int
    device_memory: int
    buffers: int
    safety: float
    #: the sizing of ``grid`` the plan was priced from — hand it to the
    #: run, so ordering, admission, re-splits and the hybrid/shard splits
    #: read the planner's tables instead of deriving their own
    sizing: Optional[GridSizing] = field(default=None, compare=False, repr=False)

    @property
    def fits(self) -> bool:
        return self.worst_chunk_bytes <= self.budget_bytes

    @property
    def flops(self) -> np.ndarray:
        """Flops of every chunk of ``grid``."""
        return self.sizing.flops


def resident_input_bytes(a: CSRMatrix, b: CSRMatrix, num_col_panels: int) -> int:
    """Device footprint of the resident inputs: all of A (row panels are
    plain slices) and all of B split into column panels (each panel keeps
    its own full-height ``row_offsets`` array)."""
    a_bytes = csr_bytes(a.n_rows, a.nnz)
    b_bytes = b.nnz * BYTES_PER_ELEM + num_col_panels * (b.n_rows + 1) * 8
    return a_bytes + b_bytes


def working_set_bytes(n: int, nnz_in: int, flops: int, nnz_out: int) -> int:
    """Total device working set of ``C = A x B`` run in one piece: both
    inputs, the intermediate structures over all products, and the output.

    This is the quantity that must exceed device memory for the problem to
    be out-of-core; the experiment runner sizes the simulated device from
    it (DESIGN.md substitution table).
    """
    products = flops // 2
    inputs = 2 * csr_bytes(n, nnz_in)
    # the output allocation is sized from the worst case (= products),
    # matching device_bytes_of; nnz_out bounds it from below
    output = host_bytes_of(n, max(products, nnz_out))
    return inputs + intermediate_bytes(products) + output


def default_device_bytes(input_bytes: int, n_rows: int, flops: int) -> int:
    """The simulated device a run gets when none is given: the inputs
    resident plus half of the remaining working set (intermediates +
    worst-case output of the product run as one chunk), floor 8 MiB —
    so the output cannot fit and the planner must chunk, the paper's
    regime (its inputs, <= 7 GB, fit the 16 GB device; the output plus
    the per-chunk intermediates do not)."""
    rest = device_bytes_of(n_rows, flops // 2)
    return input_bytes + max(rest // 2, MIN_DEVICE_MEMORY)


@functools.lru_cache(maxsize=8)
def _candidate_shapes(max_panels: int) -> Tuple[Tuple[int, int], ...]:
    """Grid shapes ``(r, c)`` in increasing chunk count; among equal
    counts the most balanced shape first.  Rectangular shapes matter:
    for band-structured matrices, splitting rows harder than columns
    shrinks the worst chunk at the same chunk count (off-band chunks are
    empty anyway)."""
    ranked = sorted(
        (r * c, abs(r - c), r, c)
        for r in range(1, max_panels + 1)
        for c in range(1, max_panels + 1)
        if max(r, c) <= 4 * min(r, c)  # keep panel grids balanced
    )
    return tuple((r, c) for _, _, r, c in ranked)


def _union_cuts(n: int, limit: int) -> np.ndarray:
    """Every boundary of the splits of ``[0, n)`` into <= ``limit`` panels."""
    return np.unique(np.concatenate(
        [panel_boundaries(n, p) for p in range(1, min(limit, max(n, 1)) + 1)]))


class _GridPricer:
    """Prices candidate grid shapes of one ``(A, B, node)`` problem.

    In rounds: one scan of each operand builds a ``CutTable`` over the
    boundaries of every panel count up to the round's limit (two dozen
    per axis at 8), and every ``(r, c)`` inside it costs O(r x c) — the
    paper's ``GetFlops`` computed once, not once per shape.  A per-``c``
    ``ProductTable`` prices only the candidates past :meth:`_cut_table`'s
    bound, or all of them without the native library.
    """

    def __init__(self, a: CSRMatrix, b: CSRMatrix, node: NodeSpec, *,
                 safety: float, buffers: int, max_panels: int):
        if not 0 < safety <= 1:
            raise ValueError("safety must be in (0, 1]")
        for name, value in (("buffers", buffers), ("max_panels", max_panels)):
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        self.a, self.b = a, b
        self.device_memory = node.gpu.device_memory_bytes
        self.safety, self.buffers, self.max_panels = safety, buffers, max_panels
        self._table = functools.lru_cache(maxsize=None)(lambda c: ProductTable(
            a, b, panel_boundaries(b.n_cols, c)))
        #: the widest round built, the panels it covers, may it widen
        self._cut, self._covers, self._widens = None, 0, True

    def budget(self, c: int) -> int:
        """Per-chunk device bytes left once the inputs, B cut into ``c``
        column panels, are resident (<= 0: the inputs alone overflow)."""
        free = self.device_memory - resident_input_bytes(self.a, self.b, c)
        return int(free * self.safety) // self.buffers

    def _cut_table(self, panels: int) -> Optional[CutTable]:
        """The cut table covering ``panels`` panels per axis, or ``None``
        past the bound or without the native library.  Limits double from 8
        (every shape up to 26 chunks) to ``max_panels``.  Both tables give
        the same exact counts, so the bound decides cost, not plans: it
        keeps a round's dense cut table in proportion to the operands,
        ``n_rows_B x buckets`` words within twice their CSR bytes.  Past
        it, each column count gets its own ``(n_rows_A + 1) x c`` table."""
        a, b = self.a, self.b
        if panels > self._covers and self._widens and native_available():
            limit = min(max(8, 1 << (panels - 1).bit_length()), self.max_panels)
            rows, cols = _union_cuts(a.n_rows, limit), _union_cuts(b.n_cols, limit)
            self._widens = 8 * b.n_rows * (cols.size - 1) <= 2 * (
                csr_bytes(a.n_rows, a.nnz) + csr_bytes(b.n_rows, b.nnz))
            if self._widens:
                self._cut, self._covers = CutTable(a, b, rows, cols), limit
        return self._cut if panels <= self._covers else None

    def price(self, r: int, c: int) -> PlanReport:
        """The regular ``r x c`` grid with its worst chunk footprint,
        sized from the flops upper bound."""
        grid = ChunkGrid.regular(self.a.n_rows, self.b.n_cols, r, c)
        cut = self._cut_table(max(r, c))
        sizing = (GridSizing.over(self._table(c), grid) if cut is None
                  else cut.sizing(grid))
        return PlanReport(
            grid=grid, worst_chunk_bytes=int(sizing.device_bytes.max()),
            budget_bytes=self.budget(c), device_memory=self.device_memory,
            buffers=self.buffers, safety=self.safety, sizing=sizing)

    def first_fit(self) -> PlanReport:
        """The first shape of :func:`_candidate_shapes` that fits."""
        if self.budget(1) <= 0:  # and a finer column split only adds to it
            raise ValueError(
                f"no grid fits: the resident inputs (resident_input_bytes, "
                f"{resident_input_bytes(self.a, self.b, 1)} bytes) exceed "
                f"device memory ({self.device_memory} bytes)"
            )
        # an empty dimension is one (empty) panel, as panel_boundaries has it
        max_r, max_c = max(self.a.n_rows, 1), max(self.b.n_cols, 1)
        for r, c in _candidate_shapes(self.max_panels):
            if r > max_r or c > max_c or self.budget(c) <= 0:
                continue
            last = self.price(r, c)
            if last.fits:
                return last
        raise ValueError(
            f"no grid up to {self.max_panels}x{self.max_panels} fits the "
            f"device budget; last candidate {last.grid.num_row_panels}x"
            f"{last.grid.num_col_panels}: worst chunk {last.worst_chunk_bytes} "
            f"bytes, budget {last.budget_bytes} bytes")


def plan_grid(
    a: CSRMatrix,
    b: CSRMatrix,
    node: NodeSpec,
    *,
    safety: float = 0.85,
    buffers: int = 2,
    max_panels: int = 64,
) -> PlanReport:
    """Smallest square-ish grid whose worst chunk fits the budget.

    ``buffers`` is the number of concurrently resident chunks (2 for the
    asynchronous double-buffered pipeline).  Grids are tried in increasing
    total chunk count, preferring balanced (square) shapes; raises
    ``ValueError`` when even ``max_panels x max_panels`` does not fit.
    """
    return _GridPricer(a, b, node, safety=safety, buffers=buffers,
                       max_panels=max_panels).first_fit()
