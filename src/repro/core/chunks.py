"""Chunk grid, per-chunk workload statistics, and chunk profiling.

The out-of-core framework partitions the output ``C`` into a grid of
*chunks*: chunk ``(i, j)`` is produced from row panel ``A[i]`` and column
panel ``B[j]`` (paper Algorithm 3).  Scheduling decisions — transfer
ordering (Section IV.C), hybrid assignment (Algorithm 4) — are made on
per-chunk workload statistics:

* ``flops`` is computable *before* any SpGEMM runs (Algorithm 4 lines
  6-13, ``GetFlops``).  :class:`GridSizing` holds them for a whole grid,
  with everything else the host decides from the same row analysis —
  the flops-descending order, the ``Ratio`` split, and what a chunk
  costs on the device and on the host (DESIGN.md Section 8);
* output nnz/bytes are known only after the chunk's kernel has executed;
  :func:`~repro.core.executor.execute_chunk_grid` runs the real kernels
  once and records everything, so that every scheduling variant
  afterwards is a cheap re-simulation of the same :class:`ChunkProfile`.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass, field, fields
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..sparse.codec import csr_nbytes as csr_bytes  # the planners' name for it
from ..sparse.formats import CSRMatrix
from ..sparse.partition import build_col_offsets, panel_boundaries
from ..spgemm.flops import compression_ratio, product_prefix
from ..spgemm.native import native_available, native_cut_cells

__all__ = [
    "STAT_FIELDS",
    "ChunkGrid",
    "ChunkStats",
    "ChunkProfile",
    "ProductTable",
    "CutTable",
    "GridSizing",
    "chunk_flops",
    "flops_desc_order",
    "split_by_flop_ratio",
    "intermediate_bytes",
    "host_bytes_of",
    "device_bytes_of",
]

#: bytes per CSR element (int64 column id + float64 value)
BYTES_PER_ELEM = 16

#: bytes of intermediate state per intermediate product (hash-table slot:
#: key + value at load factor 1/2)
INTERMEDIATE_BYTES_PER_PRODUCT = 32


def intermediate_bytes(count):
    """Device bytes of the symbolic structures (hash tables) over
    ``count`` products."""
    return count * INTERMEDIATE_BYTES_PER_PRODUCT


def host_bytes_of(rows, count):
    """Host bytes of one chunk's output held as CSR, ``count`` bounding
    its nnz — what host admission reserves.  Scalars or arrays (arrays
    broadcast, pricing a whole grid at once)."""
    return csr_bytes(rows, count)


def device_bytes_of(rows, count):
    """Device bytes to produce one chunk beyond the resident input
    panels: intermediates over ``count`` products plus the worst-case
    output (every one of them a distinct nonzero) — Section IV.B's pool
    bound, ``count`` being the chunk's product count.  The ``rows x 8``
    analysis result is not in it: the planner's ``safety`` margin covers
    that.  Scalars or arrays, like :func:`host_bytes_of`."""
    return intermediate_bytes(count) + host_bytes_of(rows, count)


def flops_desc_order(flops_flat) -> List[int]:
    """Chunk ids by decreasing flops, ties broken by id (Section IV.C /
    Alg. 4 line 14).  Needs no executed profile — chunk flops are
    computable before any kernel runs, which is what lets the executor
    dispatch heavy chunks first on a cold start."""
    flops_flat = np.asarray(flops_flat).ravel()
    return sorted(range(flops_flat.size), key=lambda i: (-int(flops_flat[i]), i))


def split_by_flop_ratio(
    flops_flat, ratio: float, order: Optional[Sequence[int]] = None
) -> Tuple[List[int], List[int]]:
    """Algorithm 4's split (lines 16-24): the shortest prefix of
    ``order`` holding at least ``ratio`` of total flops (the "GPU" set)
    and the remainder (the "CPU" set).  ``order`` defaults to
    flops-descending; Fig. 9's "default implementation" passes the
    natural order.

    Empty work (``total flops == 0``) has defined semantics: no chunk is
    flop-dense, so the "GPU" prefix is empty and *everything* goes to the
    "CPU" set, for any ratio — an all-zero grid never produces a spurious
    split.
    """
    if not 0.0 <= ratio <= 1.0:
        raise ValueError("ratio must be in [0, 1]")
    flops_flat = np.asarray(flops_flat).ravel()
    order = flops_desc_order(flops_flat) if order is None else list(order)
    total = int(flops_flat.sum())
    if ratio == 0.0 or total == 0:
        return [], order
    acc = 0
    for n, cid in enumerate(order):
        acc += int(flops_flat[cid])
        if acc / total >= ratio:
            return order[: n + 1], order[n + 1 :]
    return order, []


@dataclass(frozen=True)
class ChunkGrid:
    """The partition of the output into row x column panels."""

    row_bounds: np.ndarray  # len num_row_panels + 1
    col_bounds: np.ndarray  # len num_col_panels + 1

    @classmethod
    def regular(cls, n_rows: int, n_cols: int, num_row_panels: int, num_col_panels: int) -> "ChunkGrid":
        return cls(
            row_bounds=panel_boundaries(n_rows, num_row_panels),
            col_bounds=panel_boundaries(n_cols, num_col_panels),
        )

    @property
    def num_row_panels(self) -> int:
        return self.row_bounds.size - 1

    @property
    def num_col_panels(self) -> int:
        return self.col_bounds.size - 1

    @property
    def num_chunks(self) -> int:
        return self.num_row_panels * self.num_col_panels

    def chunk_id(self, row_panel: int, col_panel: int) -> int:
        """Row-major chunk numbering (Algorithm 4 line 8)."""
        return row_panel * self.num_col_panels + col_panel

    def panel_of(self, chunk_id: int) -> Tuple[int, int]:
        return divmod(chunk_id, self.num_col_panels)


@dataclass(frozen=True)
class ChunkStats:
    """Workload of one output chunk.

    ``flops`` is available pre-execution; the output-side fields are
    filled by profiling (-1 until then).
    """

    chunk_id: int
    row_panel: int
    col_panel: int
    rows: int                 # rows of the chunk (row-panel height)
    width: int                # columns of the chunk (col-panel width)
    flops: int
    a_panel_bytes: int
    b_panel_bytes: int
    input_nnz: int
    nnz_out: int = -1
    output_bytes: int = -1
    analysis_bytes: int = -1
    symbolic_bytes: int = -1
    symbolic_kernels: int = 1
    numeric_kernels: int = 1
    #: measured wall-clock of this chunk's real kernel run (seconds;
    #: -1.0 until executed).  Complements the *modeled* device times the
    #: simulators derive from flops/nnz — metrics can report model error.
    #: Excluded from equality: wall-clock varies run to run while the
    #: workload statistics are deterministic.
    measured_seconds: float = field(default=-1.0, compare=False)
    #: KernelSpec wire form that ran this chunk ("" for pre-execution
    #: stats and records from before kernel dispatch existed)
    kernel: str = field(default="", compare=False)
    #: per-stage measured wall seconds (-1.0 = not measured), same
    #: exclusion-from-equality rationale as measured_seconds
    analysis_seconds: float = field(default=-1.0, compare=False)
    symbolic_seconds: float = field(default=-1.0, compare=False)
    numeric_seconds: float = field(default=-1.0, compare=False)

    @property
    def executed(self) -> bool:
        return self.nnz_out >= 0

    @property
    def measured(self) -> bool:
        return self.measured_seconds >= 0.0

    @property
    def cr(self) -> float:
        """Per-chunk compression ratio (needs profiling)."""
        if not self.executed:
            raise ValueError("chunk not profiled yet")
        return compression_ratio(self.flops, self.nnz_out)

    def to_record(self) -> dict:
        """JSON-safe dict of every field, in :data:`STAT_FIELDS` order —
        the one encoding the profile cache, the checkpoint manifest and
        the shard wire protocol share."""
        record = {}
        for f in STAT_FIELDS:
            v = getattr(self, f)
            record[f] = v.item() if isinstance(v, np.generic) else v
        return record

    @classmethod
    def from_record(cls, record: dict) -> "ChunkStats":
        """Inverse of :meth:`to_record`.  Keys that are not fields (the
        manifest's per-chunk ``crc32``) are ignored; fields a record
        written before they existed lacks take their "unmeasured"
        defaults."""
        return cls(**{f: record[f] for f in STAT_FIELDS if f in record})


#: the serialized fields of :class:`ChunkStats`, in order
STAT_FIELDS = tuple(f.name for f in fields(ChunkStats))


@dataclass(frozen=True)
class ChunkProfile:
    """Everything the simulators need about one (matrix, grid) workload."""

    grid: ChunkGrid
    chunks: Tuple[ChunkStats, ...]
    name: str = ""
    #: measured end-to-end wall-clock of the profiling execution (seconds;
    #: -1.0 when unknown, e.g. profiles loaded from old caches).  With
    #: parallel execution this is *less* than the per-chunk sum.
    #: Excluded from equality, like :attr:`ChunkStats.measured_seconds`.
    measured_wall_seconds: float = field(default=-1.0, compare=False)

    @property
    def total_flops(self) -> int:
        return sum(c.flops for c in self.chunks)

    @property
    def has_measured_times(self) -> bool:
        return bool(self.chunks) and all(c.measured for c in self.chunks)

    @property
    def total_measured_seconds(self) -> float:
        """Sum of per-chunk measured kernel times (CPU work, not wall)."""
        return sum(c.measured_seconds for c in self.chunks if c.measured)

    @property
    def measured_gflops(self) -> float:
        """Throughput against the measured end-to-end wall time."""
        if self.measured_wall_seconds <= 0:
            return 0.0
        return self.total_flops / self.measured_wall_seconds / 1e9

    @property
    def total_nnz_out(self) -> int:
        if not all(c.executed for c in self.chunks):
            raise ValueError("profile not fully executed")
        return sum(c.nnz_out for c in self.chunks)

    @property
    def total_output_bytes(self) -> int:
        return sum(c.output_bytes for c in self.chunks if c.executed)

    def compression_ratio(self) -> float:
        return compression_ratio(self.total_flops, self.total_nnz_out)

    def order_by_flops_desc(self) -> List[int]:
        """:func:`flops_desc_order` of the executed chunks."""
        return flops_desc_order([c.flops for c in self.chunks])

    def natural_order(self) -> List[int]:
        return list(range(len(self.chunks)))

    # ------------------------------------------------------------------
    # (de)serialization — profiles are cached on disk so that scheduling
    # sweeps never recompute the real kernels
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "row_bounds": self.grid.row_bounds.tolist(),
            "col_bounds": self.grid.col_bounds.tolist(),
            "measured_wall_seconds": self.measured_wall_seconds,
            "chunks": [c.to_record() for c in self.chunks],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ChunkProfile":
        grid = ChunkGrid(
            row_bounds=np.asarray(payload["row_bounds"], dtype=np.int64),
            col_bounds=np.asarray(payload["col_bounds"], dtype=np.int64),
        )
        chunks = tuple(ChunkStats.from_record(c) for c in payload["chunks"])
        return cls(
            grid=grid, chunks=chunks, name=payload.get("name", ""),
            measured_wall_seconds=payload.get("measured_wall_seconds", -1.0),
        )


class ProductTable:
    """Row-prefix product counts of ``A x B`` for one column split.

    ``prefix[i, p]`` is the number of intermediate products rows
    ``[0, i)`` of A form with column panel ``p`` of B, so the count of
    *any* row range x panel is one subtraction.  Built from the paper's
    ``col_offset`` structure (Section III.D) in one pass over B and one
    :func:`~repro.spgemm.flops.product_prefix` per panel over
    ``A.col_ids``: ``(n_rows_A + 1) x c`` int64, never ``nnz_A x c``.
    Chunk counts come off a :class:`CutTable` instead; this is behind
    row-level reads and plans past that table's bound.
    """

    def __init__(self, a: CSRMatrix, b: CSRMatrix, col_bounds: np.ndarray):
        self.col_bounds = np.asarray(col_bounds, dtype=np.int64)
        self.prefix = np.empty((a.n_rows + 1, self.col_bounds.size - 1),
                               dtype=np.int64)
        splits = build_col_offsets(b, self.col_bounds)
        # (c, n_rows_B): nnz of each B row inside each column panel
        per_panel = np.ascontiguousarray(np.diff(splits, axis=1).T)
        running = np.zeros(a.nnz + 1, dtype=np.int64)
        for p, b_row_nnz in enumerate(per_panel):
            self.prefix[:, p] = product_prefix(a, b, b_row_nnz, scratch=running)


class CutTable:
    """Product counts of ``A x B`` on sorted cut points of A's rows and
    B's columns: one scan of each operand prices every grid on them.

    The cells are one sweep of the native library (``native_cut_cells``),
    kept as 2-D prefix sums (a chunk is a four-corner difference).
    Without the library there is no cut table: counts come off a
    :class:`ProductTable`.
    """

    def __init__(self, a: CSRMatrix, b: CSRMatrix, row_cuts: np.ndarray,
                 col_cuts: np.ndarray):
        self.a, self.b, self.row_cuts, self.col_cuts = a, b, row_cuts, col_cuts
        self.prefix = np.pad(
            native_cut_cells(a, b, row_cuts, col_cuts).cumsum(0).cumsum(1),
            ((1, 0), (1, 0)))

    def cells(self, grid: ChunkGrid) -> np.ndarray:
        """``(r, c)`` products per chunk of ``grid``, whose boundaries
        must be cuts of the table."""
        ri = np.searchsorted(self.row_cuts, grid.row_bounds)
        ci = np.searchsorted(self.col_cuts, grid.col_bounds)
        if not (np.array_equal(self.row_cuts[ri], grid.row_bounds)
                and np.array_equal(self.col_cuts[ci], grid.col_bounds)):
            raise ValueError("grid boundaries are not cuts of this table")
        corners = self.prefix[np.ix_(ri, ci)]
        return np.diff(np.diff(corners, axis=0), axis=1)

    def sizing(self, grid: ChunkGrid) -> "GridSizing":
        """The sizing of ``grid``, no row-level table built."""
        return GridSizing._new(grid, self.cells(grid), functools.partial(
            ProductTable, self.a, self.b, grid.col_bounds))


class GridSizing:
    """What one grid of ``C = A x B`` costs, chunk by chunk, before any
    kernel runs — the paper's row analysis (Fig. 3) summed once.

    The planner prices candidate grids with it, the executor orders
    dispatch by its ``flops``, the governor admits on ``host_bytes`` and
    re-splits on ``device_bytes``, a re-split sizes its sub-panels
    with ``range_products``, and a shard takes its ``span``.  Chunk
    counts come off a :class:`CutTable`; ``table``, the
    :class:`ProductTable` behind row-level reads, is built on first read
    — a default run makes none.  Every number here is sized from the
    flops upper bound (Section IV.B): ``nnz`` is the ceiling
    ``min(products, rows x width)``.  Chunk-indexed results are flat,
    row-major.
    """

    def __init__(self, a: CSRMatrix, b: CSRMatrix, grid: ChunkGrid):
        make_table = functools.partial(ProductTable, a, b, grid.col_bounds)
        if native_available():
            cut = CutTable(a, b, grid.row_bounds, grid.col_bounds)
            self._bind(grid, cut.cells(grid), make_table)
        else:
            table = make_table()
            self._bind(grid, np.diff(table.prefix[grid.row_bounds], axis=0),
                       lambda: table)

    @classmethod
    def over(cls, table: ProductTable, grid: ChunkGrid,
             first_row: int = 0) -> "GridSizing":
        """The sizing of ``grid`` over an existing table (whose column
        bounds are the grid's).  ``first_row`` is the table row of the
        grid's row 0 — nonzero for a :meth:`span`."""
        products = np.diff(table.prefix[grid.row_bounds + first_row], axis=0)
        return cls._new(grid, products, lambda: table, first_row)

    @classmethod
    def _new(cls, *args) -> "GridSizing":
        self = cls.__new__(cls)
        self._bind(*args)
        return self

    def _bind(self, grid: ChunkGrid, products: np.ndarray, make_table,
              first_row: int = 0):
        self.grid = grid
        #: (r, c) exact intermediate products per chunk
        self.products = products
        self.panel_rows = np.diff(grid.row_bounds).astype(np.int64)
        #: table rows of the grid's row-panel boundaries
        self._cuts = grid.row_bounds + first_row
        self._make_table, self._table, self._lock = make_table, None, threading.Lock()

    @property
    def table(self) -> ProductTable:
        """The row-level table, built on first read (lanes may race)."""
        with self._lock:
            if self._table is None:
                self._table = self._make_table()
            return self._table

    @property
    def flops(self) -> np.ndarray:
        """``(r, c)`` flops per chunk (``GetFlops`` for the whole grid)."""
        return 2 * self.products

    @functools.cached_property
    def nnz(self) -> np.ndarray:
        """``(r, c)`` bound on each chunk's output nnz: no chunk holds
        more nonzeros than its products, nor than its dense extent."""
        widths = np.diff(self.grid.col_bounds).astype(np.int64)
        return np.minimum(self.products, self.panel_rows[:, None] * widths)

    @functools.cached_property
    def host_bytes(self) -> np.ndarray:
        """Bound on each chunk's output bytes held on the host."""
        return host_bytes_of(self.panel_rows[:, None], self.nnz).ravel()

    @functools.cached_property
    def device_bytes(self) -> np.ndarray:
        """Each chunk's device footprint sized from its product count."""
        return device_bytes_of(self.panel_rows[:, None], self.products).ravel()

    def _chunk_rows(self, cid: int) -> Tuple[int, np.ndarray]:
        """Chunk ``cid``'s first table row and the prefix over its rows
        (``rows + 1`` entries of its column panel)."""
        rp, cp = self.grid.panel_of(cid)
        lo, hi = int(self._cuts[rp]), int(self._cuts[rp + 1])
        return lo, self.table.prefix[lo:hi + 1, cp]

    def row_products(self, cid: int) -> np.ndarray:
        """Products of each row of chunk ``cid``."""
        return np.diff(self._chunk_rows(cid)[1])

    def range_products(self, cid: int, lo: int, hi: int) -> int:
        """Products of rows ``[lo, hi)`` of chunk ``cid``'s row panel."""
        prefix = self._chunk_rows(cid)[1]
        return int(prefix[hi] - prefix[lo])

    def span(self, rp_lo: int, rp_hi: int) -> "GridSizing":
        """The sizing of row panels ``[rp_lo, rp_hi)`` as a grid of their
        own (row bounds rebased to 0) — a shard's share, read off the
        same table."""
        rb = self.grid.row_bounds
        sub = ChunkGrid(rb[rp_lo:rp_hi + 1] - rb[rp_lo], self.grid.col_bounds)
        return GridSizing._new(sub, self.products[rp_lo:rp_hi],
                               lambda: self.table, int(self._cuts[rp_lo]))


def chunk_flops(a: CSRMatrix, b: CSRMatrix, grid: ChunkGrid) -> np.ndarray:
    """Flops of every chunk (``GetFlops`` for the whole grid): a
    ``(num_row_panels, num_col_panels)`` int64 matrix."""
    return GridSizing(a, b, grid).flops
