"""Chunk grid, per-chunk workload statistics, and chunk profiling.

The out-of-core framework partitions the output ``C`` into a grid of
*chunks*: chunk ``(i, j)`` is produced from row panel ``A[i]`` and column
panel ``B[j]`` (paper Algorithm 3).  Scheduling decisions — transfer
ordering (Section IV.C), hybrid assignment (Algorithm 4) — are made on
per-chunk workload statistics:

* ``flops`` is computable *before* any SpGEMM runs (Algorithm 4 lines
  6-13, ``GetFlops``), and :func:`chunk_flops` computes the whole grid's
  flop matrix in one vectorized pass;
* output nnz/bytes are known only after the chunk's kernel has executed;
  :func:`~repro.core.executor.execute_chunk_grid` runs the real kernels
  once and records everything, so that every scheduling variant
  afterwards is a cheap re-simulation of the same :class:`ChunkProfile`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import List, Tuple

import numpy as np

from ..sparse.codec import csr_nbytes as csr_bytes  # the planners' name for it
from ..sparse.formats import CSRMatrix
from ..sparse.partition import build_col_offsets, panel_boundaries
from ..spgemm.flops import compression_ratio

__all__ = [
    "STAT_FIELDS",
    "ChunkGrid",
    "ChunkStats",
    "ChunkProfile",
    "ProductTable",
    "chunk_flops",
]

#: bytes per CSR element (int64 column id + float64 value)
BYTES_PER_ELEM = 16


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
        """Chunk ids sorted by decreasing flops (Section IV.C / Alg. 4
        line 14).  Ties broken by chunk id for determinism."""
        return sorted(range(len(self.chunks)), key=lambda i: (-self.chunks[i].flops, i))

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
    cumulative sum per panel over ``A.col_ids``; every grid sharing
    these ``col_bounds`` is then answered without touching A or B
    again.  Holds ``(n_rows_A + 1) x c`` int64, never ``nnz_A x c``.
    """

    def __init__(self, a: CSRMatrix, b: CSRMatrix, col_bounds: np.ndarray):
        if a.n_cols != b.n_rows:
            raise ValueError(f"dimension mismatch: A is {a.shape}, B is {b.shape}")
        splits = build_col_offsets(b, col_bounds)
        # (c, n_rows_B): nnz of each B row inside each column panel
        per_panel = np.ascontiguousarray(np.diff(splits, axis=1).T)
        self.col_bounds = np.asarray(col_bounds, dtype=np.int64)
        self.prefix = np.empty((a.n_rows + 1, per_panel.shape[0]), dtype=np.int64)
        running = np.zeros(a.nnz + 1, dtype=np.int64)
        for p, b_row_nnz in enumerate(per_panel):
            np.cumsum(b_row_nnz[a.col_ids], out=running[1:])
            self.prefix[:, p] = running[a.row_offsets]

    def row_products(self) -> np.ndarray:
        """``(n_rows_A, c)`` products of each single row of A."""
        return np.diff(self.prefix, axis=0)

    def products(self, row_bounds: np.ndarray) -> np.ndarray:
        """``(r, c)`` products of every chunk of the grid these row
        bounds cut (flops are twice that)."""
        return np.diff(self.prefix[row_bounds], axis=0)


def chunk_flops(a: CSRMatrix, b: CSRMatrix, grid: ChunkGrid) -> np.ndarray:
    """Flops of every chunk (``GetFlops`` for the whole grid): a
    ``(num_row_panels, num_col_panels)`` int64 matrix read off the
    grid's :class:`ProductTable`."""
    return 2 * ProductTable(a, b, grid.col_bounds).products(grid.row_bounds)
