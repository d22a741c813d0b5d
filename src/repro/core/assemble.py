"""The output layout: C sized once, every chunk written at its final address.

On the real system the host accumulates arriving chunks into a
pre-allocated (pinned) pool, each at an incrementally assigned offset
(paper Section IV).  :class:`OutputLayout` is that pool for a CSR
product: from the grid's row/column bounds and every chunk's exact
per-row nnz — what the symbolic stage ships to the host (Fig. 3) — it
prefix-sums the product's final ``row_offsets``, allocates ``col_ids`` /
``data`` once, and gives each chunk the slots of its rows.  Row ``r``'s
slot for column panel ``j`` starts after the row's nnz in panels
``< j``, so the panels of one row sit side by side, columns ascending,
with nothing moved afterwards.

A chunk reaches its slots one of two ways.  A kernel can *fill* them
(:meth:`OutputLayout.slots` handed to
:func:`~repro.spgemm.twophase.spgemm_numeric`), or a chunk that already
exists as a matrix — read back from a store, received from a worker,
produced by a fused or re-split kernel run — is *placed*
(:meth:`OutputLayout.place`): one bounds-checked copy, every element
touched once.  :func:`assemble_chunks` is "layout from the chunks' own
row counts, place each".

A layout with a ``sink`` holds no ``col_ids`` / ``data``: a row panel's
slots live in a *strip* buffer until its last chunk is in, then the
strip goes to the sink (DESIGN.md, "Disk runs write strips").
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..sparse.formats import CSRMatrix, INDEX_DTYPE, VALUE_DTYPE
from ..spgemm.numeric import RowSlots, place_rows

__all__ = ["OutputLayout", "assemble_chunks"]


class OutputLayout:
    """Final addresses of every chunk of ``C`` over one chunk grid.

    Life cycle: :meth:`set_counts` once per chunk (any order, any
    thread — chunks own disjoint table rows), :meth:`seal` (the prefix
    sum and the one allocation), then :meth:`slots` / :meth:`place` per
    chunk and :meth:`matrix`.  Filling or placing a chunk again rewrites
    the same slots with the same bytes, so a retried chunk is harmless.
    A thread holding a chunk before the layout is sealed waits in
    :meth:`wait_sealed`; :meth:`abandon` releases every such waiter with
    an error when the layout will never be sealed.
    """

    def __init__(self, row_bounds, col_bounds, sink=None) -> None:
        self.row_bounds = np.asarray(row_bounds, dtype=INDEX_DTYPE)
        self.col_bounds = np.asarray(col_bounds, dtype=INDEX_DTYPE)
        heights = np.diff(self.row_bounds)
        num_col_panels = self.col_bounds.size - 1
        # counts[rp][cp, i]: nnz of row i of row panel rp inside column
        # panel cp; one contiguous line per chunk
        self._counts: List[np.ndarray] = [
            np.zeros((num_col_panels, int(h)), dtype=INDEX_DTYPE)
            for h in heights
        ]
        self._counted = np.zeros((heights.size, num_col_panels), dtype=bool)
        self._starts: Optional[List[np.ndarray]] = None  # seal() fills it
        self.row_offsets: Optional[np.ndarray] = None     # and this
        self._matrix: Optional[CSRMatrix] = None
        self.sink = sink
        self._strips: Dict[int, tuple] = {}  # rp -> (first slot, col_ids, data)
        self._filled = np.zeros_like(self._counted)
        self._lock = threading.Lock()
        # set by seal() or abandon(); wait_sealed() blocks on it
        self._settled = threading.Event()
        self._abandoned: Optional[BaseException] = None

    @classmethod
    def from_counts(
        cls,
        counts: Sequence[Sequence[np.ndarray]],
        widths: Sequence[Sequence[int]],
    ) -> "OutputLayout":
        """The sealed layout of a grid known only by its chunks:
        ``counts[rp][cp]`` is chunk ``(rp, cp)``'s per-row nnz and
        ``widths[rp][cp]`` its column count.  Panels are as tall as
        their first chunk and as wide as the first row's chunks; a chunk
        that disagrees raises :class:`ValueError` naming it."""
        for rp, row in enumerate(widths):
            for cp, width in enumerate(row):
                if width != widths[0][cp]:
                    raise ValueError(
                        f"column panel {cp} has inconsistent widths: chunk "
                        f"({rp}, {cp}) is {width} wide, chunk (0, {cp}) is "
                        f"{widths[0][cp]}"
                    )
        layout = cls(
            np.cumsum([0] + [row[0].size for row in counts]),
            np.cumsum([0] + list(widths[0])),
        )
        for rp, row in enumerate(counts):
            for cp, row_nnz in enumerate(row):
                layout.set_counts(rp, cp, row_nnz)
        layout.seal()
        return layout

    @property
    def sealed(self) -> bool:
        return self._starts is not None

    def set_counts(self, row_panel: int, col_panel: int,
                   row_nnz: np.ndarray) -> None:
        """Record chunk ``(row_panel, col_panel)``'s exact per-row nnz."""
        if self.sealed:
            raise RuntimeError("the layout is sealed; counts are final")
        line = self._counts[row_panel][col_panel]
        row_nnz = np.asarray(row_nnz)
        if row_nnz.shape != line.shape:
            raise ValueError(
                f"row panel {row_panel} is {line.size} rows tall, chunk "
                f"({row_panel}, {col_panel}) has {row_nnz.size}"
            )
        if row_nnz.size and row_nnz.min() < 0:
            raise ValueError(
                f"chunk ({row_panel}, {col_panel}) has a negative row count"
            )
        line[:] = row_nnz
        self._counted[row_panel, col_panel] = True

    def seal(self) -> None:
        """Prefix-sum the counts into final offsets and allocate the
        output arrays — once; validates first, so nothing is allocated
        for a grid with a chunk still uncounted."""
        if self.sealed:
            raise RuntimeError("the layout is already sealed")
        missing = np.argwhere(~self._counted)
        if missing.size:
            rp, cp = (int(v) for v in missing[0])
            raise ValueError(
                f"chunk ({rp}, {cp}) is missing: no row counts were recorded "
                f"for it ({len(missing)} of {self._counted.size} chunks)"
            )
        n_rows = int(self.row_bounds[-1])
        row_offsets = np.zeros(n_rows + 1, dtype=INDEX_DTYPE)
        if n_rows:
            np.cumsum(
                np.concatenate([t.sum(axis=0) for t in self._counts]),
                out=row_offsets[1:],
            )
        # a row's slot in panel j starts after its nnz in panels < j
        self._starts = [
            np.cumsum(t, axis=0) - t + row_offsets[lo:hi]
            for t, lo, hi in zip(self._counts, self.row_bounds[:-1],
                                 self.row_bounds[1:])
        ]
        nnz = int(row_offsets[-1])
        self.row_offsets = row_offsets
        if self.sink is not None:
            self.sink.open_strips(self)
        else:
            self._matrix = CSRMatrix(
                n_rows, int(self.col_bounds[-1]), row_offsets,
                np.empty(nnz, dtype=INDEX_DTYPE), np.empty(nnz, dtype=VALUE_DTYPE),
                check=False,
            )
        self._settled.set()

    def abandon(self, cause: BaseException) -> None:
        """The layout will not be sealed (its counting failed with
        ``cause``): release every :meth:`wait_sealed`, now and later,
        with an error."""
        self._abandoned = cause
        self._settled.set()

    def wait_sealed(self) -> None:
        """Block until :meth:`seal`; raise :class:`RuntimeError` (caused
        by what :meth:`abandon` was given) if the layout was abandoned."""
        self._settled.wait()
        if self._abandoned is not None:
            raise RuntimeError(
                "the output layout was abandoned before it was sealed"
            ) from self._abandoned

    def slots(self, row_panel: int, col_panel: int) -> RowSlots:
        """Chunk ``(row_panel, col_panel)``'s destination: per-row start
        and count in the output arrays, and the column shift."""
        if not self.sealed:
            raise RuntimeError("seal() the layout before asking for slots")
        starts = self._starts[row_panel][col_panel]
        if self.sink is None:
            col_ids, data = self._matrix.col_ids, self._matrix.data
        else:
            with self._lock:  # a strip is allocated when first asked for
                if row_panel not in self._strips:
                    rows = self.row_bounds[row_panel:row_panel + 2]
                    first, end = self.row_offsets[rows]
                    self._strips[row_panel] = (
                        first, np.empty(end - first, dtype=INDEX_DTYPE),
                        np.empty(end - first, dtype=VALUE_DTYPE))
                first, col_ids, data = self._strips[row_panel]
            starts = starts - first
        return RowSlots(
            starts=starts,
            counts=self._counts[row_panel][col_panel],
            shift=int(self.col_bounds[col_panel]),
            col_ids=col_ids,
            data=data,
        )

    def filled(self, row_panel: int, col_panel: int) -> None:
        """A strip layout's chunk ``(row_panel, col_panel)`` is in its
        slots: the row panel's last chunk (each counts once) hands the strip
        to the sink; a failed write leaves it open for the retry to write."""
        with self._lock:
            self._filled[row_panel, col_panel] = True
            strip = (self._strips.get(row_panel)
                     if self._filled[row_panel].all() else None)
        if strip is not None:
            self.sink.write_strip(row_panel, *strip)
            self._strips.pop(row_panel, None)

    def place(self, row_panel: int, col_panel: int, chunk: CSRMatrix) -> None:
        """Copy a finished chunk matrix into its slots, each element
        once.  Every row is checked against its slot before it is
        written (:func:`~repro.spgemm.numeric.place_rows`): a chunk whose
        row counts differ from the ones the layout was sealed with raises
        :class:`RuntimeError` naming the row."""
        slots = self.slots(row_panel, col_panel)
        shape = (slots.counts.size,
                 int(self.col_bounds[col_panel + 1]) - slots.shift)
        if chunk.shape != shape:
            raise ValueError(
                f"chunk ({row_panel}, {col_panel}) is {chunk.shape}, its "
                f"place in the layout is {shape}"
            )
        try:
            place_rows(chunk.row_offsets, chunk.col_ids, chunk.data, slots)
        except RuntimeError as exc:
            raise RuntimeError(
                f"chunk ({row_panel}, {col_panel}): {exc}") from None

    def matrix(self) -> CSRMatrix:
        """The product, over the arrays the chunks were written into
        (complete once every chunk has been filled or placed)."""
        if self._matrix is None:
            raise RuntimeError("seal() a sinkless layout before taking the matrix")
        return self._matrix


def assemble_chunks(
    outputs: Sequence[Sequence[Optional[CSRMatrix]]],
) -> CSRMatrix:
    """Assemble ``outputs[row_panel][col_panel]`` into the full matrix:
    one allocation, every element copied once.

    Validates before allocating: the grid must be rectangular and
    complete, every row of chunks must agree on row count and every
    column of chunks on column count.
    """
    if not outputs or not outputs[0]:
        raise ValueError("no chunks to assemble")
    num_cols = len(outputs[0])
    if any(len(row) != num_cols for row in outputs):
        raise ValueError("ragged chunk grid")
    for rp, row in enumerate(outputs):
        for cp, chunk in enumerate(row):
            if chunk is None:
                raise ValueError(
                    f"chunk ({rp}, {cp}) is missing from the grid")
    layout = OutputLayout.from_counts(
        [[chunk.row_nnz() for chunk in row] for row in outputs],
        [[chunk.n_cols for chunk in row] for row in outputs],
    )
    for rp, row in enumerate(outputs):
        for cp, chunk in enumerate(row):
            layout.place(rp, cp, chunk)
    return layout.matrix()
