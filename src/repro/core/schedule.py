"""Schedule builders: synchronous, asynchronous (Fig. 6), and hybrid.

Each builder turns a :class:`~repro.core.chunks.ChunkProfile` into a DAG of
simulated commands on the node's four engines — ``gpu`` (compute), ``h2d``
and ``d2h`` (one DMA engine per PCIe direction, the constraint driving
Section IV), and ``cpu`` (the aggregate multicore).

**Synchronous** (modified spECK, Algorithm 3): one stream, every command
waits for the previous one, dynamic device allocations between phases.
This is the baseline of Fig. 4 and Fig. 8.

**Asynchronous** (Section IV): two streams with two pre-allocated buffer
sets; per chunk the commands are

    h2d(panels) -> analysis -> d2h(info1) -> symbolic -> d2h(info2) -> numeric

and the *result* transfer of the previous chunk is divided into two
portions interleaved between the info transfers of the current chunk
(Fig. 6): portion 1 (33 % of the rows) rides the D2H engine during the
current chunk's symbolic phase, portion 2 during its numeric phase.
Stream reuse every other chunk is exactly the double-buffering constraint.

With ``allocator="dynamic"`` the async builder inserts the malloc barrier
ops that CUDA's dynamic allocation implies ("two commands from different
streams cannot run concurrently if the host issues any device memory
allocation") — the ablation showing why pre-allocation matters.

**Hybrid** (Algorithm 4): the chosen GPU chunks run through the async
pipeline while the CPU chunks run back-to-back on the ``cpu`` resource.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..device.engine import SimEngine, SimOp
from ..device.kernels import CostModel
from .chunks import ChunkProfile, ChunkStats

__all__ = [
    "GPU",
    "H2D",
    "D2H",
    "CPU",
    "new_engine",
    "build_sync_schedule",
    "build_async_schedule",
    "add_cpu_chunks",
]

GPU = "gpu"
H2D = "h2d"
D2H = "d2h"
CPU = "cpu"

#: fraction of result rows in the first transfer portion (Section IV.B:
#: "the first portion contains 33% of the total number of rows")
FIRST_PORTION = 0.33


def new_engine() -> SimEngine:
    """An engine with the node's four resources."""
    eng = SimEngine()
    eng.add_resource(GPU)
    eng.add_resource(H2D)
    eng.add_resource(D2H)
    eng.add_resource(CPU)
    return eng


def _require_executed(profile: ChunkProfile) -> None:
    if not all(c.executed for c in profile.chunks):
        raise ValueError("profile must be fully executed before scheduling")


#: input-load policies (see build_* docstrings)
INPUT_MODES = ("prestaged", "resident", "streamed")


class _PanelLoader:
    """Issues H2D panel loads according to the input policy.

    ``prestaged``
        inputs are on the device before timing starts (the paper's
        measurement: inputs are a few percent of the traffic) — no ops.
    ``resident``
        the paper's Algorithm 3 behaviour made explicit: every panel is
        transferred on first use and stays resident (inputs fit).
    ``streamed``
        the "arbitrarily large matrices" extension (Section III.A's stated
        goal): only one panel of each kind fits, so a panel is re-loaded
        whenever the previous chunk used a different one.
    """

    def __init__(self, eng: SimEngine, cm: CostModel, mode: str, h2d: str = H2D) -> None:
        if mode not in INPUT_MODES:
            raise ValueError(f"unknown input mode {mode!r}; use one of {INPUT_MODES}")
        self.eng = eng
        self.cm = cm
        self.mode = mode
        self.h2d = h2d
        self.loaded_rows: set = set()
        self.loaded_cols: set = set()
        self.current_row: Optional[int] = None
        self.current_col: Optional[int] = None
        self.h2d_bytes = 0

    def _load(self, label: str, nbytes: int, stream: str, chunk_id: int, kind: str) -> None:
        self.h2d_bytes += nbytes
        self.eng.submit(
            label, self.h2d, self.cm.t_h2d(nbytes),
            stream=stream, chunk=chunk_id, kind=kind, bytes=nbytes,
        )

    def require(self, chunk: ChunkStats, stream: str) -> None:
        if self.mode == "prestaged":
            return
        if self.mode == "resident":
            if chunk.row_panel not in self.loaded_rows:
                self.loaded_rows.add(chunk.row_panel)
                self._load(f"h2d_a[{chunk.row_panel}]", chunk.a_panel_bytes,
                           stream, chunk.chunk_id, "h2d_a")
            if chunk.col_panel not in self.loaded_cols:
                self.loaded_cols.add(chunk.col_panel)
                self._load(f"h2d_b[{chunk.col_panel}]", chunk.b_panel_bytes,
                           stream, chunk.chunk_id, "h2d_b")
            return
        # streamed: single-panel cache per kind
        if chunk.row_panel != self.current_row:
            self.current_row = chunk.row_panel
            self._load(f"h2d_a[{chunk.chunk_id}]", chunk.a_panel_bytes,
                       stream, chunk.chunk_id, "h2d_a")
        if chunk.col_panel != self.current_col:
            self.current_col = chunk.col_panel
            self._load(f"h2d_b[{chunk.chunk_id}]", chunk.b_panel_bytes,
                       stream, chunk.chunk_id, "h2d_b")


def _split_output(chunk: ChunkStats, split: float) -> tuple:
    part1 = int(chunk.output_bytes * split)
    return part1, chunk.output_bytes - part1


# ----------------------------------------------------------------------
# synchronous baseline
# ----------------------------------------------------------------------
def build_sync_schedule(
    profile: ChunkProfile,
    cm: CostModel,
    *,
    order: Optional[Sequence[int]] = None,
    input_mode: str = "prestaged",
) -> SimEngine:
    """Synchronous partitioned spECK (Algorithm 3 with blocking copies).

    Single stream: kernels, dynamic mallocs, and transfers all serialize.
    ``input_mode`` selects the panel-load policy (see :class:`_PanelLoader`);
    the default pre-stages inputs, matching the paper's measurement where
    resident inputs are a few percent of the traffic (Section V.B).
    """
    _require_executed(profile)
    eng = new_engine()
    stream = "sync"
    ids = list(order) if order is not None else profile.natural_order()
    loader = _PanelLoader(eng, cm, input_mode)
    for cid in ids:
        ch = profile.chunks[cid]
        loader.require(ch, stream)
        eng.submit(f"analysis[{cid}]", GPU, cm.t_analysis(ch.input_nnz),
                   stream=stream, chunk=cid, kind="analysis")
        eng.submit(f"d2h_info1[{cid}]", D2H, cm.t_d2h(ch.analysis_bytes),
                   stream=stream, chunk=cid, kind="info", bytes=ch.analysis_bytes)
        # dynamic allocation of group info + symbolic structures
        eng.submit(f"malloc_sym[{cid}]", GPU, cm.t_malloc(), stream=stream,
                   chunk=cid, kind="malloc")
        eng.submit(f"symbolic[{cid}]", GPU,
                   cm.t_symbolic(ch.flops, ch.nnz_out, ch.symbolic_kernels),
                   stream=stream, chunk=cid, kind="symbolic")
        eng.submit(f"d2h_info2[{cid}]", D2H, cm.t_d2h(ch.symbolic_bytes),
                   stream=stream, chunk=cid, kind="info", bytes=ch.symbolic_bytes)
        # dynamic allocation of the exactly-sized output
        eng.submit(f"malloc_out[{cid}]", GPU, cm.t_malloc(), stream=stream,
                   chunk=cid, kind="malloc")
        eng.submit(f"numeric[{cid}]", GPU,
                   cm.t_numeric(ch.flops, ch.nnz_out, ch.numeric_kernels),
                   stream=stream, chunk=cid, kind="numeric")
        eng.submit(f"d2h_out[{cid}]", D2H, cm.t_d2h(ch.output_bytes),
                   stream=stream, chunk=cid, kind="output", bytes=ch.output_bytes)
        eng.submit(f"free[{cid}]", GPU, cm.t_malloc(), stream=stream,
                   chunk=cid, kind="malloc")
    return eng


# ----------------------------------------------------------------------
# asynchronous pipeline (Section IV)
# ----------------------------------------------------------------------
def build_async_schedule(
    profile: ChunkProfile,
    cm: CostModel,
    *,
    order: Optional[Sequence[int]] = None,
    num_streams: int = 2,
    divided_transfers: bool = True,
    split: float = FIRST_PORTION,
    allocator: str = "pool",
    input_mode: str = "prestaged",
    eng: Optional[SimEngine] = None,
    gpu: str = GPU,
    h2d: str = H2D,
    d2h: str = D2H,
    stream_prefix: str = "s",
) -> SimEngine:
    """The paper's asynchronous out-of-core pipeline.

    Parameters
    ----------
    order:
        Chunk execution order; default is decreasing flops (Section IV.C).
    divided_transfers:
        True (paper) splits each result transfer into ``split`` /
        ``1 - split`` portions interleaved with the next chunk's info
        transfers (Fig. 6).  False reproduces the naive schedule of
        Fig. 5: one monolithic result transfer that blocks the next
        chunk's info transfers on the single D2H engine.
    allocator:
        ``"pool"`` (paper) — no allocation commands at all;
        ``"dynamic"`` — malloc barriers serialize the streams, the
        behaviour the pre-allocation design removes.
    """
    _require_executed(profile)
    if num_streams < 1:
        raise ValueError("need at least one stream")
    if not 0.0 < split < 1.0:
        raise ValueError("split must be in (0, 1)")
    if allocator not in ("pool", "dynamic"):
        raise ValueError(f"unknown allocator {allocator!r}")

    if eng is None:
        eng = new_engine()
    ids = list(order) if order is not None else profile.order_by_flops_desc()
    m = len(ids)

    def malloc_barrier(label: str, stream: str) -> None:
        # a device allocation forbids concurrency with *anything* in
        # flight: depend on every submitted op
        eng.submit(label, gpu, cm.t_malloc(), deps=eng.all_submitted(),
                   stream=stream, kind="malloc")

    # per-position bookkeeping for the interleaved result transfers
    numeric_ops: List[Optional[SimOp]] = [None] * m
    loader = _PanelLoader(eng, cm, input_mode, h2d=h2d)

    def submit_result_part(pos: int, part: int, nbytes: int) -> None:
        cid = ids[pos]
        eng.submit(
            f"d2h_out{part}[{cid}]", d2h, cm.t_d2h(nbytes),
            deps=(numeric_ops[pos],),
            stream=f"{stream_prefix}{pos % num_streams}",
            chunk=cid, kind="output", bytes=nbytes, part=part,
        )

    for pos in range(m):
        cid = ids[pos]
        ch = profile.chunks[cid]
        stream = f"{stream_prefix}{pos % num_streams}"

        loader.require(ch, stream)

        eng.submit(f"analysis[{cid}]", gpu, cm.t_analysis(ch.input_nnz),
                   stream=stream, chunk=cid, kind="analysis")
        eng.submit(f"d2h_info1[{cid}]", d2h, cm.t_d2h(ch.analysis_bytes),
                   stream=stream, chunk=cid, kind="info", bytes=ch.analysis_bytes)

        if divided_transfers and pos >= 1:
            # first portion of the previous chunk's result rides the D2H
            # engine while this chunk runs its symbolic phase (Fig. 6)
            prev = profile.chunks[ids[pos - 1]]
            p1, _ = _split_output(prev, split)
            submit_result_part(pos - 1, 1, p1)

        if allocator == "dynamic":
            malloc_barrier(f"malloc_sym[{cid}]", stream)
        eng.submit(f"symbolic[{cid}]", gpu,
                   cm.t_symbolic(ch.flops, ch.nnz_out, ch.symbolic_kernels),
                   stream=stream, chunk=cid, kind="symbolic")
        eng.submit(f"d2h_info2[{cid}]", d2h, cm.t_d2h(ch.symbolic_bytes),
                   stream=stream, chunk=cid, kind="info", bytes=ch.symbolic_bytes)

        if pos >= 1:
            prev = profile.chunks[ids[pos - 1]]
            if divided_transfers:
                # second portion overlaps this chunk's numeric phase
                _, p2 = _split_output(prev, split)
                submit_result_part(pos - 1, 2, p2)
            else:
                # naive monolithic transfer (Fig. 5): submitted here, it
                # blocks the *next* chunk's info transfers behind it
                submit_result_part(pos - 1, 0, prev.output_bytes)

        if allocator == "dynamic":
            malloc_barrier(f"malloc_out[{cid}]", stream)
        numeric_ops[pos] = eng.submit(
            f"numeric[{cid}]", gpu,
            cm.t_numeric(ch.flops, ch.nnz_out, ch.numeric_kernels),
            stream=stream, chunk=cid, kind="numeric",
        )

    # drain the last chunk's result
    if m:
        last = profile.chunks[ids[m - 1]]
        if divided_transfers:
            p1, p2 = _split_output(last, split)
            submit_result_part(m - 1, 1, p1)
            submit_result_part(m - 1, 2, p2)
        else:
            submit_result_part(m - 1, 0, last.output_bytes)
    return eng


# ----------------------------------------------------------------------
# hybrid CPU side
# ----------------------------------------------------------------------
def add_cpu_chunks(
    eng: SimEngine,
    profile: ChunkProfile,
    cm: CostModel,
    chunk_ids: Sequence[int],
) -> None:
    """Queue the CPU's share of chunks (Algorithm 4 line 26).

    The multicore runs one chunk at a time with all threads — a single
    FIFO server whose per-chunk duration comes from the Nagasaka cost
    model.  No PCIe involvement: panels and results live in host memory.
    """
    global_cr = profile.compression_ratio()
    for cid in chunk_ids:
        ch = profile.chunks[cid]
        eng.submit(f"cpu_chunk[{cid}]", CPU,
                   cm.t_cpu_chunk(ch.flops, ch.nnz_out, cr=global_cr),
                   stream="cpu", chunk=cid, kind="cpu")
