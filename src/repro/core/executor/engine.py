"""The chunk-execution engine: one grid driver, one lane loop.

``execute_chunk_grid`` executes every chunk of ``C = A x B`` and
profiles it.  This module owns everything backend-independent: operand
partitioning, lane planning and validation, the run's shared state and
completion path (:class:`GridJob` — sink serialization, landing in the
run's :class:`~repro.core.spill.Checkpoint`, retry decisions, recovery
telemetry), profile assembly, and :func:`drain_lane` — the one
dispatch / admit / retry / release loop every lane of every backend
runs.  A backend (:mod:`repro.core.executor.backends`: ``serial``
inline, ``thread`` pool, ``process`` workers over shared memory) only
supplies the runner that loop drives.

Guarantees (all backends):

* **Bit-identical output.**  Chunks touch disjoint output regions and
  each chunk's kernel is deterministic, so any backend, worker count,
  and dispatch order produces exactly the serial result.
* **Deterministic profiles.**  Chunk statistics are reassembled in
  chunk-id order regardless of completion order; only the
  ``measured_seconds`` wall-clock fields vary run to run.
* **Bounded memory.**  At most ``window`` chunks are in flight per lane,
  so peak intermediate memory — including, under the process backend,
  outstanding shared-memory result segments — stays proportional to the
  window, not the grid.

Hybrid execution (paper Algorithm 4) maps onto *lanes*: the flop-densest
chunk prefix — the "GPU" set — gets one slice of the pool, the remainder
— the "CPU" set — the other, and both lanes drain concurrently.

A caller that wants the assembled product (``assemble=True``) and needs
no chunk *objects* gets it filled in place: the lanes drain twice, a
count pass (analysis + symbolic per chunk, exact row counts into an
:class:`~repro.core.assemble.OutputLayout`) and, after the layout's one
allocation, a fill pass (numeric per chunk, straight into its slots) —
DESIGN.md, "Output layout".  A run into an empty disk store, its only
sink, fills in place too, in strips (DESIGN.md, "Disk runs write strips").
"""

from __future__ import annotations

import threading
import time
import warnings
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from ...device.memory import DeviceOutOfMemory
from ...observability import as_tracer
from ...sparse.formats import CSRMatrix
from ...sparse.ops import vstack
from ...sparse.partition import check_bounds, partition_columns, partition_rows
from ...spgemm.kernels import KernelSpec, require_kernel
from ...spgemm.twophase import (
    SymbolicPhase,
    TwoPhaseStats,
    spgemm_numeric,
    spgemm_symbolic,
    spgemm_symbolic_empty,
    spgemm_twophase,
)
from ..assemble import OutputLayout, assemble_chunks
from ..chunks import (
    ChunkGrid,
    ChunkProfile,
    ChunkStats,
    GridSizing,
    csr_bytes,
    device_bytes_of,
    flops_desc_order,
)
from ..governor import as_governor
from ..governor.watchdog import (
    ChunkTimeout,
    arm_deadline,
    check_deadline,
    disarm_deadline,
)
from ..spill import DiskChunkStore
from .faults import (
    NO_RETRY,
    BackendDegradedWarning,
    BackendUnavailable,
    RetryPolicy,
    as_injector,
)
from .plan import default_window, filter_lanes

__all__ = ["EXECUTOR_BACKENDS", "resolve_backend_name", "execute_chunk_grid"]

#: the selectable executor backends, in escalation order
EXECUTOR_BACKENDS = ("serial", "thread", "process")

#: graceful-degradation order: if a backend cannot be established, the
#: engine falls back along this chain instead of failing the run
DEGRADATION_CHAIN = {
    "process": ("process", "thread", "serial"),
    "thread": ("thread", "serial"),
    "serial": ("serial",),
}


def resolve_backend_name(
    backend: Optional[str], workers: int, has_lanes: bool
) -> str:
    """Resolve the backend choice, defaulting to the legacy semantics:
    ``workers == 1`` without explicit lanes runs serial inline, anything
    else threads."""
    if backend is None:
        return "serial" if workers == 1 and not has_lanes else "thread"
    if backend not in EXECUTOR_BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; choose from {EXECUTOR_BACKENDS}"
        )
    return backend


def _merge_seconds(x: float, y: float) -> float:
    """Sum two stage timings, propagating the -1.0 "not measured" mark."""
    return x + y if x >= 0.0 and y >= 0.0 else -1.0


def _merge_twophase(a: TwoPhaseStats, b: TwoPhaseStats) -> TwoPhaseStats:
    """Combine the stats of two row-disjoint sub-chunks of one chunk.
    Additive in every field; ``input_nnz`` double-counts the shared B
    panel, keeping the field an upper bound rather than losing it."""
    return TwoPhaseStats(
        flops=a.flops + b.flops,
        nnz_out=a.nnz_out + b.nnz_out,
        rows_out=a.rows_out + b.rows_out,
        analysis_bytes=a.analysis_bytes + b.analysis_bytes,
        symbolic_bytes=a.symbolic_bytes + b.symbolic_bytes,
        # re-derive from the merged shape: summing the halves would
        # double-count the CSR offset array's +1 sentinel row
        output_bytes=csr_bytes(a.rows_out + b.rows_out,
                               a.nnz_out + b.nnz_out),
        symbolic_kernels=a.symbolic_kernels + b.symbolic_kernels,
        numeric_kernels=a.numeric_kernels + b.numeric_kernels,
        input_nnz=a.input_nnz + b.input_nnz,
        kernel=a.kernel,
        analysis_seconds=_merge_seconds(a.analysis_seconds,
                                        b.analysis_seconds),
        symbolic_seconds=_merge_seconds(a.symbolic_seconds,
                                        b.symbolic_seconds),
        numeric_seconds=_merge_seconds(a.numeric_seconds,
                                       b.numeric_seconds),
    )


class _Counted(NamedTuple):
    """A chunk between the two passes of an in-place run: its kernel
    stopped at the symbolic/numeric boundary, or — for a chunk that had
    to be computed whole (re-split) — the finished matrix and its stats,
    held until the layout has an address for it."""

    row_nnz: np.ndarray
    symbolic: Optional[SymbolicPhase]
    matrix: Optional[CSRMatrix]
    stats: Optional[TwoPhaseStats]
    seconds: float


class GridJob:
    """Backend-independent shared state of one ``execute_chunk_grid`` run:
    the partitioned operands, the stats/output
    slots keyed by chunk id, and the serialized sink."""

    def __init__(
        self,
        grid: ChunkGrid,
        row_panels: Sequence[CSRMatrix],
        col_panels: Sequence[CSRMatrix],
        *,
        outputs: Optional[List[List[Optional[CSRMatrix]]]],
        tracer,
        retry: Optional[RetryPolicy] = None,
        faults=None,
        checkpoint=None,
        crash_budget: int = 0,
        governor=None,
        sizing: Optional[GridSizing] = None,
        kernel: Optional[KernelSpec] = None,
        chunk_events=None,
        layout: Optional[OutputLayout] = None,
    ) -> None:
        self.grid = grid
        #: the in-place run's output (``None``: chunks are handed to the
        #: sink as matrices).  ``counting`` is true during its first
        #: pass; ``counted[cid]`` holds a chunk between the passes.
        self.layout = layout
        self.counting = False
        self.counted: List[Optional[_Counted]] = [None] * grid.num_chunks
        #: optional ``fn(chunk_id, ChunkStats)`` called after each chunk
        #: lands durably (post-sink) — the job server streams these as
        #: progress events.  Called from lane/consumer threads; must be
        #: cheap and must not raise (failures are swallowed so a slow or
        #: broken observer can never corrupt the run).
        self.chunk_events = chunk_events
        self.kernel = kernel if kernel is not None else KernelSpec()
        self.row_panels = row_panels
        self.col_panels = col_panels
        self.tracer = tracer
        #: ``outputs[row_panel][col_panel]`` when the run keeps its chunks
        self.outputs = outputs
        self.retry = retry if retry is not None else NO_RETRY
        self.faults = as_injector(faults)
        self.checkpoint = checkpoint
        self.crash_budget = crash_budget
        self.governor = governor
        #: what each chunk costs (``None``: nothing asked — an ungoverned
        #: run in natural order).  A governor that polices host or device
        #: memory reads its bounds here
        self.sizing = sizing
        self.a_panel_bytes = [
            csr_bytes(row_panels[rp].n_rows, row_panels[rp].nnz)
            for rp in range(grid.num_row_panels)
        ]
        self.b_panel_bytes = [
            csr_bytes(col_panels[cp].n_rows, col_panels[cp].nnz)
            for cp in range(grid.num_col_panels)
        ]
        self.stats_by_id: List[Optional[ChunkStats]] = [None] * grid.num_chunks
        self.sink_lock = threading.Lock()

    # ------------------------------------------------------------------
    # governor hooks (deadline, host admission, device fit)
    # ------------------------------------------------------------------
    @property
    def deadline_seconds(self) -> Optional[float]:
        gov = self.governor
        return None if gov is None else gov.deadline_seconds

    def _stage_hook(self, cid: int):
        """Per-chunk stage hook: fault injection composed with the
        cooperative deadline check at every kernel-stage boundary."""
        inj = self.faults.hook_for(cid)
        if self.deadline_seconds is None:
            return inj
        if inj is None:
            return lambda stage: check_deadline(cid)

        def hook(stage):
            check_deadline(cid)
            inj(stage)

        return hook

    def admit_host(self, cid: int, *, may_wait: bool) -> bool:
        """Reserve chunk ``cid``'s bound on host output bytes under the
        governor's budget; ``True`` when dispatch may proceed."""
        gov = self.governor
        if gov is None or gov.hostmem is None:
            return True
        return gov.hostmem.admit(cid, int(self.sizing.host_bytes[cid]),
                                 may_wait=may_wait)

    def release_host(self, cid: int) -> None:
        gov = self.governor
        if gov is not None and gov.hostmem is not None:
            gov.hostmem.release(cid)

    def needs_resplit(self, cid: int) -> bool:
        """Would this chunk's working set overflow the device pool?
        (Pre-dispatch check; such chunks go straight to the re-split
        path instead of being submitted whole.)"""
        gov = self.governor
        if gov is None or gov.device_pool_bytes is None:
            return False
        return not gov.fits(int(self.sizing.device_bytes[cid]))

    # ------------------------------------------------------------------
    # in-process chunk execution (serial + thread backends)
    # ------------------------------------------------------------------
    def _kernel_args(self, cid: int) -> dict:
        return dict(kernel=self.kernel, tracer=self.tracer,
                    trace_label=str(cid), fault_hook=self._stage_hook(cid))

    def _timed(self, cid: int, body: Callable[[], object]):
        """``body()`` as one attempt of chunk ``cid`` — under the chunk
        deadline — and the seconds it took."""
        deadline = self.deadline_seconds
        t0 = time.perf_counter()
        if deadline is not None:
            arm_deadline(cid, deadline)
        try:
            out = body()
        finally:
            if deadline is not None:
                disarm_deadline(cid)
        return out, time.perf_counter() - t0

    def count_chunk(self, cid: int, resplit: bool = False
                    ) -> Tuple[int, _Counted]:
        """One attempt of chunk ``cid`` in an in-place run's count pass —
        the ``on_counted`` arguments: analysis and symbolic stages only,
        so the layout learns the chunk's exact row counts.  A chunk that
        must be re-split is computed whole here and held as a matrix."""
        rp, cp = self.grid.panel_of(cid)
        a_panel, b_panel = self.row_panels[rp], self.col_panels[cp]
        if resplit:
            (matrix, st), seconds = self._timed(
                cid, lambda: self._halve(cid, a_panel, b_panel, depth=1))
            return cid, _Counted(matrix.row_nnz(), None, matrix, st, seconds)
        sym, seconds = self._timed(
            cid, lambda: self._symbolic(cid, a_panel, b_panel))
        return cid, _Counted(sym.row_nnz, sym, None, None, seconds)

    def _symbolic(self, cid: int, a_panel: CSRMatrix, b_panel: CSRMatrix):
        """Stages 1-2 of chunk ``cid``: no kernel for a chunk the run's
        sizing prices at zero products (Liu & Vinter's empty bin)."""
        empty = self.sizing is not None and not self.sizing.products.flat[cid]
        return (spgemm_symbolic_empty if empty else spgemm_symbolic)(
            a_panel, b_panel, **self._kernel_args(cid))

    def run_chunk(
        self, cid: int, resplit: bool = False
    ) -> Tuple[int, TwoPhaseStats, Optional[CSRMatrix], float]:
        """One in-process attempt of chunk ``cid`` — the ``on_done``
        arguments.  In an in-place run this is the fill pass: the numeric
        stage of the chunk's :class:`SymbolicPhase`, written straight into
        its slots of the layout (no matrix comes back), or the matrix the
        count pass had to hold.

        ``resplit`` computes it as recursively halved row sub-panels, the
        device-OOM path.  Row slices partition the panel, each
        sub-product is deterministic, and :func:`vstack` restores row
        order, so the assembled chunk is bit-identical to the unsplit
        computation."""
        rp, cp = self.grid.panel_of(cid)
        a_panel, b_panel = self.row_panels[rp], self.col_panels[cp]
        counted = self.counted[cid]

        def body():
            if resplit:
                return self._halve(cid, a_panel, b_panel, depth=1)
            if counted is None:
                result = spgemm_numeric(self._symbolic(cid, a_panel, b_panel))
            elif counted.symbolic is None:
                return counted.matrix, counted.stats
            else:
                result = spgemm_numeric(counted.symbolic,
                                        dest=self.layout.slots(rp, cp))
            return result.matrix, result.stats

        (matrix, st), elapsed = self._timed(cid, body)
        if counted is not None:
            elapsed += counted.seconds
        return cid, st, matrix, elapsed

    def run(self, cid: int, resplit: bool = False) -> tuple:
        """One in-process attempt of chunk ``cid`` in the current pass —
        the arguments :meth:`land` takes."""
        run = self.count_chunk if self.counting else self.run_chunk
        return run(cid, resplit)

    def attempt(self, cid: int, resplit: bool):
        """:meth:`run` as a lane *outcome*: its result, or the exception
        it raised (returned, not raised — :func:`drain_lane` rules on
        it)."""
        try:
            return self.run(cid, resplit)
        except BaseException as exc:
            return exc

    # ------------------------------------------------------------------
    # completion (every backend funnels through here)
    # ------------------------------------------------------------------
    def land(self, outcome: tuple) -> None:
        """Complete one successful attempt, on the lane thread."""
        (self.on_counted if self.counting else self.on_done)(*outcome)

    def on_counted(self, cid: int, counted: _Counted) -> None:
        """Count-pass completion: the chunk's exact row counts go into
        the layout; the chunk itself waits for the fill pass."""
        self.layout.set_counts(*self.grid.panel_of(cid), counted.row_nnz)
        self.counted[cid] = counted

    def on_done(self, cid: int, st: TwoPhaseStats,
                matrix: Optional[CSRMatrix], elapsed: float) -> None:
        rp, cp = self.grid.panel_of(cid)
        stats = ChunkStats(
            chunk_id=cid,
            row_panel=rp,
            col_panel=cp,
            rows=self.row_panels[rp].n_rows,
            width=self.col_panels[cp].n_cols,
            flops=st.flops,
            a_panel_bytes=self.a_panel_bytes[rp],
            b_panel_bytes=self.b_panel_bytes[cp],
            input_nnz=st.input_nnz,
            nnz_out=st.nnz_out,
            output_bytes=st.output_bytes,
            analysis_bytes=st.analysis_bytes,
            symbolic_bytes=st.symbolic_bytes,
            symbolic_kernels=st.symbolic_kernels,
            numeric_kernels=st.numeric_kernels,
            measured_seconds=elapsed,
            kernel=st.kernel,
            analysis_seconds=st.analysis_seconds,
            symbolic_seconds=st.symbolic_seconds,
            numeric_seconds=st.numeric_seconds,
        )
        if self.faults.enabled:
            self.faults.fire("sink", cid)
        if self.layout is not None:
            # in place: the kernel already wrote the chunk's slots; only a
            # chunk that arrived as a matrix is copied there (no lock:
            # slots are disjoint)
            with self.tracer.span(f"sink[{cid}]", "sink", chunk=cid,
                                  bytes=st.output_bytes):
                if matrix is not None:
                    self.layout.place(rp, cp, matrix)
                if self.layout.sink is not None:
                    self.layout.filled(rp, cp)
        elif self.outputs is not None or self.checkpoint is not None:
            with self.tracer.span(f"sink[{cid}]", "sink", chunk=cid,
                                  bytes=st.output_bytes), self.sink_lock:
                if self.outputs is not None:
                    self.outputs[rp][cp] = matrix
                if self.checkpoint is not None:
                    self.checkpoint.land(stats, matrix)
        # the stats slot doubles as the chunk's "completed" flag (for the
        # degradation re-plan and the final missing check), so it too is
        # only filled after a successful landing — a sink-stage failure
        # leaves the chunk marked as remaining work
        self.stats_by_id[cid] = stats
        self.counted[cid] = None  # landed: nothing left to re-fill from
        if self.chunk_events is not None:
            try:
                self.chunk_events(cid, stats)
            except Exception:
                pass

    # ------------------------------------------------------------------
    # fault tolerance (retry decisions + recovery telemetry)
    # ------------------------------------------------------------------
    def note(self, counter: str, name: str, cat: str, *,
             seconds: float = 0.0, **args) -> None:
        """Record one recovery action: when tracing, its span and its
        ``faults`` counter."""
        tracer = self.tracer
        if tracer.enabled:
            now = tracer.now()
            tracer.add_span(name, cat, now, now + seconds, **args)
            tracer.bump("faults", **{counter: 1})

    def next_retry(self, cid: int, attempt: int,
                   exc: BaseException) -> Optional[float]:
        """Decide whether attempt ``attempt`` of chunk ``cid`` failing
        with ``exc`` should be retried.  Returns the backoff delay to
        wait before the next attempt, or ``None`` to propagate — and
        records the retry as a span + counter bump when it happens."""
        if not self.retry.should_retry(exc, attempt):
            return None
        delay = self.retry.delay_for(attempt, salt=cid)
        # the span covers the backoff window before the next attempt
        self.note("retries", f"retry[{cid}]", "retry", seconds=delay,
                  chunk=cid, attempt=attempt, error=type(exc).__name__)
        return delay

    def note_respawn(self, lane: str, worker: str, cid: Optional[int],
                     exitcode, kind: str = "crash") -> None:
        """Record one self-healed worker replacement.  ``kind`` is
        ``"crash"`` (hard death, chunk requeued), ``"timeout"`` (watchdog
        kill of a hung worker) or ``"stale"`` (death after its chunk was
        already delivered/checkpointed — nothing to requeue)."""
        self.note("respawns", f"respawn[{worker}]", "respawn",
                  lane=lane, worker=worker, kind=kind,
                  chunk=-1 if cid is None else cid,
                  exitcode=-1 if exitcode is None else exitcode)
        if kind == "stale" and self.tracer.enabled:
            self.tracer.bump("faults", stale=1)

    def note_timeout(self, cid: int, attempt: int) -> None:
        """Record one chunk deadline expiry (cooperative or watchdog)."""
        self.note("timeouts", f"timeout[{cid}]", "timeout",
                  chunk=cid, attempt=attempt)

    # ------------------------------------------------------------------
    # device-OOM recovery: adaptive row-panel re-splitting
    # ------------------------------------------------------------------
    def _sub_fits(self, cid: int, lo: int, rows: int) -> bool:
        """Whether ``rows`` rows of chunk ``cid``'s row panel, from its
        row ``lo``, fit the device pool (priced on their products)."""
        gov = self.governor
        if gov is None or gov.device_pool_bytes is None:
            return True
        products = self.sizing.range_products(cid, lo, lo + rows)
        return gov.fits(device_bytes_of(rows, products))

    def _run_subchunk(self, cid: int, a_sub: CSRMatrix,
                      b_panel: CSRMatrix, lo: int, depth: int):
        """Run one sub-panel (the rows from ``lo`` of the chunk's row
        panel), halving further while the device bound (or the kernel
        itself) says it still does not fit."""
        gov = self.governor
        max_depth = gov.max_resplit_depth if gov is not None else 1
        can_split = a_sub.n_rows > 1 and depth < max_depth
        if can_split and not self._sub_fits(cid, lo, a_sub.n_rows):
            return self._halve(cid, a_sub, b_panel, lo, depth)
        deadline = self.deadline_seconds
        hook = (lambda stage: check_deadline(cid)) if deadline else None
        try:
            result = spgemm_twophase(
                a_sub, b_panel, kernel=self.kernel, tracer=self.tracer,
                trace_label=f"{cid}.s{depth}", fault_hook=hook,
            )
        except DeviceOutOfMemory:
            if not can_split:
                raise
            return self._halve(cid, a_sub, b_panel, lo, depth)
        return result.matrix, result.stats

    def _halve(self, cid: int, a_sub: CSRMatrix, b_panel: CSRMatrix,
               lo: int = 0, depth: int = 1):
        if a_sub.n_rows <= 1:
            raise DeviceOutOfMemory(
                f"chunk {cid}: a single-row panel still exceeds the "
                "device pool — cannot re-split further"
            )
        self.note("resplits", f"resplit[{cid}]", "resplit",
                  chunk=cid, depth=depth, rows=a_sub.n_rows)
        mid = a_sub.n_rows // 2
        top_m, top_s = self._run_subchunk(
            cid, a_sub.row_slice(0, mid), b_panel, lo, depth + 1)
        bot_m, bot_s = self._run_subchunk(
            cid, a_sub.row_slice(mid, a_sub.n_rows), b_panel, lo + mid,
            depth + 1)
        return vstack([top_m, bot_m]), _merge_twophase(top_s, bot_s)


def drain_lane(job: GridJob, runner, order: Sequence[int], window: int,
               lane: str) -> None:
    """Drain one lane's chunks through ``runner`` — the one dispatch /
    admit / retry loop every backend shares (the paper's device loop,
    Alg. 4: next chunk in order, run it, hand the result to the sink).

    ``runner`` is all that differs per backend, two methods:

    ``submit(cid, attempt, resplit)``
        start one attempt of a chunk without blocking.  ``resplit``: the
        pre-dispatch check found the chunk oversized for the device
        pool, so it must be computed through the re-split path.
    ``next() -> (cid, attempt, outcome)``
        block for the next finished attempt; ``outcome`` is the
        argument tuple :meth:`GridJob.land` completes the chunk from
        (``on_done``'s — or, in an in-place run's count pass,
        ``on_counted``'s), or the exception the attempt died of.  An
        exception *raised* by ``next`` is the backend failing, not a
        chunk (``WorkerCrashed``): it ends the lane unretried.

    Per chunk: host admission (blocking only while the lane has nothing
    in flight — otherwise a completion of its own will free budget) →
    re-split check → submit → outcome → sink (``land``) → release.
    A ``DeviceOutOfMemory`` outcome recovers on this thread through the
    re-split path; any other failure (kernel, worker, sink) is put to
    the retry policy here, once: back off and resubmit under the next
    attempt number, keeping the reservation, or propagate.  However the
    lane exits, every host reservation it still holds is released, so a
    failed lane cannot starve the peers sharing its ledger (kernels a
    dying lane already started may still be running at that point —
    their results are dropped by the backend's teardown).
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    tracer = job.tracer
    pos = 0
    in_flight = 0
    held = set()  # chunk ids whose host reservation this lane holds
    try:
        while pos < len(order) or in_flight:
            while pos < len(order) and in_flight < window:
                cid = order[pos]
                if not job.admit_host(cid, may_wait=not in_flight):
                    break
                held.add(cid)
                runner.submit(cid, 1, job.needs_resplit(cid))
                pos += 1
                in_flight += 1
            if tracer.enabled:
                tracer.gauge(f"lane[{lane}]", queue_depth=len(order) - pos,
                             in_flight=in_flight)
            cid, attempt, outcome = runner.next()
            in_flight -= 1
            try:
                if isinstance(outcome, BaseException):
                    raise outcome
                job.land(outcome)
            except DeviceOutOfMemory:
                # the kernel itself overflowed the pool: recover by
                # re-splitting rather than re-running the same shape
                job.land(job.run(cid, resplit=True))
            except BaseException as exc:
                if isinstance(exc, ChunkTimeout):
                    job.note_timeout(cid, attempt)
                delay = job.next_retry(cid, attempt, exc)
                if delay is None:
                    raise
                if delay > 0:
                    time.sleep(delay)
                runner.submit(cid, attempt + 1, job.needs_resplit(cid))
                in_flight += 1
                continue
            held.discard(cid)
            job.release_host(cid)
    finally:
        for cid in held:
            job.release_host(cid)


def run_lanes_concurrently(
    runners: Sequence[Callable[[], None]],
    names: Sequence[str],
) -> None:
    """Drive one runner per lane; lanes > 1 get their own threads and the
    first lane error propagates to the caller."""
    if len(runners) == 1:
        runners[0]()
        return
    errors: List[BaseException] = []

    def lane_main(runner):
        try:
            runner()
        except BaseException as exc:  # propagate to the caller thread
            errors.append(exc)

    threads = [
        # inline lane spans land on this thread-name track
        threading.Thread(target=lane_main, args=(r,), name=names[i])
        for i, r in enumerate(runners)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


def execute_chunk_grid(
    a: CSRMatrix,
    b: CSRMatrix,
    grid: ChunkGrid,
    *,
    workers: int = 1,
    window: Optional[int] = None,
    keep_outputs: bool = False,
    assemble: bool = False,
    name: str = "",
    lanes: Optional[Sequence[Tuple[Sequence[int], int]]] = None,
    lane_names: Optional[Sequence[str]] = None,
    tracer=None,
    backend: Optional[str] = None,
    retry: Optional[RetryPolicy] = None,
    crash_budget: int = 0,
    faults=None,
    checkpoint=None,
    governor=None,
    kernel=None,
    chunk_events=None,
    col_panels: Optional[Sequence[CSRMatrix]] = None,
    sizing: Optional[GridSizing] = None,
) -> Tuple[ChunkProfile, Union[None, List[List[CSRMatrix]], CSRMatrix]]:
    """Execute every chunk of ``C = A x B`` and profile it, concurrently.

    Parameters
    ----------
    workers:
        Worker count.  Under the default backend resolution, ``1`` runs
        the chunks inline in natural (row-major) order — the legacy
        serial behaviour; ``> 1`` dispatches them flops-descending
        through the thread backend.
    backend:
        ``"serial"``, ``"thread"``, ``"process"``, or ``None`` for the
        legacy resolution above.  The process backend runs chunk kernels
        in worker processes that attach the operand panels through
        shared memory (see :mod:`repro.core.executor.backends`); results
        are bit-identical across all backends.
    window:
        Max chunks in flight per lane (default ``2 x workers``, the
        two-buffer analog).  Bounds peak memory held by unconsumed chunk
        outputs — under the process backend this also caps the
        outstanding shared-memory result segments.  Must be >= 1 when
        given (``0`` would admit nothing).
    keep_outputs / assemble:
        The return form — at most one.  ``keep_outputs`` returns the
        chunk matrices as ``outputs[row_panel][col_panel]``; ``assemble``
        returns the product itself, one :class:`CSRMatrix`.  With
        neither, chunks are not retained; a ``checkpoint`` over a store
        (e.g. a :class:`~repro.core.spill.DiskChunkStore`) is how they
        stream out as they are produced — or, for an empty
        ``DiskChunkStore`` and no manifest, host budget or process
        backend, fill in place row-major, strip by strip, into its file.

        An assembled product is filled *in place* — counted over the
        whole grid, allocated once, every chunk's numeric stage writing
        at its final address (module docstring) — whenever nothing about
        the call needs chunk objects: no ``checkpoint``, no governor
        host-memory budget (admission is priced per chunk held), and an
        in-process backend.  Otherwise the
        chunks are produced as matrices and copied once into the same
        layout (:func:`~repro.core.assemble.assemble_chunks`).  Both give
        the same bytes and the same profile.
    lanes:
        Optional explicit ``[(chunk_ids, lane_workers), ...]`` partition of
        the grid (the hybrid split).  Lanes drain concurrently, each with
        its own bounded window and >= 1 workers; every chunk id must
        appear exactly once.  ``lane_names`` labels the lanes in traces
        (default ``lane0``, ``lane1``, ...).
    tracer:
        A :class:`repro.observability.Tracer` recording the column
        partition (one ``partition`` span: panel count, bytes copied)
        and the full chunk lifecycle — queue wait,
        analysis/symbolic/numeric phases, sink writes — plus lane
        queue-depth/occupancy and per-stage
        throughput gauges.  Under the process backend workers
        record spans locally and ship them back in the result
        descriptors for merging, so one trace still covers the whole
        pipeline.  Default is the no-op null tracer; tracing never
        changes results (bit-identical on or off).
    retry:
        A :class:`~repro.core.executor.faults.RetryPolicy`.  A chunk
        attempt that fails with a retryable exception re-enters the
        dispatch queue after the policy's backoff delay instead of
        aborting the run; ``None`` keeps the legacy no-retry behaviour.
        Retries never change results — chunks are deterministic, so a
        re-run produces the identical matrix.
    crash_budget:
        Process backend only: how many hard worker deaths the run
        absorbs by requeueing the in-flight chunk and respawning the
        worker before giving up with ``WorkerCrashed`` (default 0 — any
        crash aborts, the legacy behaviour).
    faults:
        A :class:`~repro.core.executor.faults.FaultInjector` (or spec
        string) for chaos testing; ``None`` reads the ``REPRO_FAULTS``
        environment variable, so fault injection also reaches worker
        processes.
    checkpoint:
        A :class:`~repro.core.spill.Checkpoint`.  The chunks it already
        holds (``checkpoint.completed``) are skipped, their recorded
        stats spliced into the profile; every chunk computed here lands
        in it (``checkpoint.land``, serialized under the sink lock, in
        completion order); and when the call returns chunks or the product,
        the skipped ones come back from its store.  With nothing left to
        compute the call partitions nothing and starts no backend.  Its
        store joins the governor's host-memory ledger.
    governor:
        A :class:`~repro.core.governor.Governor` (or
        :class:`~repro.core.governor.GovernorConfig`) policing the run:
        per-chunk deadlines + worker heartbeats (hung chunks raise
        :class:`~repro.core.governor.ChunkTimeout`, retryable), a
        host-memory byte budget gating dispatch (with spill-under-
        pressure when the sink store supports it), and a device-pool
        bound that re-splits oversized chunks instead of submitting
        them — both priced by ``sizing``.  ``None`` (default) disables
        all governing — the legacy behaviour.  Recovery never changes
        results: re-split chunks reassemble bit-identically via row
        ``vstack``.
    kernel:
        Kernel every chunk runs with — ``None`` (auto), a
        wire string (``"esc"``), or a
        :class:`~repro.spgemm.kernels.KernelSpec`.  Threaded through
        every backend including process workers; results are identical
        across kernels (see :mod:`repro.spgemm.kernels`).
    chunk_events:
        Optional ``fn(chunk_id, ChunkStats)`` progress callback fired
        after each chunk lands durably (post-sink, in completion order
        per lane).  Runs on lane/consumer threads; exceptions it raises
        are swallowed.  The job server uses this to stream per-chunk
        completion events to callers.
    col_panels:
        Optional column panels of ``B`` already cut at the grid's
        ``col_bounds`` (``partition_columns(b, grid.col_bounds)``).
        Column partitioning is the expensive direction; a sharded run
        slicing ``A`` across N concurrent sub-runs over the *same* ``B``
        partitions it once and hands every shard the same read-only
        panels — the in-process analog of SUMMA's B broadcast (see
        :mod:`repro.distributed.shard`).  Must be cut from this exact
        ``b``; the panel widths are validated, the content is the
        caller's contract.  ``None`` (default) partitions here.
    sizing:
        The grid's :class:`~repro.core.chunks.GridSizing` when the
        caller already holds it (a ``PlanReport.sizing``, a sharded
        run's ``span``): it orders dispatch and prices the governor's
        host admission and device pre-check, and is built here, once,
        only if those need it.  A chunk it prices at zero
        products runs no kernel in process (its hooks fire), so it must
        be of this ``a`` and ``b``; results are then bit-identical with
        or without it.

    This function is re-entrant: all per-run state lives on the
    :class:`GridJob` (a fresh tracer/governor pair per call), cooperative
    deadlines are registered per executing thread, and shared-memory
    prefixes are swept per registering process — so an event loop may
    run many grids concurrently through one process (see
    :mod:`repro.serve`).

    Returns ``(profile, outputs_or_None)`` — ``(profile, matrix)`` under
    ``assemble``.  The profile's chunks are in chunk-id order with
    per-chunk measured wall times filled in, and the profile records the
    end-to-end measured wall time of the whole grid.
    """
    from .backends import make_backend  # deferred: backends import engine

    tracer = as_tracer(tracer)
    kernel_spec = require_kernel(kernel)
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if assemble and keep_outputs:
        raise ValueError(
            "assemble=True returns the product, keep_outputs=True its "
            "chunks: pass one"
        )
    if window is not None and window < 1:
        raise ValueError(
            f"window must be >= 1 (or None for the default), got {window}"
        )
    backend_name = resolve_backend_name(backend, workers, lanes is not None)
    if backend_name == "serial" and workers > 1:
        raise ValueError(
            "the serial backend runs exactly one worker; use "
            "backend='thread' or 'process' for workers > 1"
        )
    # the grid's bounds are where A and B are cut, on every path below
    check_bounds(grid.row_bounds, a.n_rows)
    check_bounds(grid.col_bounds, b.n_cols)
    if sizing is not None and not (
            np.array_equal(sizing.grid.row_bounds, grid.row_bounds)
            and np.array_equal(sizing.grid.col_bounds, grid.col_bounds)):
        raise ValueError("sizing is of another grid than the one to run")
    num_chunks = grid.num_chunks

    # the chunks the checkpoint already holds: skipped, their recorded
    # stats spliced into the profile
    skip = {} if checkpoint is None else dict(checkpoint.completed)
    for cid, stats in skip.items():
        if not 0 <= cid < num_chunks:
            raise ValueError(
                f"checkpoint holds chunk {cid} outside the "
                f"{num_chunks}-chunk grid"
            )
        if (stats.row_panel, stats.col_panel) != grid.panel_of(cid):
            raise ValueError(
                f"checkpoint stats for chunk {cid} disagree with the grid "
                "layout — wrong manifest for this run?"
            )
    if skip and (keep_outputs or assemble) and checkpoint.store is None:
        raise ValueError(
            "returning chunks or the product of a resumed run needs the "
            "checkpoint's store (run_out_of_core: the chunk_store holding "
            "the previous run's chunks, e.g. a DiskChunkStore over the "
            "original spill directory)"
        )
    if skip and tracer.enabled:
        now = tracer.now()
        progress = dict(skipped=len(skip), remaining=num_chunks - len(skip))
        tracer.add_span("resume", "resume", now, now, **progress)
        tracer.gauge("resume", **progress)

    gov = as_governor(governor)
    # fill in place when nothing needs the chunks as objects: to return
    # the product, or to write it in strips into an empty disk store
    in_process = (gov is None or gov.hostmem is None) and backend_name != "process"
    strips = (in_process and not (keep_outputs or assemble or skip)
              and isinstance(getattr(checkpoint, "store", None), DiskChunkStore)
              and checkpoint.manifest is None and not len(checkpoint.store))
    in_place = in_process and (strips or (assemble and checkpoint is None))
    outputs: Optional[List[List[Optional[CSRMatrix]]]] = None
    if keep_outputs or (assemble and not in_place):
        outputs = [[None] * grid.num_col_panels
                   for _ in range(grid.num_row_panels)]

    def finish(stats: Sequence[ChunkStats], wall: float):
        """The profile and the chunk path's return form; the chunks the
        run skipped come back from the checkpoint here."""
        profile = ChunkProfile(grid=grid, chunks=tuple(stats), name=name,
                               measured_wall_seconds=wall)
        out = outputs
        if out is not None:
            for cid in skip:
                rp, cp = grid.panel_of(cid)
                out[rp][cp] = checkpoint.store.get(rp, cp)
            if assemble:
                out = assemble_chunks(out)
        return profile, out

    if skip and len(skip) == num_chunks:
        # nothing left to compute: partition nothing, start no backend
        return finish([skip[cid] for cid in range(num_chunks)], 0.0)

    row_panels = partition_rows(a, grid.row_bounds)
    if col_panels is None:
        start = tracer.now()
        col_panels = partition_columns(b, grid.col_bounds)
        if tracer.enabled:
            tracer.add_span(
                "partition_columns", "partition", start, tracer.now(),
                panels=len(col_panels),
                copy_bytes=sum(p.nbytes() for p in col_panels if p is not b))
    elif [p.n_cols for p in col_panels] != np.diff(grid.col_bounds).tolist():
        raise ValueError("col_panels are not cut at the grid's col_bounds")

    # a strip run goes row-major, so few strips are open at a time
    natural = strips or backend_name == "serial" or (
        workers <= 1 and backend_name == "thread")
    polices_memory = gov is not None and (
        gov.device_pool_bytes is not None or gov.hostmem is not None)
    if sizing is None and (polices_memory or (lanes is None and not natural)):
        # built once, and only when a memory limit or the
        # flops-descending order asks what a chunk costs
        sizing = GridSizing(a, b, grid)

    if lanes is None:
        if natural:
            lanes = [(list(range(num_chunks)), workers)]
        else:
            lanes = [(flops_desc_order(sizing.flops), workers)]
    else:
        seen = sorted(cid for ids, _ in lanes for cid in ids)
        if seen != list(range(num_chunks)):
            raise ValueError("lanes must cover every chunk id exactly once")
        bad = [w for _, w in lanes if w < 1]
        if bad:
            raise ValueError(
                f"every lane needs >= 1 workers, got {bad}; a zero-worker "
                "lane means the caller should have serialized the lanes "
                "(see plan_hybrid_lanes)"
            )
    if lane_names is None:
        lane_names = [f"lane{i}" for i in range(len(lanes))]
    elif len(lane_names) != len(lanes):
        raise ValueError("lane_names must match lanes in length")

    if gov is not None:
        gov.bind_tracer(tracer)
        if checkpoint is not None and checkpoint.store is not None:
            # the store's held bytes join the host-memory ledger, and the
            # governor may squeeze it (spill-under-pressure) when it can
            gov.attach_store(checkpoint.store)

    job = GridJob(
        grid, row_panels, col_panels,
        outputs=outputs, tracer=tracer,
        retry=retry, faults=faults, checkpoint=checkpoint,
        crash_budget=crash_budget, governor=gov, sizing=sizing,
        kernel=kernel_spec, chunk_events=chunk_events,
        layout=(OutputLayout(grid.row_bounds, grid.col_bounds,
                             checkpoint.store if strips else None)
                if in_place else None),
    )

    for cid, stats in skip.items():
        job.stats_by_id[cid] = stats

    def lane_window(lane_workers: int) -> int:
        return default_window(lane_workers) if window is None else window

    chain = DEGRADATION_CHAIN[backend_name]

    def drain(landed: List[Optional[object]]) -> None:
        """One pass of every lane over the chunks ``landed`` does not
        hold yet, degrading along the chain."""
        nonlocal chain
        while True:
            # re-plan only the not-yet-completed chunks: after a partial
            # degradation (some lanes ran before the failing backend gave
            # up) the fallback must not re-run finished work
            done = {i for i, s in enumerate(landed) if s is not None}
            run_lanes, run_names = filter_lanes(lanes, lane_names, done)
            if not run_lanes:
                return
            try:
                make_backend(chain[0]).execute(job, run_lanes, run_names,
                                               lane_window)
                return
            except BackendUnavailable as exc:
                if len(chain) == 1:
                    raise
                job.note("degraded", f"degrade[{chain[0]}->{chain[1]}]",
                         "degrade", reason=str(exc))
                warnings.warn(
                    f"executor backend {chain[0]!r} unavailable "
                    f"({exc.reason}); degrading to {chain[1]!r}",
                    BackendDegradedWarning,
                    stacklevel=3,
                )
                chain = chain[1:]

    wall_start = time.perf_counter()
    if in_place:
        job.counting = True
        drain(job.counted)
        job.counting = False
        job.layout.seal()
    drain(job.stats_by_id)
    wall = time.perf_counter() - wall_start

    missing = [i for i, s in enumerate(job.stats_by_id) if s is None]
    if missing:
        raise RuntimeError(f"chunks never completed: {missing[:4]}...")
    stats = job.stats_by_id
    if in_place and assemble:
        return finish(stats, wall)[0], job.layout.matrix()
    # chunks + C is the chunk path's peak: the operand panels go first
    del job, row_panels, col_panels
    return finish(stats, wall)
