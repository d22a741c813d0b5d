"""Executor backends: the serial, thread, and process lane runners.

Every backend drains its lanes through the one loop in
:func:`~repro.core.executor.engine.drain_lane` over the same
:class:`~repro.core.executor.engine.GridJob`, and therefore produces
bit-identical outputs and identical profiles (up to wall-clock fields).
A backend contributes only the *runner* that loop drives —
``submit(cid, attempt, resplit)`` / ``next() -> (cid, attempt, outcome)``
— i.e. *where* chunk kernels run:

========  ==========================================  =====================
backend   chunk kernels run on                        operand transport
========  ==========================================  =====================
serial    the calling thread, natural order           (in-process)
thread    a bounded-window ``ThreadPoolExecutor``     shared by reference
process   persistent daemon worker *processes*        shared memory, 1 copy
========  ==========================================  =====================

The process backend copies each CSR panel of ``A`` and ``B`` into one
:class:`~repro.sparse.shm.SharedCSR` segment once per run; workers
attach them zero-copy at startup, write each chunk's result into a
fresh segment sized from the kernel's exact (symbolic) allocation, and
send back a small descriptor; the parent copies the chunk out and
unlinks the segment (``docs/EXECUTORS.md`` has the full lifecycle).
Cleanup is crash-proof by construction: every segment of a run shares a
:func:`~repro.sparse.shm.run_prefix`, unlinked in ``finally`` here,
guarded by ``atexit`` hooks in both parent and workers, and — for hard
worker crashes — reclaimed by a prefix sweep of ``/dev/shm``.
"""

from __future__ import annotations

import queue
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Callable, List, Sequence, Tuple

from ...device.memory import DeviceOutOfMemory
from ...sparse.shm import (
    SharedCSR,
    cleanup_segments,
    register_cleanup_prefix,
    run_prefix,
    unregister_cleanup_prefix,
)
from ..governor.watchdog import ChunkTimeout
from .engine import GridJob, drain_lane, run_lanes_concurrently
from .faults import BackendUnavailable, ChunkExecutionError
from .procpool import ProcessLanePool, WorkerCrashed, resolve_mp_context

__all__ = ["make_backend", "SerialBackend", "ThreadBackend", "ProcessBackend"]

LaneSpec = Tuple[Sequence[int], int]


def make_backend(name: str):
    """Instantiate the named executor backend."""
    try:
        return {"serial": SerialBackend,
                "thread": ThreadBackend,
                "process": ProcessBackend}[name]()
    except KeyError:
        raise ValueError(f"unknown backend {name!r}") from None


class _InlineRunner:
    """Lane runner of the serial backend: ``next`` runs the one pending
    attempt on the calling thread."""

    def __init__(self, job: GridJob) -> None:
        self._job = job
        self._pending = None

    def submit(self, cid: int, attempt: int, resplit: bool) -> None:
        self._pending = (cid, attempt, resplit)

    def next(self):
        cid, attempt, resplit = self._pending
        return cid, attempt, self._job.attempt(cid, resplit)


class SerialBackend:
    """Chunks inline on the calling thread — the reference path.

    One chunk in flight at a time whatever the window; explicit lanes
    are honored but drained sequentially, in lane order (the
    single-worker hybrid semantics of ``plan_hybrid_lanes``)."""

    name = "serial"

    def execute(self, job: GridJob, lanes: Sequence[LaneSpec],
                lane_names: Sequence[str],
                window_of: Callable[[int], int]) -> None:
        for (ids, _w), lane in zip(lanes, lane_names):
            drain_lane(job, _InlineRunner(job), ids, 1, lane)


class _ThreadRunner:
    """Lane runner over a ``ThreadPoolExecutor``: attempts (whole or
    re-split) run on the pool's threads and post their outcome to a
    queue ``next`` blocks on (in a strip run: in submission order, so the
    chunks in flight stay a window apart).  With a tracer, each attempt
    records a ``queue_wait`` span (submit-to-start latency) on its
    worker's track."""

    def __init__(self, job: GridJob, pool: ThreadPoolExecutor,
                 lane: str) -> None:
        self._job = job
        self._pool = pool
        self._lane = lane
        self._finished: queue.SimpleQueue = queue.SimpleQueue()
        strips = getattr(job.layout, "sink", None) is not None
        self._in_order = deque() if strips else None

    def submit(self, cid: int, attempt: int, resplit: bool) -> None:
        tracer = self._job.tracer
        future = self._pool.submit(self._run, cid, attempt, resplit,
                                   tracer.now() if tracer.enabled else None)
        if self._in_order is not None:
            self._in_order.append(future)

    def _run(self, cid: int, attempt: int, resplit: bool, t_submit):
        if t_submit is not None:
            tracer = self._job.tracer
            tracer.add_span(f"queue_wait[{cid}]", "queue", t_submit,
                            tracer.now(), chunk=cid, lane=self._lane)
        outcome = (cid, attempt, self._job.attempt(cid, resplit))
        if self._in_order is None:
            self._finished.put(outcome)
        return outcome

    def next(self):
        if self._in_order is not None:
            return self._in_order.popleft().result()
        return self._finished.get()


class ThreadBackend:
    """Bounded-window thread pool per lane.

    numpy's vectorized kernels release the GIL, so threads overlap the
    heavy loops; the pure-python glue still serializes.  Cheapest to
    start — the right backend for tracing runs, small grids, and hosts
    where process startup dominates.  Completion handling runs on the
    lane thread only; cross-lane races are handled by the job's sink
    lock."""

    name = "thread"

    def execute(self, job: GridJob, lanes: Sequence[LaneSpec],
                lane_names: Sequence[str],
                window_of: Callable[[int], int]) -> None:
        run_lanes_concurrently(
            [partial(self._lane, job, ids, w, window_of(w), lane_names[i])
             for i, (ids, w) in enumerate(lanes)],
            lane_names)

    @staticmethod
    def _lane(job: GridJob, order: Sequence[int], workers: int,
              window: int, lane: str) -> None:
        try:
            pool = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix=f"{lane}-w"
            )
        except (RuntimeError, OSError) as exc:  # e.g. thread limit reached
            raise BackendUnavailable("thread", str(exc)) from exc
        try:
            drain_lane(job, _ThreadRunner(job, pool, lane), order, window,
                       lane)
        finally:
            # a failed lane drops its queued attempts; running ones finish
            pool.shutdown(wait=True, cancel_futures=True)


class _ProcessRunner:
    """Lane runner over a :class:`ProcessLanePool`: turns the pool's
    result messages into lane outcomes.

    The window caps outstanding result segments as well as in-flight
    compute: a segment exists from kernel completion in the worker until
    ``next`` consumes it, and at most ``window`` chunks can be past
    submission and unconsumed."""

    def __init__(self, job: GridJob, pool: ProcessLanePool,
                 lane: str) -> None:
        self._job = job
        self._pool = pool
        self._lane = lane
        self._parent_side: deque = deque()
        self._shipped = 0  # attempts owed by the workers

    def submit(self, cid: int, attempt: int, resplit: bool) -> None:
        if resplit:
            # oversized for the device pool: computed parent-side (in
            # ``next``) through the re-split path instead of shipping a
            # chunk to a worker that is known to overflow
            self._parent_side.append((cid, attempt))
            return
        job = self._job
        rp, cp = job.grid.panel_of(cid)
        self._pool.submit(cid, rp, cp,
                          time.perf_counter() if job.tracer.enabled else None,
                          attempt)
        self._shipped += 1

    def next(self):
        job = self._job
        if self._parent_side:
            cid, attempt = self._parent_side.popleft()
            return cid, attempt, job.attempt(cid, True)
        payload = self._pool.next_result()
        self._shipped -= 1
        if payload[0] == "hung":
            # the watchdog killed a worker whose heartbeat stalled (or
            # whose chunk overran its deadline)
            _tag, cid, attempt = payload
            return cid, attempt, ChunkTimeout(
                cid, attempt=attempt, deadline=job.deadline_seconds,
                reason="worker hung; killed by watchdog")
        if payload[0] == "err":
            _tag, cid, tb, attempt, ekind = payload
            if ekind == "DeviceOutOfMemory":
                return cid, attempt, DeviceOutOfMemory(
                    f"chunk {cid} overflowed the device pool in a worker")
            return cid, attempt, ChunkExecutionError(cid, attempt, tb)
        cid, desc, attempt = payload[1], payload[3], payload[7]
        if job.tracer.enabled:
            job.tracer.gauge(f"shm[{self._lane}]", result_bytes=desc.nbytes,
                             in_flight=self._shipped)
        try:
            return cid, attempt, self._consume(payload)
        except BaseException as exc:
            return cid, attempt, exc

    def _consume(self, payload):
        """Turn one worker result descriptor into ``on_done`` arguments:
        attach the shared result segment, copy the chunk out, unlink the
        segment, and merge the worker's trace spans/gauges."""
        _tag, cid, stats, desc, elapsed, spans, gauges, _attempt = payload
        shared = SharedCSR.attach(desc)
        try:
            matrix = shared.copy_matrix()
        finally:
            shared.close()
            shared.unlink()  # ownership transferred on handoff
        tracer = self._job.tracer
        if tracer.enabled:
            for name, cat, lane, raw_s, raw_e, args in spans:
                tracer.add_span(name, cat, tracer.rebase_raw(raw_s),
                                tracer.rebase_raw(raw_e), lane=lane, **args)
            for name, raw_ts, values in gauges:
                tracer.add_gauge(name, tracer.rebase_raw(raw_ts), **values)
        return cid, stats, matrix, elapsed


class ProcessBackend:
    """Worker processes with shared-memory operand transport (no GIL).

    Pools are created — and worker processes forked — on the *calling*
    (main) thread before any lane threads start: forking from a threaded
    process risks cloning held locks into the child."""

    name = "process"

    def execute(self, job: GridJob, lanes: Sequence[LaneSpec],
                lane_names: Sequence[str],
                window_of: Callable[[int], int]) -> None:
        tracer = job.tracer
        prefix = run_prefix()
        register_cleanup_prefix(prefix)
        segments: List[SharedCSR] = []
        pools: List[ProcessLanePool] = []
        try:
            # establishment phase: shared operands + worker pools.  A
            # failure here means *no* chunk has run — signalled as
            # BackendUnavailable so the engine can degrade to threads
            # instead of failing the run.
            try:
                # operand panels into shared memory, once per run
                def share(panels, count: int, tag: str) -> list:
                    descs = []
                    for i in range(count):
                        seg = SharedCSR.create(panels[i], f"{prefix}-{tag}{i}")
                        segments.append(seg)
                        descs.append(seg.descriptor)
                    return descs

                a_descs = share(job.row_panels, job.grid.num_row_panels, "a")
                b_descs = share(job.col_panels, job.grid.num_col_panels, "b")
                ctx = resolve_mp_context()
                faults_spec = job.faults.encode() if job.faults.enabled else None
                gov = job.governor
                heartbeat = gov.heartbeat_interval if gov is not None else None
                for i, (_ids, lane_workers) in enumerate(lanes):
                    pools.append(ProcessLanePool(
                        ctx, lane_workers, lane_names[i], a_descs, b_descs,
                        prefix, tracer.enabled,
                        kernel_spec=job.kernel.encode(),
                        crash_budget=job.crash_budget,
                        faults_spec=faults_spec,
                        on_event=job.note_respawn,
                        deadline=job.deadline_seconds,
                        heartbeat_interval=heartbeat,
                        is_done=lambda cid: job.stats_by_id[cid] is not None,
                    ))
                for pool in pools:
                    pool.wait_ready()
            except (WorkerCrashed, OSError) as exc:
                raise BackendUnavailable("process", str(exc)) from exc

            run_lanes_concurrently(
                [partial(drain_lane, job,
                         _ProcessRunner(job, pools[i], lane_names[i]),
                         ids, window_of(w), lane_names[i])
                 for i, (ids, w) in enumerate(lanes)],
                lane_names)
        finally:
            for pool in pools:
                pool.shutdown()
            for seg in segments:
                seg.close()
                seg.unlink()
            # reclaim stray per-chunk result segments (worker crash,
            # KeyboardInterrupt mid-drain, sink exception, ...)
            cleanup_segments(prefix)
            unregister_cleanup_prefix(prefix)
