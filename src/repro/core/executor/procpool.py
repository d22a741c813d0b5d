"""Parent-side process-pool lifecycle for the process executor backend.

A :class:`ProcessLanePool` owns the worker processes of one lane: it
starts them eagerly (so the fork happens from the main thread, *before*
any lane threads run — forking from a threaded process risks inheriting
held locks), waits for every worker to report that it attached the
shared operand segments, and then exchanges small task/result tuples
over a pair of queues.

Start method: ``fork`` where available (Linux; instant startup, and the
shared-memory design keeps it correct under ``spawn`` too), else
``spawn``.  Override with ``REPRO_MP_CONTEXT=fork|spawn|forkserver``.

Failure model — self-healing up to a crash budget:

* workers are daemonic (they die with the parent) and the parent never
  blocks indefinitely — :meth:`next_result` polls with a timeout and
  checks liveness between polls;
* each worker announces the chunk it dequeues (a ``start`` message), so
  when a worker dies the pool knows exactly which chunk was in flight;
* on a worker death within the ``crash_budget``, the pool sweeps the
  dead attempt's stray result segment, **requeues** the in-flight chunk
  (with a bumped attempt number, so segment names never collide), and
  **respawns** a replacement worker against the *existing* shared-memory
  operands — re-attachment is cheap, the operand copy is not repeated;
* once more workers have died than the budget allows,
  :class:`WorkerCrashed` is raised and the run aborts (the default
  budget is 0: any crash is fatal, the pre-existing behaviour).  All
  shared segments are then reclaimed by the caller's run-prefix sweep.

Two structural defenses make hard kills survivable:

* results (and the ``start`` announces) ride a ``SimpleQueue``, whose
  ``put`` writes the pipe synchronously from the worker's main thread —
  no feeder thread exists to be killed mid-write or while holding the
  shared write lock, so a dying worker can neither corrupt the result
  pipe nor silently drop messages it already sent;
* the in-flight claim additionally lives in a shared-memory **claims
  array** (one slot per worker ever spawned): a plain store cannot be
  lost, so the parent knows which chunk a dead worker held even when the
  kill lands between dequeuing a task and announcing it.  The only
  remaining window is the few instructions between ``task_q.get``
  returning and the claim store — reachable by an external ``SIGKILL``
  only, never by any in-pipeline kill point.

A crashed worker's already-queued result may still be delivered *after*
its chunk was requeued; :meth:`next_result` drops such stale duplicates
(and reclaims their result segments) by accepting only results for
chunks still registered in-flight.
"""

from __future__ import annotations

import contextlib
import itertools
import multiprocessing as mp
import os
import time
from collections import deque
from multiprocessing import resource_tracker as _resource_tracker
from typing import Callable, Deque, Dict, List, Optional, Tuple

from ...sparse.shm import cleanup_segments
from ..governor.watchdog import HeartbeatLease
from .procworker import worker_main

__all__ = ["WorkerCrashed", "ProcessLanePool", "resolve_mp_context"]


def _tracker_lock():
    """CPython's process-global resource-tracker lock, if it has one.

    Every ``SharedMemory`` create/attach/unlink serializes on this lock.
    With concurrent runs (sharded execution drives N process pools from
    N threads), a worker fork can land while *another* run's thread
    holds it mid-register — the child inherits the lock permanently
    held and deadlocks on its first segment attach ("workers not ready").
    """
    tracker = getattr(_resource_tracker, "_resource_tracker", None)
    lock = getattr(tracker, "_lock", None)
    return lock if lock is not None and hasattr(lock, "acquire") else None


@contextlib.contextmanager
def _quiesced_tracker_fork():
    """Hold the resource-tracker lock across a worker fork.

    While held, no sibling thread can be mid-register/unregister, so the
    fork happens at a tracker-protocol message boundary.  The child's
    inherited copy of the lock *is* held — :func:`_reinit_tracker_lock`
    below (an ``at_fork`` child handler) replaces it with a fresh one.
    """
    _resource_tracker.ensure_running()
    lock = _tracker_lock()
    if lock is None:  # future interpreters: fall through, fork unguarded
        yield
        return
    with lock:
        yield


def _reinit_tracker_lock() -> None:
    tracker = getattr(_resource_tracker, "_resource_tracker", None)
    if tracker is not None and hasattr(tracker, "_lock"):
        # same lock flavour the interpreter chose (Lock on 3.11, RLock
        # on newer), so tracker-internal reentrancy assumptions hold
        tracker._lock = type(tracker._lock)()


if hasattr(os, "register_at_fork"):  # absent on Windows (spawn-only)
    os.register_at_fork(after_in_child=_reinit_tracker_lock)

#: seconds granted to workers to import + attach before startup fails
READY_TIMEOUT = 60.0
#: polling step while waiting on results (liveness is checked between polls)
POLL_SECONDS = 0.2
#: floor on the poll step when a watchdog tightens it
MIN_POLL_SECONDS = 0.01
#: a worker whose heartbeat has not advanced for this many intervals
#: while it holds a claim is declared hung and killed
HEARTBEAT_GRACE = 2.0


class WorkerCrashed(RuntimeError):
    """Worker process death exceeded the pool's crash budget."""


def resolve_mp_context(method: Optional[str] = None):
    """The multiprocessing context the process backend uses."""
    method = method or os.environ.get("REPRO_MP_CONTEXT")
    if method is None:
        method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
    return mp.get_context(method)


class ProcessLanePool:
    """The persistent worker processes of one executor lane.

    ``crash_budget`` is the number of worker deaths the pool absorbs by
    requeue + respawn before raising :class:`WorkerCrashed`;
    ``faults_spec`` (an encoded :class:`~.faults.FaultInjector` string)
    is handed to every worker — including respawned ones — so injected
    faults survive respawn under any start method; ``on_event`` is
    called as ``on_event(lane_name, worker_name, chunk_id, exitcode,
    kind=...)`` for every absorbed worker replacement (the engine
    records a respawn span); ``kind`` distinguishes hard crashes,
    watchdog timeout kills, and *stale* deaths — a worker dying after
    its chunk's result was already delivered, which costs a respawn but
    neither a requeue nor crash-budget charge.

    Watchdog (``deadline`` / ``heartbeat_interval``): the claims array
    is doubled — slot ``i`` holds worker ``i``'s in-flight chunk id,
    slot ``i + half`` its heartbeat counter, incremented by a daemon
    thread in the worker.  Between result polls the parent kills any
    worker that (a) has held one claim longer than ``deadline`` seconds
    or (b) whose heartbeat has not advanced for ``HEARTBEAT_GRACE x
    heartbeat_interval`` while claimed (a
    :class:`~repro.core.governor.watchdog.HeartbeatLease` per claim).
    A timeout kill charges the
    crash budget and surfaces as a ``("hung", cid, attempt)`` message
    from :meth:`next_result` — the caller's retry policy, not the pool,
    decides whether the chunk is requeued.
    """

    def __init__(
        self,
        ctx,
        workers: int,
        lane_name: str,
        a_descs,
        b_descs,
        out_prefix: str,
        trace_enabled: bool,
        *,
        kernel_spec: Optional[str] = None,
        crash_budget: int = 0,
        faults_spec: Optional[str] = None,
        on_event: Optional[Callable[..., None]] = None,
        deadline: Optional[float] = None,
        heartbeat_interval: Optional[float] = None,
        is_done: Optional[Callable[[int], bool]] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if crash_budget < 0:
            raise ValueError("crash_budget must be >= 0")
        self.lane_name = lane_name
        self._ctx = ctx
        self._task_q = ctx.Queue()
        # results ride a SimpleQueue on purpose: its put() writes the
        # pipe synchronously from the *calling* thread, with no feeder
        # thread.  A worker hard-killed at any in-pipeline kill point
        # therefore cannot die mid-write or while holding the queue's
        # write lock (which would poison the pipe for every survivor) —
        # every message a worker sent before dying is fully delivered.
        self._result_q = ctx.SimpleQueue()
        self._out_prefix = out_prefix
        self._crash_budget = crash_budget
        self._crashes = 0
        self._on_event = on_event
        self._deadline = deadline
        self._heartbeat = heartbeat_interval
        self._is_done = is_done
        # results may wait up to a full poll step, so a watchdog tightens
        # the polling cadence to stay responsive at small intervals
        step = POLL_SECONDS
        if deadline is not None:
            step = min(step, deadline / 4.0)
        if heartbeat_interval is not None:
            step = min(step, heartbeat_interval / 2.0)
        self._poll_step = max(step, MIN_POLL_SECONDS)
        self._spawn_args = (a_descs, b_descs, out_prefix, trace_enabled,
                            kernel_spec, faults_spec, heartbeat_interval)
        self._serial = itertools.count()   # claim-slot allocator
        self._spawn_seq = itertools.count()  # unique worker naming
        self._free_slots: List[int] = []
        self._procs: List[mp.Process] = []
        #: worker name -> chunk id it announced (None while idle)
        self._running: Dict[str, Optional[int]] = {}
        #: worker name -> its slot in the shared claims array
        self._slots: Dict[str, int] = {}
        #: chunk id -> last submitted task tuple, for crash requeue
        self._tasks: Dict[int, Tuple] = {}
        #: watchdog kills waiting to surface via next_result
        self._hung: Deque[Tuple[int, int]] = deque()
        #: worker name -> (claimed cid, claim first seen at, heartbeat
        #: lease or None when only the deadline is watched)
        self._watch: Dict[str, Tuple] = {}
        # crash-proof in-flight claims, doubled for heartbeats: slot i
        # holds the chunk id worker-slot i is processing (-1 = idle),
        # slot i + half its heartbeat counter.  Dead workers' slots are
        # recycled, so workers + crash_budget slots bound the concurrently
        # live set even though stale respawns are not budget-charged.
        self._claim_slots = workers + crash_budget
        self._claims = ctx.Array("i", 2 * self._claim_slots, lock=False)
        for i in range(self._claim_slots):
            self._claims[i] = -1
        for _ in range(workers):
            self._spawn_worker()

    def _spawn_worker(self) -> mp.Process:
        if self._free_slots:
            slot = self._free_slots.pop()
        else:
            slot = next(self._serial)
        name = f"{self.lane_name}-p{next(self._spawn_seq)}"
        proc = self._ctx.Process(
            target=worker_main,
            args=(name, self._task_q, self._result_q) + self._spawn_args
            + (slot, self._claims),
            name=name,
            daemon=True,
        )
        with _quiesced_tracker_fork():
            proc.start()
        self._procs.append(proc)
        self._running[name] = None
        self._slots[name] = slot
        return proc

    def wait_ready(self, timeout: float = READY_TIMEOUT) -> None:
        """Block until every worker attached its operand segments."""
        deadline = time.monotonic() + timeout
        ready = 0
        while ready < len(self._procs):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise WorkerCrashed(
                    f"lane {self.lane_name!r}: workers not ready after "
                    f"{timeout:.0f}s ({ready}/{len(self._procs)})"
                )
            if not self._poll_result(min(remaining, POLL_SECONDS)):
                self._check_alive()
                continue
            msg = self._result_q.get()
            if msg[0] == "ready":
                ready += 1
            elif msg[0] == "init_err":
                raise WorkerCrashed(
                    f"worker {msg[1]} failed to initialize:\n{msg[2]}"
                )
            else:  # pragma: no cover - workers only init before tasks
                raise WorkerCrashed(f"unexpected startup message {msg[0]!r}")

    def _poll_result(self, timeout: float) -> bool:
        """Whether a result message is readable within ``timeout`` seconds.

        ``SimpleQueue`` exposes no timed ``get``; polling the underlying
        connection keeps the liveness checks between waits."""
        return self._result_q._reader.poll(timeout)

    def submit(self, cid: int, rp: int, cp: int,
               t_submit_raw: Optional[float], attempt: int = 1) -> None:
        task = (cid, rp, cp, t_submit_raw, attempt)
        self._tasks[cid] = task
        self._task_q.put(task)

    def next_result(self) -> Tuple:
        """The next terminal chunk message — an ``("ok", ...)`` result
        payload, an ``("err", cid, traceback, attempt, exc_type)``
        failure, or a ``("hung", cid, attempt)`` watchdog kill, for the
        caller's retry policy to rule on.  Raises :class:`WorkerCrashed`
        once worker deaths exceed the budget.
        """
        while True:
            if self._hung:
                return ("hung",) + self._hung.popleft()
            if not self._poll_result(self._poll_step):
                self._check_alive()
                self._check_watchdog()
                continue
            msg = self._result_q.get()
            kind = msg[0]
            if kind == "start":
                self._running[msg[2]] = msg[1]
                continue
            if kind == "ready":        # a respawned worker coming online
                continue
            if kind in ("ok", "err"):
                cid = msg[1]
                attempt = msg[7] if kind == "ok" else msg[3]
                task = self._tasks.get(cid)
                if task is None or task[4] != attempt:
                    # stale result: a crashed worker's buffered message
                    # surfacing after its chunk was requeued (its segment
                    # was swept then) or after the redo already delivered.
                    # Drop it, reclaiming any orphan segment.
                    if kind == "ok":
                        cleanup_segments(f"{self._out_prefix}-o{cid}.{attempt}")
                    continue
                self._task_done(cid)
                return msg
            raise WorkerCrashed(f"unexpected worker message {msg[0]!r}")

    def _task_done(self, cid: int) -> None:
        self._tasks.pop(cid, None)
        for name, running_cid in self._running.items():
            if running_cid == cid:
                self._running[name] = None

    def _check_alive(self) -> None:
        """Detect dead workers; requeue their chunks and respawn within
        the crash budget, raise :class:`WorkerCrashed` beyond it.

        Deaths are classified first: a *stale* death — the worker's
        claimed chunk was already delivered (buffered result, consumed
        result, or durably checkpointed per ``is_done``) — costs a
        respawn but neither a requeue nor a crash-budget charge, so a
        worker dying on its way down after handing over its result can
        never fail an otherwise-complete run."""
        dead = [p for p in self._procs if not p.is_alive()]
        if not dead:
            return
        # drain buffered messages first: a result (or start announce) may
        # have been queued before the death, changing what needs requeue
        buffered = []
        while self._poll_result(0):
            msg = self._result_q.get()
            if msg[0] == "start":
                self._running[msg[2]] = msg[1]
            else:
                buffered.append(msg)
        delivered = {m[1] for m in buffered if m[0] in ("ok", "err")}

        plans = []
        for proc in dead:
            # the shared claims array is the authority on what the dead
            # worker held: a queue announce can be lost to an unflushed
            # feeder thread, a shared-memory store cannot
            slot = self._slots[proc.name]
            cid = self._claims[slot] if self._claims[slot] >= 0 else None
            stale = cid is not None and (
                cid in delivered
                or self._tasks.get(cid) is None
                or (self._is_done is not None and self._is_done(cid))
            )
            plans.append((proc, slot, cid, stale))

        self._crashes += sum(1 for _, _, _, stale in plans if not stale)
        if self._crashes > self._crash_budget:
            # buffered results are dropped: the run is aborting, and the
            # caller's prefix sweep reclaims the segments they point at
            codes = {p.name: p.exitcode for p in dead}
            raise WorkerCrashed(
                f"lane {self.lane_name!r}: worker crash budget exhausted "
                f"({self._crashes} > {self._crash_budget}); dead: {codes}"
            )

        for proc, slot, cid, stale in plans:
            self._retire(proc, slot)
            if stale:
                # nothing to requeue — the chunk's result already made
                # it out; sweep any segment a duplicate attempt leaked
                if cid not in delivered:
                    cleanup_segments(f"{self._out_prefix}-o{cid}.")
            elif cid is not None:
                task = self._tasks.get(cid)
                if task is not None:
                    # the crashed attempt may have created (and leaked)
                    # its result segment; sweep it before the redo
                    cleanup_segments(f"{self._out_prefix}-o{cid}.{task[4]}")
                    redo = task[:4] + (task[4] + 1,)
                    self._tasks[cid] = redo
                    self._task_q.put(redo)
            self._spawn_worker()
            if self._on_event is not None:
                self._on_event(self.lane_name, proc.name, cid, proc.exitcode,
                               kind="stale" if stale else "crash")

        for msg in buffered:
            self._result_q.put(msg)

    def _retire(self, proc, slot: int) -> None:
        """Drop a dead worker from the books and recycle its claim slot."""
        self._procs.remove(proc)
        self._running.pop(proc.name, None)
        self._watch.pop(proc.name, None)
        self._slots.pop(proc.name, None)
        self._claims[slot] = -1
        self._claims[slot + self._claim_slots] = 0
        self._free_slots.append(slot)

    # ------------------------------------------------------------------
    # hang watchdog
    # ------------------------------------------------------------------
    def _check_watchdog(self) -> None:
        """Kill workers that overran the chunk deadline or whose
        heartbeat stalled while holding a claim."""
        if self._deadline is None and self._heartbeat is None:
            return
        now = time.monotonic()
        half = self._claim_slots
        for proc in list(self._procs):
            slot = self._slots.get(proc.name)
            if slot is None:
                continue
            cid = self._claims[slot]
            if cid < 0:
                self._watch.pop(proc.name, None)
                continue
            st = self._watch.get(proc.name)
            if st is None or st[0] != cid:
                lease = None if self._heartbeat is None else HeartbeatLease(
                    self._heartbeat, grace=HEARTBEAT_GRACE)
                st = self._watch[proc.name] = (cid, now, lease)
            _cid, claimed_at, lease = st
            beat = self._claims[slot + half]
            if lease is not None and beat > lease.counter:
                lease.beat(beat)
            overdue = (self._deadline is not None
                       and now - claimed_at >= self._deadline)
            stalled = lease is not None and lease.expired(now)
            if overdue or stalled:
                self._kill_hung(proc, slot, cid,
                                "deadline" if overdue else "heartbeat")

    def _kill_hung(self, proc, slot: int, cid: int, why: str) -> None:
        """Kill one hung worker: charge the crash budget, surface a
        ``("hung", cid, attempt)`` message, respawn a replacement.  The
        chunk is *not* auto-requeued — the caller's retry policy rules."""
        proc.kill()
        proc.join(timeout=READY_TIMEOUT)
        self._crashes += 1
        if self._crashes > self._crash_budget:
            raise WorkerCrashed(
                f"lane {self.lane_name!r}: hung worker {proc.name} "
                f"({why}) exhausted the crash budget "
                f"({self._crashes} > {self._crash_budget})"
            )
        task = self._tasks.pop(cid, None)
        attempt = task[4] if task is not None else 1
        # the hung attempt may have created its result segment already
        cleanup_segments(f"{self._out_prefix}-o{cid}.{attempt}")
        self._retire(proc, slot)
        self._hung.append((cid, attempt))
        self._spawn_worker()
        if self._on_event is not None:
            self._on_event(self.lane_name, proc.name, cid, proc.exitcode,
                           kind="timeout")

    def shutdown(self, join_timeout: float = 2.0) -> None:
        """Stop workers: sentinel first, then terminate stragglers."""
        for _ in self._procs:
            try:
                self._task_q.put_nowait(None)
            except Exception:
                break
        for p in self._procs:
            p.join(timeout=join_timeout)
        for p in self._procs:
            if p.is_alive():
                p.terminate()
                p.join(timeout=join_timeout)
        self._task_q.cancel_join_thread()
        self._task_q.close()
        self._result_q.close()
