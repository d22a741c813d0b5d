"""Deadline watchdog: per-chunk wall-clock budgets and hang detection.

Two cooperating mechanisms, one per execution model:

**In-process chunks** (serial / thread backends) cannot be preempted —
a lane thread stuck inside a numpy kernel holds no cancellation point.
The watchdog therefore uses *cooperative* deadlines: the engine arms a
chunk's deadline in a module-level registry before running its kernel
and the stage hook (the same hook the fault injector rides) calls
:func:`check_deadline` at every kernel phase boundary, raising
:class:`ChunkTimeout` once the budget is exceeded.  The injected
``hang`` fault action polls the registry from inside its sleep loop, so
a simulated hang is cancellable at millisecond granularity.  A *native*
hang inside one numpy call is only detectable at the next phase
boundary — preemption of arbitrary code needs the process backend.

**Worker-process chunks** (process backend) are preemptible: the parent
kills a hung worker outright.  Detection combines two signals read from
the shared-memory claims array (:mod:`repro.core.executor.procpool`):

* the *claim* slot says which chunk the worker holds and since when —
  exceeding the per-chunk ``deadline`` marks the worker hung;
* a *heartbeat* counter slot, incremented by a daemon thread in the
  worker every ``heartbeat_interval / 2`` seconds — a counter unchanged
  for longer than ``2 x heartbeat_interval`` marks the worker stalled
  (stopped, swapping, livelocked) even before its deadline expires.

Either way the worker is SIGKILLed, the chunk surfaces to the engine as
a :class:`ChunkTimeout` (retryable — the retry policy rules on the
requeue), and the pool respawns a replacement under the crash budget.

The registry is module-level on purpose: the fault injector fires deep
inside kernels with no handle on the engine.  Chunk ids are only unique
*within* a run, though — and the job server executes many runs
concurrently in one process — so entries are keyed by ``(executing
thread ident, chunk id)``.  Arming, checking, and disarming all happen
on the thread running the chunk's kernel (``GridJob._timed`` arms
immediately before the kernel call on the same lane thread that
executes it — once per attempt, so each pass of an in-place run gets
the full budget), so the thread ident disambiguates runs without any
handle being passed through the kernel stack.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Optional

__all__ = [
    "ChunkTimeout",
    "HeartbeatLease",
    "arm_deadline",
    "disarm_deadline",
    "check_deadline",
    "hang_until_cancelled",
]


class ChunkTimeout(RuntimeError):
    """A chunk exceeded its wall-clock deadline (or its worker hung).

    An ``Exception`` — the default retry predicate classifies it as
    retryable, so a policy with attempts left requeues the chunk.
    """

    def __init__(self, chunk_id: int, *, attempt: Optional[int] = None,
                 deadline: Optional[float] = None,
                 reason: str = "deadline exceeded") -> None:
        msg = f"chunk {chunk_id} timed out: {reason}"
        if deadline is not None:
            msg += f" (deadline {deadline:.3g}s)"
        if attempt is not None:
            msg += f" [attempt {attempt}]"
        super().__init__(msg)
        self.chunk_id = chunk_id
        self.attempt = attempt
        self.deadline = deadline


_lock = threading.Lock()
#: (executing thread ident, chunk id) -> (absolute monotonic deadline,
#: configured budget seconds).  Thread-keyed so concurrent runs sharing
#: chunk ids (the job server) cannot trip each other's deadlines.
_armed: Dict[tuple, tuple] = {}


def _key(chunk_id: int) -> tuple:
    return (threading.get_ident(), chunk_id)


def arm_deadline(chunk_id: int, deadline_seconds: float) -> None:
    """Start chunk ``chunk_id``'s wall-clock budget now (on this thread)."""
    with _lock:
        _armed[_key(chunk_id)] = (time.monotonic() + deadline_seconds,
                                  deadline_seconds)


def disarm_deadline(chunk_id: int) -> None:
    with _lock:
        _armed.pop(_key(chunk_id), None)


def check_deadline(chunk_id: int) -> None:
    """Raise :class:`ChunkTimeout` if the chunk's armed deadline passed.

    A no-op for unarmed chunks (workers never arm — the parent-side
    watchdog preempts them instead)."""
    with _lock:
        entry = _armed.get(_key(chunk_id))
    if entry is not None and time.monotonic() > entry[0]:
        raise ChunkTimeout(chunk_id, deadline=entry[1])


class HeartbeatLease:
    """Liveness lease over observed heartbeats — the one stall rule for
    both kinds of watched peer: a pool worker, whose counter the parent
    *reads* from its shared-memory claims slot
    (:mod:`repro.core.executor.procpool`), and a remote shard worker,
    which *pushes* ``hb`` frames over its socket
    (:mod:`repro.distributed.transport.pool`).

    The watcher calls :meth:`beat` on each sign of life (an advanced
    counter, a heartbeat frame, a result chunk) and :meth:`expired`
    whenever its polls come back empty.  A lease silent for longer than
    ``interval x grace`` is expired: the peer is presumed stalled
    (stopped, swapping, wedged mid-send) even though its process or
    connection may still be there.

    ``beat`` optionally takes the peer's monotonically increasing
    counter; a regression (a stale frame from before a reconnect)
    renews the lease — bytes did arrive — but is counted in
    ``regressions`` for diagnostics.  Not thread-safe: one lease
    belongs to the single thread watching its peer.
    """

    def __init__(self, interval_seconds: float, *, grace: float = 3.0) -> None:
        if interval_seconds <= 0:
            raise ValueError("heartbeat interval must be > 0")
        if grace < 1.0:
            raise ValueError("grace must be >= 1 (a fraction of the "
                             "interval cannot distinguish jitter from death)")
        self.interval_seconds = float(interval_seconds)
        self.deadline_seconds = float(interval_seconds) * float(grace)
        self.beats = 0
        self.regressions = 0
        self.counter = 0  # highest peer counter seen
        self._last = time.monotonic()

    def beat(self, counter: Optional[int] = None) -> None:
        """Renew the lease (peer activity observed now)."""
        self._last = time.monotonic()
        self.beats += 1
        if counter is not None:
            if counter <= self.counter:
                self.regressions += 1
            self.counter = max(self.counter, int(counter))

    def remaining(self, now: Optional[float] = None) -> float:
        """Seconds of lease left (negative once expired)."""
        now = time.monotonic() if now is None else now
        return self._last + self.deadline_seconds - now

    def expired(self, now: Optional[float] = None) -> bool:
        return self.remaining(now) < 0

    def reset(self) -> None:
        """Re-arm after a reconnect (the silent gap was the *old*
        connection's; the new one starts with a full lease)."""
        self._last = time.monotonic()


def hang_until_cancelled(chunk_id: int, cap_seconds: float,
                         poll_seconds: float = 0.005) -> None:
    """The ``hang`` fault action: stall until cancelled (or the cap).

    In-process the stall ends with a :class:`ChunkTimeout` as soon as
    the chunk's armed deadline passes; in a worker process nothing is
    armed, so the worker sleeps until the parent watchdog kills it.
    ``cap_seconds`` is a failsafe so a hang injected without any
    watchdog configured cannot stall a run forever.
    """
    end = time.monotonic() + cap_seconds
    while True:
        check_deadline(chunk_id)
        remaining = end - time.monotonic()
        if remaining <= 0:
            return
        time.sleep(min(poll_seconds, remaining))
