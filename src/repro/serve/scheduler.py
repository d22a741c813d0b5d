"""Cross-job admission control and weighted fair queueing.

The single-run governor polices *chunks* of one run; the server needs
the same discipline one level up, across concurrent *jobs*:

* **admission** reuses :class:`~repro.core.governor.hostmem.\
HostMemoryGovernor` verbatim as a jobs-keyed byte ledger.  Each job is
  charged its peak footprint — operands plus the output at its ceiling,
  or at a sampled estimate when the ceiling is large against the budget
  (:func:`~repro.serve.server.price_job`) —
  before it may start, so N concurrent jobs can never overcommit the
  node's host-memory budget.  The governor's ``host_mem`` gauge stream
  is emitted on the scheduler's tracer, which is how the no-overcommit
  tests assert the ceiling held.  The minimum-progress escape carries
  over too: a job larger than the whole budget runs alone (counted in
  ``overcommits``) instead of deadlocking the queue.
* **ordering** is start-time weighted fair queueing.  Every tenant has
  a :class:`TenantQuota` with a *weight*; a job's virtual finish time is
  ``max(queue vtime, tenant's last finish) + cost / weight``, and the
  dispatch loop always starts the eligible job with the smallest
  virtual finish.  Cost is the same ``cost_bytes`` admission
  charges, so a tenant submitting huge jobs advances its virtual clock
  faster and yields the node to lighter tenants — weighted max-min
  fairness in bytes, not job counts.  Per-tenant ``max_concurrent``
  bounds how many of one tenant's jobs hold slots at once and
  ``max_queued`` bounds its backlog (excess submissions are rejected
  up front, the only non-queue outcome).

The scheduler runs a plain background thread (no event-loop coupling —
the asyncio server talks to it through thread-safe calls and receives
events via a thread-safe callback), dispatching jobs onto a shared
bounded :class:`~concurrent.futures.ThreadPoolExecutor`; each job's run
is re-entrant engine work with per-run tracer/governor state, so many
grids execute concurrently in one process.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.governor.hostmem import HostMemoryGovernor
from .jobs import JobRecord, JobState

__all__ = ["TenantQuota", "FairQueue", "JobScheduler"]

#: default cross-job host-memory budget (matches the paper's assembly
#: budget scaled to test hosts; ``repro serve`` exposes --host-mem)
DEFAULT_HOST_BUDGET = 2 << 30


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant scheduling contract."""

    weight: float = 1.0        # fair-queue share (bigger = more bytes/sec)
    max_concurrent: int = 4    # jobs of this tenant running at once
    max_queued: int = 256      # backlog bound; beyond it submissions reject

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError("tenant weight must be > 0")
        if self.max_concurrent < 1 or self.max_queued < 1:
            raise ValueError("tenant quotas must be >= 1")


class FairQueue:
    """Start-time weighted fair queue of job records.

    Not thread-safe on its own — the scheduler serializes access under
    its condition lock.  ``pop_eligible`` returns the smallest-virtual-
    finish job whose tenant passes the caller's eligibility predicate,
    leaving ineligible jobs queued in order.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, JobRecord]] = []
        self._seq = itertools.count()
        self.vtime = 0.0
        self._tenant_vf: Dict[str, float] = {}

    def __len__(self) -> int:
        return len(self._heap)

    def queued_for(self, tenant: str) -> int:
        return sum(1 for _, _, r in self._heap if r.spec.tenant == tenant)

    def push(self, record: JobRecord, cost: float, weight: float) -> float:
        """Enqueue with virtual finish ``max(vtime, tenant vf) + cost/weight``
        (returned, mainly for tests)."""
        start = max(self.vtime, self._tenant_vf.get(record.spec.tenant, 0.0))
        vf = start + max(cost, 1.0) / weight
        self._tenant_vf[record.spec.tenant] = vf
        heapq.heappush(self._heap, (vf, next(self._seq), record))
        return vf

    def requeue_front(self, item: Tuple[float, int, JobRecord]) -> None:
        """Put back a popped-but-not-dispatched job with its original
        virtual finish (admission denied; it stays at the head)."""
        heapq.heappush(self._heap, item)

    def pop_eligible(
        self, eligible: Callable[[JobRecord], bool]
    ) -> Optional[Tuple[float, int, JobRecord]]:
        """Pop the lowest-virtual-finish job with ``eligible(record)``.

        Skipped (ineligible) jobs keep their positions.  Advances the
        queue's virtual time to the popped job's virtual finish."""
        skipped: List[Tuple[float, int, JobRecord]] = []
        found = None
        while self._heap:
            item = heapq.heappop(self._heap)
            if eligible(item[2]):
                found = item
                break
            skipped.append(item)
        for item in skipped:
            heapq.heappush(self._heap, item)
        if found is not None:
            self.vtime = max(self.vtime, found[0])
        return found


class JobScheduler:
    """Admission + fair dispatch of jobs onto a shared worker pool.

    ``runner(record)`` executes one job synchronously on a pool thread
    (the server supplies it); it must set the record's terminal state
    and never raise.  ``on_event(record, event)`` is the thread-safe
    progress callback (events: ``admitted``, ``started`` are emitted
    here; the runner emits ``chunk`` and terminal events itself).
    """

    def __init__(
        self,
        runner: Callable[[JobRecord], None],
        *,
        slots: int = 4,
        host_budget_bytes: int = DEFAULT_HOST_BUDGET,
        quotas: Optional[Dict[str, TenantQuota]] = None,
        default_quota: Optional[TenantQuota] = None,
        on_event: Optional[Callable[[JobRecord, Dict[str, Any]], None]] = None,
        tracer=None,
    ) -> None:
        if slots < 1:
            raise ValueError("scheduler needs >= 1 slots")
        self._runner = runner
        self.slots = int(slots)
        self.hostmem = HostMemoryGovernor(host_budget_bytes, tracer=tracer)
        self.quotas = dict(quotas or {})
        self.default_quota = default_quota or TenantQuota()
        self._on_event = on_event
        self._cond = threading.Condition()
        self._queue = FairQueue()
        self._running: Dict[int, JobRecord] = {}
        self._running_by_tenant: Dict[str, int] = {}
        self._pool = ThreadPoolExecutor(
            max_workers=self.slots, thread_name_prefix="serve-job")
        self._thread: Optional[threading.Thread] = None
        self._stopped = False
        self.submitted = 0
        self.rejected = 0
        self.completed = 0
        self.failed = 0

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def quota_for(self, tenant: str) -> TenantQuota:
        return self.quotas.get(tenant, self.default_quota)

    def _emit(self, record: JobRecord, event: Dict[str, Any]) -> None:
        if self._on_event is not None:
            try:
                self._on_event(record, event)
            except Exception:
                pass

    # ------------------------------------------------------------------
    # submission (any thread)
    # ------------------------------------------------------------------
    def submit(self, record: JobRecord) -> Tuple[bool, Optional[str]]:
        """Enqueue one job.  Returns ``(accepted, reject_reason)`` —
        the only refusal is a tenant exceeding its ``max_queued``."""
        quota = self.quota_for(record.spec.tenant)
        with self._cond:
            if self._stopped:
                return False, "scheduler is shut down"
            if self._queue.queued_for(record.spec.tenant) >= quota.max_queued:
                self.rejected += 1
                record.state = JobState.REJECTED
                record.error = (
                    f"tenant {record.spec.tenant!r} backlog exceeds "
                    f"max_queued={quota.max_queued}"
                )
                return False, record.error
            self.submitted += 1
            self._queue.push(record, float(record.cost_bytes), quota.weight)
            self._cond.notify_all()
        return True, None

    # ------------------------------------------------------------------
    # dispatch loop (own thread)
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._loop, name="serve-scheduler", daemon=True
            )
            self._thread.start()

    def _eligible(self, record: JobRecord) -> bool:
        quota = self.quota_for(record.spec.tenant)
        return (self._running_by_tenant.get(record.spec.tenant, 0)
                < quota.max_concurrent)

    def _loop(self) -> None:
        while True:
            with self._cond:
                while not self._stopped and not self._dispatchable():
                    self._cond.wait(0.05)
                if self._stopped:
                    return
                item = self._queue.pop_eligible(self._eligible)
                if item is None:
                    continue
                record = item[2]
                # jobs-keyed ledger: reserve the priced footprint,
                # non-blocking while jobs run (the loop keeps serving
                # other tenants).  An idle node's ledger is empty — a
                # job releases before it leaves _running — so
                # may_wait=True returns at once: the minimum-progress
                # escape, a counted overcommit if it does not fit.
                ok = self.hostmem.admit(record.job_id, record.cost_bytes,
                                        may_wait=not self._running)
                if not ok:
                    self._queue.requeue_front(item)
                    self._cond.wait(0.05)
                    continue
                with record.lock:
                    record.state = JobState.ADMITTED
                self._running[record.job_id] = record
                tenant = record.spec.tenant
                self._running_by_tenant[tenant] = (
                    self._running_by_tenant.get(tenant, 0) + 1
                )
            self._emit(record, {"event": "admitted",
                                "job_id": record.job_id,
                                "reserved_bytes": record.cost_bytes})
            self._pool.submit(self._run_one, record)

    def _dispatchable(self) -> bool:
        return len(self._queue) > 0 and len(self._running) < self.slots

    def _run_one(self, record: JobRecord) -> None:
        self._emit(record, {"event": "started", "job_id": record.job_id})
        try:
            self._runner(record)
        except Exception as exc:  # the runner's own guard failed
            with record.lock:
                record.state = JobState.FAILED
                record.error = f"{type(exc).__name__}: {exc}"
        finally:
            self.hostmem.release(record.job_id)
            with self._cond:
                self._running.pop(record.job_id, None)
                tenant = record.spec.tenant
                left = self._running_by_tenant.get(tenant, 1) - 1
                if left > 0:
                    self._running_by_tenant[tenant] = left
                else:
                    self._running_by_tenant.pop(tenant, None)
                if record.state is JobState.FAILED:
                    self.failed += 1
                else:
                    self.completed += 1
                self._cond.notify_all()

    # ------------------------------------------------------------------
    # introspection / lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        with self._cond:
            return {
                "slots": self.slots,
                "queued": len(self._queue),
                "running": len(self._running),
                "submitted": self.submitted,
                "rejected": self.rejected,
                "completed": self.completed,
                "failed": self.failed,
                "host_budget_bytes": self.hostmem.budget_bytes,
                "host_reserved_bytes": self.hostmem.reserved_bytes(),
                "host_peak_bytes": self.hostmem.peak_bytes,
                "overcommits": self.hostmem.overcommits,
            }

    def wait_idle(self, timeout: float = 30.0) -> bool:
        """Block until queue and slots drain (tests / bench)."""
        end = time.monotonic() + timeout
        with self._cond:
            while len(self._queue) or self._running:
                remaining = end - time.monotonic()
                if remaining <= 0:
                    return False
                self._cond.wait(min(remaining, 0.05))
        return True

    def stop(self) -> None:
        with self._cond:
            self._stopped = True
            self._cond.notify_all()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self._pool.shutdown(wait=True)
