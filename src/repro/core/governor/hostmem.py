"""Host-memory admission control with backpressure and spill-under-pressure.

The paper assembles arriving chunks in 128 GB of host memory; nothing in
the pipeline *enforced* that budget.  :class:`HostMemoryGovernor` does:
it maintains a byte ledger of

* **in-flight reservations** — an upper-bound estimate of every chunk
  currently past dispatch but not yet released (its kernel may be
  running in a worker, its result segment may be awaiting consumption,
  its sink write may be in progress), plus
* **stored bytes** — what an attached chunk store currently holds in
  host memory,

and admits a new dispatch only while ``reserved + stored + estimate``
stays within the budget.  When it does not, the governor first tries to
*make room*: an attached spill-capable store (see
:class:`~repro.core.spill.SpillableChunkStore`) is asked to migrate
chunks to disk.  If pressure persists, the dispatching lane blocks —
backpressure — until completions release reservations.

Deadlock freedom / minimum progress: a lane that holds no reservation
of its own and observes *no* reservations anywhere is admitted
unconditionally (after a final spill attempt) even if the estimate
alone exceeds the budget — one chunk must always be able to run, and a
single chunk larger than the budget is a planning error the run should
surface by completing, not by hanging.  Such forced admissions are
counted (``overcommits``) and visible in the gauges.

Estimates are upper bounds (``csr_bytes`` of the chunk's flop-derived
worst-case output), so the enforced ceiling is conservative; the
``host_mem`` gauge stream records ``reserved`` / ``stored`` / ``budget``
after every transition, which is how tests assert the budget was never
exceeded.
"""

from __future__ import annotations

import threading
from typing import Dict, Hashable, List

from ...observability import as_tracer

__all__ = ["HostMemoryGovernor", "ScopedLedger"]

#: seconds between forced re-evaluations while blocked on admission —
#: a safety net against a missed notify, not the primary wake-up path
_WAIT_STEP = 0.05


class HostMemoryGovernor:
    """Byte-budget admission control shared by every lane of one run."""

    def __init__(self, budget_bytes: int, *, tracer=None) -> None:
        if budget_bytes < 1:
            raise ValueError("host memory budget must be >= 1 byte")
        self.budget_bytes = int(budget_bytes)
        self._cond = threading.Condition()
        # reservation key -> reserved bytes.  Keys are chunk ids for a
        # single run, job ids for the serve scheduler, and
        # ``(namespace, chunk_id)`` tuples for scoped shard views — any
        # hashable works, the ledger only sums the values.
        self._reserved: Dict[Hashable, int] = {}
        self._stores: List[object] = []
        self._tracer = as_tracer(tracer)
        self.overcommits = 0
        self.spill_requests = 0
        self.peak_bytes = 0  # max(reserved + stored) ever observed

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def bind_tracer(self, tracer) -> None:
        self._tracer = as_tracer(tracer)

    def attach_store(self, store) -> None:
        """Attach the run's chunk store, replacing any previous one.

        Its in-memory footprint joins the ledger (``held_bytes`` /
        ``nbytes``), and — when it exposes ``spill(min_bytes)`` — it
        becomes the pressure valve admission can squeeze."""
        self._stores = [store]

    def add_store(self, store) -> None:
        """Attach one *additional* chunk store.

        A node-wide ledger shared by N shards counts every shard's store
        against the one budget; each :class:`ScopedLedger` routes its
        run's ``attach_store`` here so stores accumulate instead of
        replacing each other."""
        with self._cond:
            if store not in self._stores:
                self._stores.append(store)

    def scoped(self, namespace: Hashable) -> "ScopedLedger":
        """A view of this ledger whose reservation keys are prefixed with
        ``namespace`` — how N concurrent shard runs (each keying by its
        own local chunk ids) share one node budget without collisions."""
        return ScopedLedger(self, namespace)

    # ------------------------------------------------------------------
    # ledger
    # ------------------------------------------------------------------
    def _stored_bytes(self) -> int:
        total = 0
        for store in self._stores:
            held = getattr(store, "held_bytes", None)
            total += int(held) if held is not None else int(store.nbytes())
        return total

    def reserved_bytes(self) -> int:
        """Bytes held by admitted, not yet released reservations."""
        with self._cond:
            return sum(self._reserved.values())

    def held_bytes(self) -> int:
        """Bytes currently charged against the budget."""
        with self._cond:
            return self.reserved_bytes() + self._stored_bytes()

    def _note(self) -> None:
        # called with the condition held
        reserved = self.reserved_bytes()
        stored = self._stored_bytes()
        self.peak_bytes = max(self.peak_bytes, reserved + stored)
        if self._tracer.enabled:
            self._tracer.gauge("host_mem", reserved=reserved, stored=stored,
                               budget=self.budget_bytes)

    def _make_room(self, needed: int) -> None:
        # called with the condition held; best-effort — spilling less
        # than asked (or nothing) simply leaves admission blocked
        if needed <= 0:
            return
        for store in self._stores:
            spill = getattr(store, "spill", None)
            if spill is None:
                continue
            self.spill_requests += 1
            freed = spill(needed)
            needed -= int(freed or 0)
            if needed <= 0:
                return

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def admit(self, chunk_id: Hashable, estimate_bytes: int, *,
              may_wait: bool) -> bool:
        """Reserve ``estimate_bytes`` for ``chunk_id`` within the budget.

        Returns ``True`` once reserved (idempotent for an already
        admitted chunk — retries keep their reservation).  With
        ``may_wait=False`` a denial returns ``False`` immediately: the
        caller has completions of its own to wait on, which is the
        backpressure path.  With ``may_wait=True`` the call blocks until
        room frees up, force-admitting only when no reservation exists
        anywhere (minimum progress).
        """
        estimate_bytes = max(int(estimate_bytes), 0)
        with self._cond:
            while True:
                if chunk_id in self._reserved:
                    return True
                reserved = sum(self._reserved.values())
                over = reserved + self._stored_bytes() + estimate_bytes \
                    - self.budget_bytes
                if over > 0:
                    self._make_room(over)
                    over = reserved + self._stored_bytes() \
                        + estimate_bytes - self.budget_bytes
                if over <= 0:
                    self._reserved[chunk_id] = estimate_bytes
                    self._note()
                    return True
                if not may_wait:
                    return False
                if not self._reserved:
                    # nothing in flight anywhere: admit regardless, or
                    # no chunk could ever run under a too-small budget
                    self.overcommits += 1
                    self._reserved[chunk_id] = estimate_bytes
                    self._note()
                    if self._tracer.enabled:
                        self._tracer.bump("governor", overcommits=1)
                    return True
                self._cond.wait(_WAIT_STEP)

    def release(self, chunk_id: Hashable) -> None:
        """Drop the chunk's reservation and wake blocked admissions."""
        with self._cond:
            if self._reserved.pop(chunk_id, None) is not None:
                self._note()
                self._cond.notify_all()


class ScopedLedger:
    """A namespaced view of one shared :class:`HostMemoryGovernor`.

    The engine charges reservations by *local* chunk id; when N shard
    runs share one node ledger those ids collide.  A scoped view
    rewrites every key to ``(namespace, chunk_id)`` so each shard's
    reservations stay distinct while the byte budget — admission,
    backpressure, spill-under-pressure, the minimum-progress escape —
    is enforced globally across all shards.

    ``bind_tracer`` is deliberately a no-op: the shared ledger keeps
    emitting its ``host_mem`` gauge stream on the *node* tracer it was
    constructed with, instead of being re-bound by whichever shard run
    starts last.  ``attach_store`` adds the shard's chunk store to the
    shared ledger (stores accumulate; see
    :meth:`HostMemoryGovernor.add_store`).
    """

    def __init__(self, base: HostMemoryGovernor, namespace: Hashable) -> None:
        self.base = base
        self.namespace = namespace

    @property
    def budget_bytes(self) -> int:
        return self.base.budget_bytes

    @property
    def peak_bytes(self) -> int:
        return self.base.peak_bytes

    @property
    def overcommits(self) -> int:
        return self.base.overcommits

    def held_bytes(self) -> int:
        return self.base.held_bytes()

    def bind_tracer(self, tracer) -> None:  # see class docstring
        pass

    def attach_store(self, store) -> None:
        self.base.add_store(store)

    def admit(self, chunk_id: Hashable, estimate_bytes: int, *,
              may_wait: bool) -> bool:
        return self.base.admit((self.namespace, chunk_id), estimate_bytes,
                               may_wait=may_wait)

    def release(self, chunk_id: Hashable) -> None:
        self.base.release((self.namespace, chunk_id))
