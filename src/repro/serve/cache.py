"""Content-addressed shared-memory operand cache.

Many concurrent jobs naming the same operand (same suite entry, same
generator spec, same uploaded matrix) should share **one** materialized
copy.  :class:`OperandCache` keys whole CSR operands on
their content hash — SHA-256 over shape and the three CSR arrays — and
stores each under a :class:`~repro.sparse.shm.SharedCSR` segment, so

* a repeated operand costs one dictionary lookup instead of a rebuild
  (suite construction, generator run, file parse, or JSON decode), and
* every job's working view aliases the same shared mapping zero-copy —
  N jobs referencing one operand hold one copy of its bytes.  (The
  process backend still copies each run's row and column panels into
  segments of their own, one ``SharedCSR.create`` per panel.)

Same-shape/different-values matrices hash differently (values are part
of the digest), so two jobs can never be served each other's operand —
the collision tests pin this.

Eviction is byte-budget LRU over *unpinned* entries only: a job holds a
:class:`OperandLease` (refcount pin) for the duration of its run, and a
pinned segment is never unlinked no matter the pressure — eviction
happens on release instead.  The freshest entry survives even when it alone exceeds the budget (caching nothing would
make repeated single-operand workloads pay full price forever).

A *spec alias* table maps canonical operand-spec strings (see
:func:`~repro.serve.jobs.canonical_spec`) to content hashes, so a job
repeating ``{"gen": {...}}`` or ``{"suite": "stokes"}`` skips even the
materialization step — the hash of a deterministic spec is learned on
first build and trusted afterwards.

All segments live under one pid-guarded cleanup prefix
(:func:`~repro.sparse.shm.run_prefix` with the server's run id), so a
server crash cannot leak ``/dev/shm`` entries past interpreter exit.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Dict, Optional, Tuple

from ..sparse.codec import csr_buffers
from ..sparse.formats import CSRMatrix
from ..sparse.shm import (
    SharedCSR,
    cleanup_segments,
    register_cleanup_prefix,
    run_prefix,
    unregister_cleanup_prefix,
)

__all__ = ["content_hash", "OperandCache", "OperandLease"]

#: default byte budget — enough for the bench workloads, small enough
#: that eviction is exercised by modest test matrices
DEFAULT_CACHE_BYTES = 256 << 20


def content_hash(matrix: CSRMatrix) -> str:
    """SHA-256 content address of a CSR matrix.

    Covers shape, structure, *and* values in a fixed order — the same
    fields :func:`~repro.core.spill.operand_grid_hash` binds a manifest
    to — so equal hashes mean bit-identical operands and two matrices
    differing only in values still address different cache entries.
    """
    h = hashlib.sha256(repr(matrix.shape).encode())
    for buf in csr_buffers(matrix):
        h.update(buf)
    return h.hexdigest()


class _Entry:
    __slots__ = ("shared", "nbytes", "pins")

    def __init__(self, shared: SharedCSR) -> None:
        self.shared = shared
        self.nbytes = max(shared.descriptor.nbytes, 1)
        self.pins = 0


class OperandLease:
    """A refcount pin on one cached operand.

    ``.matrix`` is a zero-copy CSR view over the shared segment; it must
    not outlive the lease.  Release with :meth:`release` (idempotent) or
    use as a context manager — an unreleased lease pins its entry
    against eviction forever, which is the bug the lease tests simulate
    on purpose.
    """

    def __init__(self, cache: "OperandCache", key: str,
                 entry: _Entry) -> None:
        self._cache = cache
        self._key = key
        self._entry = entry
        self._released = False

    @property
    def key(self) -> str:
        return self._key

    @property
    def matrix(self) -> CSRMatrix:
        return self._entry.shared.matrix

    @property
    def nbytes(self) -> int:
        return self._entry.nbytes

    def release(self) -> None:
        if not self._released:
            self._released = True
            self._cache._unpin(self._key)

    def __enter__(self) -> "OperandLease":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()


class OperandCache:
    """Byte-budget LRU of content-addressed shared-memory operands.

    Thread-safe: jobs land on pool threads while the server's event
    loop resolves operands, and both sides hit the cache.
    """

    def __init__(self, max_bytes: int = DEFAULT_CACHE_BYTES, *,
                 run_id: str = "cache", tracer=None) -> None:
        if max_bytes < 1:
            raise ValueError("operand cache budget must be >= 1 byte")
        self.max_bytes = int(max_bytes)
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        self._aliases: Dict[str, str] = {}
        self._prefix = run_prefix(run_id)
        self._seq = 0
        self._closed = False
        self._tracer = tracer
        register_cleanup_prefix(self._prefix)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.held_bytes = 0

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "held_bytes": self.held_bytes,
                "max_bytes": self.max_bytes,
                "pinned": sum(1 for e in self._entries.values() if e.pins),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "hit_rate": self.hit_rate,
            }

    def _note(self) -> None:
        if self._tracer is not None and self._tracer.enabled:
            self._tracer.gauge("operand_cache", held_bytes=self.held_bytes,
                               entries=len(self._entries), hits=self.hits,
                               misses=self.misses, evictions=self.evictions)

    # ------------------------------------------------------------------
    # the content-addressed store
    # ------------------------------------------------------------------
    def lease(self, key: str, *, count: bool = False) -> Optional[OperandLease]:
        """Pin and return the entry at ``key``, or ``None``.

        With ``count=False`` (default) the probe does not touch the
        hit/miss counters, so speculative lookups don't skew the hit
        rate; ``count=True`` records the outcome — the path operand
        *resolution* takes (alias fast path, ``{"hash": ...}`` specs)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or self._closed:
                if count:
                    self.misses += 1
                return None
            if count:
                self.hits += 1
            entry.pins += 1
            self._entries.move_to_end(key)
            return OperandLease(self, key, entry)

    def get_or_put(self, matrix: CSRMatrix, *,
                   key: Optional[str] = None) -> Tuple[OperandLease, bool]:
        """Return ``(lease, hit)`` for ``matrix``'s content address.

        On miss the matrix is copied into a fresh shared segment (the
        one copy its whole cache lifetime will serve zero-copy); on hit
        the existing segment is pinned and the argument matrix is
        dropped.  ``key`` skips re-hashing when the caller already knows
        the content address (the spec-alias fast path).
        """
        if key is None:
            key = content_hash(matrix)
        with self._lock:
            if self._closed:
                raise RuntimeError("operand cache is closed")
            entry = self._entries.get(key)
            if entry is not None:
                self.hits += 1
                entry.pins += 1
                self._entries.move_to_end(key)
                self._note()
                return OperandLease(self, key, entry), True
            self.misses += 1
            self._seq += 1
            name = f"{self._prefix}-op{self._seq}"
        # copy into shared memory outside the lock (the expensive part);
        # a racing same-key insert is resolved below by keeping the
        # first-landed segment and discarding the loser's
        shared = SharedCSR.create(matrix, name)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                entry.pins += 1
                self._entries.move_to_end(key)
                loser = shared
            else:
                entry = _Entry(shared)
                entry.pins = 1
                self._entries[key] = entry
                self.held_bytes += entry.nbytes
                loser = None
                self._evict_unpinned()
            self._note()
        if loser is not None:
            loser.close()
            loser.unlink()
        return OperandLease(self, key, entry), False

    def _unpin(self, key: str) -> None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry.pins > 0:
                entry.pins -= 1
            self._evict_unpinned()
            self._note()

    def _evict_unpinned(self) -> None:
        # called with the lock held: drop stale unpinned entries oldest
        # first while over budget, always sparing the freshest entry
        while self.held_bytes > self.max_bytes and len(self._entries) > 1:
            victim_key = None
            for k, e in self._entries.items():  # oldest -> newest
                if e.pins == 0 and k != next(reversed(self._entries)):
                    victim_key = k
                    break
            if victim_key is None:
                return  # everything evictable is pinned; retry on release
            entry = self._entries.pop(victim_key)
            self.held_bytes -= entry.nbytes
            self.evictions += 1
            self._drop_aliases(victim_key)
            entry.shared.close()
            entry.shared.unlink()

    def _drop_aliases(self, key: str) -> None:
        for spec in [s for s, k in self._aliases.items() if k == key]:
            del self._aliases[spec]

    # ------------------------------------------------------------------
    # spec aliases (canonical spec string -> content hash)
    # ------------------------------------------------------------------
    def lookup_alias(self, spec_key: str) -> Optional[str]:
        with self._lock:
            key = self._aliases.get(spec_key)
            # an alias is only useful while its entry is live
            return key if key in self._entries else None

    def alias(self, spec_key: str, key: str) -> None:
        """Teach the cache that deterministic spec ``spec_key``
        materializes to content ``key`` (must be a live entry)."""
        with self._lock:
            if key in self._entries:
                self._aliases[spec_key] = key

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def prefix(self) -> str:
        return self._prefix

    def close(self) -> None:
        """Unlink every segment (leases become invalid) and drop the
        exit-time sweep registration.  Idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            entries = list(self._entries.values())
            self._entries.clear()
            self._aliases.clear()
            self.held_bytes = 0
        for entry in entries:
            entry.shared.close()
            entry.shared.unlink()
        cleanup_segments(self._prefix)
        unregister_cleanup_prefix(self._prefix)

    def __enter__(self) -> "OperandCache":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
