"""Content-addressed operand cache.

Many concurrent jobs naming the same operand (same suite entry, same
generator spec, same uploaded matrix) should share **one** materialized
copy.  :class:`OperandCache` keys whole CSR operands on their content
hash — SHA-256 over shape and the three CSR arrays — and holds the
matrix the spec built, on the heap, so

* a repeated operand costs one dictionary lookup instead of a rebuild
  (suite construction, generator run, file parse, or JSON decode), and
* every job that names it holds the same object — N jobs referencing
  one operand hold one copy of its bytes.  (The process backend copies
  each run's row and column panels into segments of its own.)

Same-shape/different-values matrices hash differently (values are part
of the digest), so two jobs can never be served each other's operand —
the collision tests pin this.

Two tables hold the entries.  A byte-budget LRU keeps the matrices
alive; the freshest entry survives even when it alone exceeds the budget
(caching nothing would make repeated single-operand workloads pay full
price forever).  A weak table maps every hash ever stored to its matrix
for as long as anything references it: a job holds its operands by
reference, so an operand evicted under a running or queued job is still
found by its hash, and a repeat of it is shared, not rebuilt.

A *spec alias* table maps canonical operand-spec strings (see
:func:`~repro.serve.jobs.canonical_spec`) to content hashes, so a job
repeating ``{"gen": {...}}`` or ``{"suite": "stokes"}`` skips even the
materialization step — the hash of a deterministic spec is learned on
first build and trusted while its entry stays in the LRU.
"""

from __future__ import annotations

import hashlib
import threading
import weakref
from collections import OrderedDict
from typing import Dict, Optional, Tuple

from ..sparse.codec import csr_buffers
from ..sparse.formats import CSRMatrix

__all__ = ["content_hash", "OperandCache"]

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


class OperandCache:
    """Byte-budget LRU of content-addressed operands, plus a weak table
    of every entry still referenced.

    Thread-safe: jobs land on pool threads while the server's event
    loop resolves operands, and both sides hit the cache.
    """

    def __init__(self, max_bytes: int = DEFAULT_CACHE_BYTES) -> None:
        if max_bytes < 1:
            raise ValueError("operand cache budget must be >= 1 byte")
        self.max_bytes = int(max_bytes)
        self._lock = threading.Lock()
        self._lru: "OrderedDict[str, CSRMatrix]" = OrderedDict()
        self._live: "weakref.WeakValueDictionary[str, CSRMatrix]" = \
            weakref.WeakValueDictionary()
        self._aliases: Dict[str, str] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.held_bytes = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        with self._lock:
            return {
                "entries": len(self._lru),
                "held_bytes": self.held_bytes,
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "hit_rate": self.hit_rate,
            }

    def get(self, key: str, *, count: bool = False) -> Optional[CSRMatrix]:
        """The matrix at ``key``, or ``None``.

        With ``count=False`` (default) the probe does not touch the
        hit/miss counters, so speculative lookups don't skew the hit
        rate; ``count=True`` records the outcome — the path operand
        *resolution* takes (alias fast path, ``{"hash": ...}`` specs)."""
        with self._lock:
            matrix = self._lookup(key)
            if count:
                if matrix is None:
                    self.misses += 1
                else:
                    self.hits += 1
            return matrix

    def get_or_put(self, matrix: CSRMatrix, *, key: Optional[str] = None
                   ) -> Tuple[str, CSRMatrix, bool]:
        """Return ``(key, cached matrix, hit)`` for ``matrix``'s content
        address.

        On a miss ``matrix`` itself becomes the entry; on a hit the
        matrix already stored is returned and the argument is dropped.
        ``key`` skips re-hashing when the caller already knows the
        content address."""
        if key is None:
            key = content_hash(matrix)
        with self._lock:
            cached = self._lookup(key)
            if cached is not None:
                self.hits += 1
                return key, cached, True
            self.misses += 1
            self._lru[key] = self._live[key] = matrix
            self.held_bytes += matrix.nbytes()
            # drop the oldest entries while over budget, sparing the
            # freshest; a job still holding one finds it in _live
            while self.held_bytes > self.max_bytes and len(self._lru) > 1:
                victim, evicted = self._lru.popitem(last=False)
                self.held_bytes -= evicted.nbytes()
                self.evictions += 1
                for spec in [s for s, k in self._aliases.items()
                             if k == victim]:
                    del self._aliases[spec]
            return key, matrix, False

    def _lookup(self, key: str) -> Optional[CSRMatrix]:
        # called with the lock held
        if key in self._lru:
            self._lru.move_to_end(key)
        return self._live.get(key)

    def lookup_alias(self, spec_key: str) -> Optional[str]:
        with self._lock:
            key = self._aliases.get(spec_key)
            # an alias is only useful while its entry is in the LRU
            return key if key in self._lru else None

    def alias(self, spec_key: str, key: str) -> None:
        """Teach the cache that deterministic spec ``spec_key``
        materializes to content ``key`` (must be in the LRU)."""
        with self._lock:
            if key in self._lru:
                self._aliases[spec_key] = key
