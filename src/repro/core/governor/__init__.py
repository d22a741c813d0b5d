"""Runtime governor: deadlines, memory pressure, and data integrity.

PR 4 taught the executor to survive *crashes*; this layer covers the
failure modes a crash budget cannot see:

* **hangs** — per-chunk wall-clock deadlines plus worker heartbeats
  (:mod:`.watchdog`); a hung chunk surfaces as a retryable
  :class:`ChunkTimeout` instead of stalling the run;
* **host memory exhaustion** — byte-budget admission control with
  backpressure and spill-under-pressure (:mod:`.hostmem`);
* **device memory exhaustion** — a pre-dispatch footprint check against
  the device pool plus adaptive row-panel re-splitting when a chunk
  overflows it (driven by the engine, bit-identical on assembly);
* **silent corruption** — CRC32 integrity stamps on every chunk at rest
  (:mod:`.integrity`), surfacing as a retryable
  :class:`ChunkCorruption`.

Configuration is one frozen :class:`GovernorConfig`; a :class:`Governor`
is the per-run runtime the engine threads through the backends::

    from repro.core import run_out_of_core
    from repro.core.governor import Governor, GovernorConfig

    gov = Governor(GovernorConfig(
        deadline_seconds=30.0,          # per-chunk wall-clock budget
        heartbeat_interval=1.0,         # worker liveness granularity
        host_mem_budget_bytes=1 << 30,  # in-flight + stored ceiling
        device_pool_bytes=1 << 28,      # re-split chunks that overflow
    ))
    res = run_out_of_core(a, b, workers=4, backend="process", governor=gov)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .hostmem import HostMemoryGovernor, ScopedLedger
from .integrity import ChunkCorruption, crc32_bytes, crc32_matrix
from .watchdog import (
    ChunkTimeout,
    HeartbeatLease,
    arm_deadline,
    check_deadline,
    disarm_deadline,
    hang_until_cancelled,
)

__all__ = [
    "GovernorConfig",
    "Governor",
    "as_governor",
    "HostMemoryGovernor",
    "ScopedLedger",
    "ChunkTimeout",
    "HeartbeatLease",
    "ChunkCorruption",
    "crc32_matrix",
    "crc32_bytes",
]


@dataclass(frozen=True)
class GovernorConfig:
    """Declarative limits the governor enforces.  All default to off.

    ``deadline_seconds``
        per-chunk wall-clock budget.  In-process backends cancel
        cooperatively at kernel phase boundaries; the process backend
        kills the worker outright once a claimed chunk exceeds it.
    ``heartbeat_interval``
        process backend only: workers beat a shared-memory counter every
        ``interval / 2`` seconds, and a worker silent for longer than
        ``2 x interval`` while holding a chunk is declared hung and
        killed — catching stalls well before a generous deadline would.
    ``host_mem_budget_bytes``
        ceiling on in-flight chunk estimates plus stored chunk bytes;
        dispatch blocks (and the chunk store spills) under pressure.
    ``device_pool_bytes``
        device memory pool available to one chunk's working set
        (symbolic intermediates + worst-case output,
        :func:`~repro.core.chunks.device_bytes_of`).  A chunk whose
        footprint bound exceeds it is re-split by row halving
        before/after dispatch until its pieces fit.
    ``max_resplit_depth``
        halving levels a single chunk may undergo (2^depth sub-chunks)
        before a genuine :class:`~repro.device.memory.DeviceOutOfMemory`
        propagates.
    """

    deadline_seconds: Optional[float] = None
    heartbeat_interval: Optional[float] = None
    host_mem_budget_bytes: Optional[int] = None
    device_pool_bytes: Optional[int] = None
    max_resplit_depth: int = 8

    def __post_init__(self) -> None:
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ValueError("deadline_seconds must be > 0")
        if self.heartbeat_interval is not None and self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be > 0")
        if (self.host_mem_budget_bytes is not None
                and self.host_mem_budget_bytes < 1):
            raise ValueError("host_mem_budget_bytes must be >= 1")
        if self.device_pool_bytes is not None and self.device_pool_bytes < 1:
            raise ValueError("device_pool_bytes must be >= 1")
        if self.max_resplit_depth < 1:
            raise ValueError("max_resplit_depth must be >= 1")

    @property
    def enabled(self) -> bool:
        return any(v is not None for v in (
            self.deadline_seconds, self.heartbeat_interval,
            self.host_mem_budget_bytes, self.device_pool_bytes,
        ))


class Governor:
    """Per-run runtime enforcing one :class:`GovernorConfig`.

    Holds the mutable admission ledger, so one instance governs exactly
    one run at a time; construct a fresh one (or reuse sequentially)
    rather than sharing across concurrent runs.
    """

    def __init__(self, config: Optional[GovernorConfig] = None, *,
                 tracer=None, hostmem=None) -> None:
        self.config = config if config is not None else GovernorConfig()
        #: ``hostmem=`` injects an externally owned ledger — typically a
        #: :meth:`HostMemoryGovernor.scoped` view, so N per-shard
        #: governors enforce one shared node budget (see
        #: :mod:`repro.distributed.shard`).  Without it the governor
        #: builds a private ledger from its own config.
        self.hostmem = hostmem
        if hostmem is None and self.config.host_mem_budget_bytes is not None:
            self.hostmem = HostMemoryGovernor(
                self.config.host_mem_budget_bytes, tracer=tracer)

    # convenience accessors the engine/backends read directly
    @property
    def deadline_seconds(self) -> Optional[float]:
        return self.config.deadline_seconds

    @property
    def heartbeat_interval(self) -> Optional[float]:
        return self.config.heartbeat_interval

    @property
    def device_pool_bytes(self) -> Optional[int]:
        return self.config.device_pool_bytes

    @property
    def max_resplit_depth(self) -> int:
        return self.config.max_resplit_depth

    def bind_tracer(self, tracer) -> None:
        if self.hostmem is not None:
            self.hostmem.bind_tracer(tracer)

    def attach_store(self, store) -> None:
        if self.hostmem is not None:
            self.hostmem.attach_store(store)

    def fits(self, nbytes: int) -> bool:
        """Whether a chunk's device footprint (``GridSizing.device_bytes``
        of it) fits the device pool; with no pool configured, anything
        does."""
        pool = self.config.device_pool_bytes
        return pool is None or nbytes <= pool


def as_governor(
    governor: Union[None, GovernorConfig, Governor]
) -> Optional[Governor]:
    """Normalize a governor argument; ``None`` stays ``None`` (inert)."""
    if governor is None or isinstance(governor, Governor):
        return governor
    if isinstance(governor, GovernorConfig):
        return Governor(governor)
    raise TypeError(
        f"governor must be a Governor or GovernorConfig, got {type(governor)!r}"
    )
