"""Memory-accounting replay: does the planned grid really fit?

The planner sizes the chunk grid from analytic worst-case footprints; this
module *replays* an executed profile through the actual allocator models
(:class:`~repro.device.memory.MemoryPool` for the paper's pre-allocation
design, :class:`~repro.device.memory.DynamicAllocator` for the spECK
baseline) and reports the realized peak usage — an end-to-end consistency
check between the planner, the memory model, and the device budget, and
the source of the pool-utilization numbers in the ablation report.

Replay protocol per chunk (mirroring Fig. 3's allocation points):

1. analysis result (``rows * 8`` bytes);
2. group info + symbolic structures (hash tables over the upper-bound
   products: :func:`~repro.core.chunks.intermediate_bytes`);
3. the exactly-sized output (known only after the symbolic phase);
4. everything released when the chunk's transfer completes.

The asynchronous pipeline keeps ``buffers`` chunks in flight, so the pool
replay holds the previous chunk's output until its successor finishes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..device.memory import Allocation, DeviceOutOfMemory, DynamicAllocator, MemoryPool
from ..observability import as_tracer
from .chunks import ChunkProfile, ChunkStats, csr_bytes, intermediate_bytes

__all__ = [
    "MemoryReplay",
    "replay_pool",
    "replay_dynamic",
]


@dataclass(frozen=True)
class MemoryReplay:
    """Outcome of a memory replay."""

    fits: bool
    peak_bytes: int
    capacity: int
    allocator: str
    failed_chunk: Optional[int] = None

    @property
    def utilization(self) -> float:
        return self.peak_bytes / self.capacity if self.capacity else 0.0


def _chunk_allocs(ch: ChunkStats) -> List[tuple]:
    """(tag, nbytes) allocations of one chunk, in Fig. 3 order."""
    products = ch.flops // 2
    return [
        ("analysis", ch.rows * 8),
        ("symbolic", intermediate_bytes(products)),
        ("output", csr_bytes(ch.rows, max(ch.nnz_out, 0))),
    ]


def replay_pool(
    profile: ChunkProfile,
    device_memory: int,
    *,
    order: Optional[Sequence[int]] = None,
    buffers: int = 2,
    tracer=None,
) -> MemoryReplay:
    """Replay through the pre-allocated pool (the paper's design).

    The pool spans the device memory left after the resident inputs; with
    ``buffers`` chunks in flight, a chunk's allocations are freed only
    when the chunk ``buffers`` positions later begins.

    ``tracer`` samples a ``device_pool`` gauge after every chunk's
    allocations land — ``used`` / ``high_water`` / ``capacity`` — the
    pool-utilization stream behind the ablation report's numbers.
    """
    tracer = as_tracer(tracer)
    ids = list(order) if order is not None else profile.order_by_flops_desc()
    # resident inputs: derive from the profile's own panel byte counts
    a_bytes = max(
        (c.a_panel_bytes for c in profile.chunks), default=0
    ) * profile.grid.num_row_panels
    b_bytes = sum(
        c.b_panel_bytes for c in profile.chunks if c.row_panel == 0
    )
    capacity = device_memory - (a_bytes + b_bytes)
    if capacity <= 0:
        return MemoryReplay(False, 0, max(capacity, 0), "pool", ids[0] if ids else None)

    pool = MemoryPool(capacity)
    in_flight: List[List[Allocation]] = []
    try:
        for pos, cid in enumerate(ids):
            if len(in_flight) >= buffers:
                # oldest chunk's transfer is done; the pool is recycled by
                # compacting live chunks into a fresh epoch
                in_flight.pop(0)
                live = [a for chunk in in_flight for a in chunk]
                pool.reset()
                reloaded = []
                for a in live:
                    reloaded.append(pool.alloc(a.nbytes, tag=a.tag))
                # rebuild in_flight with the reloaded handles
                k = 0
                rebuilt = []
                for chunk in in_flight:
                    rebuilt.append(reloaded[k : k + len(chunk)])
                    k += len(chunk)
                in_flight = rebuilt
            ch = profile.chunks[cid]
            in_flight.append([pool.alloc(n, tag=t) for t, n in _chunk_allocs(ch)])
            if tracer.enabled:
                tracer.gauge("device_pool", used=pool.used,
                             high_water=pool.high_water,
                             capacity=capacity, chunk=cid)
    except DeviceOutOfMemory:
        return MemoryReplay(False, pool.high_water, capacity, "pool", cid)
    return MemoryReplay(True, pool.high_water, capacity, "pool")


def replay_dynamic(
    profile: ChunkProfile,
    device_memory: int,
    *,
    order: Optional[Sequence[int]] = None,
) -> MemoryReplay:
    """Replay through cudaMalloc-style allocation (synchronous baseline:
    one chunk in flight, allocations freed as phases complete)."""
    ids = list(order) if order is not None else profile.natural_order()
    a_bytes = max(
        (c.a_panel_bytes for c in profile.chunks), default=0
    ) * profile.grid.num_row_panels
    b_bytes = sum(c.b_panel_bytes for c in profile.chunks if c.row_panel == 0)
    capacity = device_memory - (a_bytes + b_bytes)
    if capacity <= 0:
        return MemoryReplay(False, 0, max(capacity, 0), "dynamic", ids[0] if ids else None)

    da = DynamicAllocator(capacity)
    try:
        for cid in ids:
            ch = profile.chunks[cid]
            live = [da.alloc(n, tag=t) for t, n in _chunk_allocs(ch)]
            # chunk transferred; everything released before the next one
            for a in live:
                da.free(a)
    except DeviceOutOfMemory:
        return MemoryReplay(False, da.high_water, capacity, "dynamic", cid)
    return MemoryReplay(True, da.high_water, capacity, "dynamic")
