"""Hybrid CPU-GPU work distribution (paper Algorithm 4 and Section III.C).

Chunks are sorted by decreasing flops; the GPU receives the densest prefix
holding at least ``Ratio`` of the total flops, the CPU the rest.  The
paper derives ``Ratio = S / (S + 1)`` from the expected GPU-over-CPU
speedup ``S`` and finds a fixed 65 % works for every matrix on its node
(Table III / Fig. 10).

The *reordering* knob reproduces Fig. 9: with ``reorder=False`` chunks are
taken in natural (row-major) order until the flop ratio is reached — the
"default implementation" the paper beats.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..device.engine import SimEngine
from ..device.kernels import CostModel
from .chunks import ChunkProfile, split_by_flop_ratio
from .schedule import add_cpu_chunks, build_async_schedule

__all__ = [
    "DEFAULT_RATIO",
    "HybridAssignment",
    "assign_chunks",
    "assign_first_n",
    "build_hybrid_engine",
    "best_gpu_chunk_count",
]

#: the paper's fixed GPU flop share ("a fixed value of 65% can achieve
#: good performance for all of our input matrices")
DEFAULT_RATIO = 0.65


@dataclass(frozen=True)
class HybridAssignment:
    """Which chunks go where, and in what order the GPU runs its share."""

    gpu_chunks: Tuple[int, ...]
    cpu_chunks: Tuple[int, ...]
    ratio: float
    reordered: bool
    gpu_flops: int
    total_flops: int

    @property
    def num_gpu(self) -> int:
        return len(self.gpu_chunks)

    @property
    def gpu_flop_share(self) -> float:
        return self.gpu_flops / self.total_flops if self.total_flops else 0.0


def _assignment(profile: ChunkProfile, gpu: Sequence[int],
                cpu: Sequence[int], ratio: float,
                reorder: bool) -> HybridAssignment:
    return HybridAssignment(
        gpu_chunks=tuple(gpu), cpu_chunks=tuple(cpu), ratio=ratio,
        reordered=reorder,
        gpu_flops=sum(profile.chunks[c].flops for c in gpu),
        total_flops=profile.total_flops,
    )


def assign_chunks(
    profile: ChunkProfile, ratio: float = DEFAULT_RATIO, *, reorder: bool = True
) -> HybridAssignment:
    """Split chunks between GPU and CPU at the given flop ratio — the
    split the executor's hybrid lanes run
    (:func:`~repro.core.chunks.split_by_flop_ratio`), over the executed
    profile's flops."""
    gpu, cpu = split_by_flop_ratio(
        [c.flops for c in profile.chunks], ratio,
        None if reorder else profile.natural_order())
    return _assignment(profile, gpu, cpu, ratio, reorder)


def assign_first_n(profile: ChunkProfile, num_gpu: int, *, reorder: bool = True) -> HybridAssignment:
    """Assignment by explicit GPU chunk count (Table III's exhaustive search)."""
    order = profile.order_by_flops_desc() if reorder else profile.natural_order()
    if not 0 <= num_gpu <= len(order):
        raise ValueError(f"num_gpu must be in [0, {len(order)}]")
    asn = _assignment(profile, order[:num_gpu], order[num_gpu:], 0.0, reorder)
    return dataclasses.replace(asn, ratio=asn.gpu_flop_share)


def build_hybrid_engine(
    profile: ChunkProfile,
    cm: CostModel,
    assignment: HybridAssignment,
    **async_kwargs,
) -> SimEngine:
    """One engine running both device queues concurrently.

    The GPU's chunks go through the full asynchronous pipeline; the CPU's
    chunks queue on the ``cpu`` resource.  The makespan is the later of
    the two drains — a balanced assignment makes them finish together.
    """
    if assignment.gpu_chunks:
        eng = build_async_schedule(
            profile, cm, order=assignment.gpu_chunks, **async_kwargs
        )
    else:
        from .schedule import new_engine

        eng = new_engine()
    add_cpu_chunks(eng, profile, cm, assignment.cpu_chunks)
    return eng


def best_gpu_chunk_count(
    profile: ChunkProfile,
    cm: CostModel,
    *,
    reorder: bool = True,
) -> Tuple[int, List[float]]:
    """Exhaustive search over the GPU chunk count (paper Table III).

    Simulates every possible prefix length and returns
    ``(argmin, makespans)``.  Ties go to the smaller count.
    """
    times: List[float] = []
    for n in range(len(profile.chunks) + 1):
        assignment = assign_first_n(profile, n, reorder=reorder)
        eng = build_hybrid_engine(profile, cm, assignment)
        times.append(eng.run().makespan())
    best = min(range(len(times)), key=lambda i: (times[i], i))
    return best, times
