"""Dispatch planning for the chunk executor: windows and lanes.

These helpers are backend-independent — the same bounded in-flight
window and hybrid lane split (paper Algorithm 4; its flops-descending
order and ``Ratio`` prefix live in :mod:`repro.core.chunks`) drive the
serial, thread, and process backends alike.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..chunks import split_by_flop_ratio

__all__ = [
    "BUFFERS_PER_WORKER",
    "default_window",
    "filter_lanes",
    "split_workers",
    "plan_hybrid_lanes",
]


#: per worker, mirror the paper's two device chunk buffers: one chunk in
#: compute, one queued — so the default in-flight window is 2 x workers
BUFFERS_PER_WORKER = 2


def default_window(workers: int) -> int:
    """Default bounded in-flight window (two "device buffers" per worker)."""
    return max(1, BUFFERS_PER_WORKER * max(workers, 1))


def filter_lanes(lanes, lane_names, skip) -> Tuple[list, list]:
    """Drop the chunk ids in ``skip`` from every lane, and drop lanes
    that become empty (with their names).  Lane order, intra-lane chunk
    order, and worker counts are preserved — this is how checkpoint
    resume and backend degradation re-plan only the *remaining* work.
    """
    kept_lanes, kept_names = [], []
    for (ids, lane_workers), name in zip(lanes, lane_names):
        remaining = [cid for cid in ids if cid not in skip]
        if remaining:
            kept_lanes.append((remaining, lane_workers))
            kept_names.append(name)
    return kept_lanes, kept_names


def split_workers(workers: int, ratio: float, *, both_nonempty: bool) -> Tuple[int, int]:
    """Split the worker pool between the two hybrid lanes per the flop
    ratio, keeping at least one worker per non-empty lane.

    A single-worker pool cannot serve two concurrent lanes without 2x
    oversubscription, so ``workers == 1`` with both lanes non-empty
    returns ``(1, 0)``: the second lane gets no concurrent share and the
    caller must serialize the lanes (as :func:`plan_hybrid_lanes` does).
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if not both_nonempty:
        return workers, workers  # single lane gets the whole pool
    if workers == 1:
        return 1, 0
    first = int(round(workers * ratio))
    first = min(max(first, 1), workers - 1)
    return first, workers - first


def plan_hybrid_lanes(
    flops_flat: np.ndarray, workers: int, ratio: float
) -> List[Tuple[List[int], int, str]]:
    """Plan Algorithm 4's hybrid lanes: ``[(chunk_ids, workers, name), ...]``.

    The flop-densest prefix holding ``ratio`` of the flops forms the
    "gpu" lane, the remainder the "cpu" lane, and the worker pool is
    split between them.  Degenerate cases collapse to one lane: an empty
    split (all flops on one side, or an all-zero grid) hands the whole
    pool to the single non-empty lane, and a single worker *serializes*
    the two chunk sets (gpu prefix first) instead of oversubscribing one
    worker with two concurrent lanes.
    """
    gpu_ids, cpu_ids = split_by_flop_ratio(flops_flat, ratio)
    if workers == 1 and gpu_ids and cpu_ids:
        return [(list(gpu_ids) + list(cpu_ids), 1, "gpu+cpu")]
    gpu_w, cpu_w = split_workers(
        workers, ratio, both_nonempty=bool(gpu_ids and cpu_ids)
    )
    return [
        (list(ids), w, name)
        for ids, w, name in ((gpu_ids, gpu_w, "gpu"), (cpu_ids, cpu_w, "cpu"))
        if ids
    ]
