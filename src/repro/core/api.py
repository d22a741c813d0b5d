"""Public entry points of the out-of-core SpGEMM framework.

Typical use::

    from repro.core import run_out_of_core
    from repro.device import v100_node

    node = v100_node(device_memory_bytes=1 << 28)   # scaled device
    result = run_out_of_core(a, a, node)            # C = A @ A, async GPU
    c = result.matrix
    print(result.gflops, result.transfer_fraction)

The ``run_*`` functions execute the real kernels (so ``result.matrix`` is
the exact product) *and* simulate the device timeline; the ``simulate_*``
functions re-schedule an existing :class:`ChunkProfile` without
recomputing — that is how the benchmark harness sweeps schedules cheaply.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from ..device.kernels import CostModel, default_cost_model
from ..device.specs import NodeSpec, v100_node
from ..observability import as_tracer
from ..sparse.formats import CSRMatrix
from ..spgemm.kernels import require_kernel
from ..spgemm.twophase import spgemm_twophase
from .chunks import ChunkGrid, ChunkProfile, GridSizing
from .executor import execute_chunk_grid, plan_hybrid_lanes
from .hybrid import DEFAULT_RATIO, assign_chunks, build_hybrid_engine
from .planner import plan_grid
from .results import RunResult
from .schedule import CPU, build_async_schedule, build_sync_schedule, new_engine

__all__ = [
    "spgemm",
    "simulate_out_of_core",
    "simulate_hybrid",
    "simulate_cpu_baseline",
    "run_out_of_core",
    "run_hybrid",
]


def _resolve_node(node: Optional[NodeSpec]) -> NodeSpec:
    return node if node is not None else v100_node()

def _resolve_cost(node: NodeSpec, cost: Optional[CostModel]) -> CostModel:
    return cost if cost is not None else default_cost_model(node)


def _plan(a: CSRMatrix, b: CSRMatrix, node: NodeSpec, tracer):
    """``plan_grid``'s grid and sizing, traced as one ``plan`` span that
    carries the chosen ``row_panels × col_panels``."""
    tracer = as_tracer(tracer)
    start = tracer.now()
    report = plan_grid(a, b, node)
    grid = report.grid
    tracer.add_span("plan_grid", "plan", start, tracer.now(),
                    row_panels=grid.num_row_panels,
                    col_panels=grid.num_col_panels)
    return grid, report.sizing


def spgemm(a: CSRMatrix, b: CSRMatrix, *, kernel=None) -> CSRMatrix:
    """In-core SpGEMM via the full two-phase kernel (no device simulation).

    ``kernel`` picks the kernel (``None`` = auto; see
    :mod:`repro.spgemm.kernels`) — the product is the same either way.
    """
    return spgemm_twophase(a, b, kernel=kernel).matrix


# ----------------------------------------------------------------------
# simulation-only paths (re-schedule an existing profile)
# ----------------------------------------------------------------------
def simulate_out_of_core(
    profile: ChunkProfile,
    node: Optional[NodeSpec] = None,
    *,
    mode: str = "async",
    order: Union[str, Sequence[int]] = "flops_desc",
    divided_transfers: bool = True,
    allocator: str = "pool",
    input_mode: str = "prestaged",
    cost: Optional[CostModel] = None,
) -> RunResult:
    """Simulate the out-of-core GPU execution of a profiled workload.

    ``mode`` is ``"async"`` (the paper's pipeline) or ``"sync"`` (the
    partitioned-spECK baseline).  ``order`` is ``"flops_desc"``,
    ``"natural"``, or an explicit chunk-id sequence.  ``input_mode`` is
    ``"prestaged"`` (paper measurement), ``"resident"`` (panel loads on
    the timeline, once each) or ``"streamed"`` (panels re-loaded per
    chunk — the arbitrarily-large-inputs extension).
    """
    node = _resolve_node(node)
    cm = _resolve_cost(node, cost)
    if isinstance(order, str):
        if order == "flops_desc":
            order_ids = profile.order_by_flops_desc()
        elif order == "natural":
            order_ids = profile.natural_order()
        else:
            raise ValueError(f"unknown order {order!r}")
    else:
        order_ids = list(order)

    if mode == "sync":
        eng = build_sync_schedule(
            profile, cm, order=order_ids, input_mode=input_mode
        )
    elif mode == "async":
        eng = build_async_schedule(
            profile, cm, order=order_ids,
            divided_transfers=divided_transfers, allocator=allocator,
            input_mode=input_mode,
        )
    else:
        raise ValueError(f"unknown mode {mode!r}")
    timeline = eng.run()
    return RunResult(
        name=profile.name, mode=mode, timeline=timeline, profile=profile,
        meta={"order": order if isinstance(order, str) else "explicit",
              "divided_transfers": divided_transfers, "allocator": allocator,
              "input_mode": input_mode},
    )


def simulate_hybrid(
    profile: ChunkProfile,
    node: Optional[NodeSpec] = None,
    *,
    ratio: float = DEFAULT_RATIO,
    reorder: bool = True,
    cost: Optional[CostModel] = None,
) -> RunResult:
    """Simulate the hybrid CPU+GPU execution (Algorithm 4)."""
    node = _resolve_node(node)
    cm = _resolve_cost(node, cost)
    assignment = assign_chunks(profile, ratio, reorder=reorder)
    eng = build_hybrid_engine(profile, cm, assignment)
    timeline = eng.run()
    return RunResult(
        name=profile.name, mode="hybrid", timeline=timeline, profile=profile,
        meta={"ratio": ratio, "reorder": reorder,
              "num_gpu_chunks": assignment.num_gpu,
              "gpu_flop_share": assignment.gpu_flop_share},
    )


def simulate_cpu_baseline(
    profile: ChunkProfile,
    node: Optional[NodeSpec] = None,
    *,
    cost: Optional[CostModel] = None,
) -> RunResult:
    """Simulate the multicore CPU baseline: the whole (unpartitioned)
    product on the host — no chunking, no PCIe traffic."""
    node = _resolve_node(node)
    cm = _resolve_cost(node, cost)
    eng = new_engine()
    eng.submit(
        "cpu_full", CPU,
        cm.t_cpu_chunk(profile.total_flops, profile.total_nnz_out),
        stream="cpu", kind="cpu",
    )
    return RunResult(
        name=profile.name, mode="cpu", timeline=eng.run(), profile=profile,
    )


# ----------------------------------------------------------------------
# full runs: real kernels + simulation
# ----------------------------------------------------------------------
def run_out_of_core(
    a: CSRMatrix,
    b: CSRMatrix,
    node: Optional[NodeSpec] = None,
    *,
    mode: str = "async",
    order: Union[str, Sequence[int]] = "flops_desc",
    divided_transfers: bool = True,
    allocator: str = "pool",
    grid: Optional[ChunkGrid] = None,
    keep_output: bool = True,
    chunk_store=None,
    name: str = "",
    cost: Optional[CostModel] = None,
    workers: int = 1,
    window: Optional[int] = None,
    tracer=None,
    backend: Optional[str] = None,
    retry=None,
    crash_budget: int = 0,
    faults=None,
    checkpoint=None,
    resume=None,
    governor=None,
    kernel=None,
) -> RunResult:
    """Out-of-core GPU SpGEMM: compute ``A x B`` chunk by chunk for real,
    and simulate the device timeline of the chosen schedule.

    ``chunk_store`` (see :mod:`repro.core.spill`) receives each chunk as
    it is produced — pass a :class:`~repro.core.spill.DiskChunkStore` when
    even host memory cannot hold the output; combine with
    ``keep_output=False`` and assemble from the store afterwards.

    ``workers`` parallelizes the real chunk kernels on the host (the
    simulated timeline is unaffected); the product is bit-identical for
    any worker count and measured wall times land in ``result.profile``.
    ``backend`` selects the executor (``serial`` / ``thread`` /
    ``process``; ``None`` = serial when ``workers == 1``, else threads);
    see :func:`~repro.core.executor.execute_chunk_grid`.

    ``tracer`` (:mod:`repro.observability`) records the real execution's
    spans — the plan, the column partition, queue wait, kernel phases,
    sink writes — for Chrome-trace
    export; results are unaffected.

    Fault tolerance and checkpoint/resume:

    ``retry`` (a :class:`~repro.core.executor.RetryPolicy`) re-runs
    failed chunk attempts with backoff; ``crash_budget`` lets the
    process backend absorb hard worker deaths by respawning; ``faults``
    injects chaos-testing failures (see :mod:`repro.core.executor.\
    faults`).  ``checkpoint=PATH`` writes a :class:`~repro.core.spill.\
    RunManifest` recording every completed chunk as the run progresses.
    ``resume=PATH_OR_MANIFEST`` (instead of ``checkpoint``, not beside
    it) loads such a manifest, validates it against the operands/grid,
    recomputes **only** the unfinished chunks, and keeps extending the
    same manifest — the result is bit-identical to an uninterrupted
    run.  Resuming with ``keep_output=True`` requires ``chunk_store`` to
    hold the previous run's chunks (e.g. a :class:`~repro.core.spill.\
    DiskChunkStore` over the original spill directory).  Resumed chunks
    are re-read and CRC-verified against the manifest; corrupt or
    missing ones are evicted and recomputed
    (``meta["corrupt_recomputed"]`` counts them) — the protocol is
    :class:`~repro.core.spill.Checkpoint`'s.

    ``governor`` (a :class:`~repro.core.governor.Governor` /
    :class:`~repro.core.governor.GovernorConfig`) adds runtime limits:
    per-chunk deadlines + hung-worker watchdog, a host-memory budget
    with spill-under-pressure, and device-OOM re-splitting — see
    :mod:`repro.core.governor`.
    """
    from .spill import Checkpoint

    if resume is not None and checkpoint is not None:
        raise ValueError(
            "resume= keeps extending the manifest it resumes from; "
            "pass it or checkpoint=, not both"
        )
    kernel = require_kernel(kernel)  # refused before anything is planned
    node = _resolve_node(node)
    sizing = None
    if grid is None and resume is None:
        grid, sizing = _plan(a, b, node, tracer)
    ckpt = None
    if resume is not None or checkpoint is not None or chunk_store is not None:
        ckpt = Checkpoint.open(
            a, b, grid, store=chunk_store, resume=resume is not None,
            path=checkpoint if resume is None else resume)
        if grid is None:
            grid = ckpt.manifest.grid
    profile, matrix = execute_chunk_grid(
        a, b, grid, assemble=keep_output, checkpoint=ckpt,
        name=name, workers=workers, window=window,
        tracer=tracer, backend=backend,
        retry=retry, crash_budget=crash_budget, faults=faults,
        governor=governor, kernel=kernel, sizing=sizing,
    )
    result = simulate_out_of_core(
        profile, node, mode=mode, order=order,
        divided_transfers=divided_transfers, allocator=allocator, cost=cost,
    )
    meta = dict(result.meta)
    meta["workers"] = workers
    if ckpt is not None:
        if resume is not None:
            meta["resumed_chunks"] = ckpt.resumed
        if ckpt.dropped:
            meta["corrupt_recomputed"] = ckpt.dropped
        if ckpt.manifest is not None:
            meta["manifest"] = str(ckpt.manifest.path)
            meta["run_id"] = ckpt.manifest.run_id
    return RunResult(
        name=result.name, mode=result.mode, timeline=result.timeline,
        profile=profile, matrix=matrix, meta=meta,
    )


def run_hybrid(
    a: CSRMatrix,
    b: CSRMatrix,
    node: Optional[NodeSpec] = None,
    *,
    ratio: float = DEFAULT_RATIO,
    reorder: bool = True,
    grid: Optional[ChunkGrid] = None,
    keep_output: bool = True,
    name: str = "",
    cost: Optional[CostModel] = None,
    workers: int = 1,
    window: Optional[int] = None,
    tracer=None,
    backend: Optional[str] = None,
    retry=None,
    crash_budget: int = 0,
    faults=None,
    governor=None,
    kernel=None,
) -> RunResult:
    """Hybrid CPU+GPU SpGEMM (Algorithm 4), real compute + simulation.

    With ``workers`` > 1 the worker pool is split between the two chunk
    sets of Algorithm 4: the flop-densest prefix holding ``ratio`` of the
    flops (the "GPU" lane) and the remainder (the "CPU" lane) drain
    concurrently, each behind its own bounded window — the host analog of
    the two devices working simultaneously.  ``backend`` selects the
    executor the lanes run on (``thread`` pool or ``process`` workers).
    ``tracer`` records both lanes' spans under their lane names
    ("gpu" / "cpu")."""
    node = _resolve_node(node)
    sizing = None
    if grid is None:
        grid, sizing = _plan(a, b, node, tracer)
    lanes = lane_names = None  # one lane, inline
    if workers > 1:
        if sizing is None:
            sizing = GridSizing(a, b, grid)
        hybrid = plan_hybrid_lanes(sizing.flops, workers, ratio)
        lanes = [(ids, lane_workers) for ids, lane_workers, _ in hybrid]
        lane_names = [lane for _, _, lane in hybrid]
    profile, matrix = execute_chunk_grid(
        a, b, grid, assemble=keep_output, name=name, window=window,
        lanes=lanes, lane_names=lane_names, kernel=kernel,
        tracer=tracer, backend=backend,
        retry=retry, crash_budget=crash_budget, faults=faults,
        governor=governor, sizing=sizing,
    )
    result = simulate_hybrid(profile, node, ratio=ratio, reorder=reorder, cost=cost)
    meta = dict(result.meta)
    meta["workers"] = workers
    return RunResult(
        name=result.name, mode=result.mode, timeline=result.timeline,
        profile=profile, matrix=matrix, meta=meta,
    )
