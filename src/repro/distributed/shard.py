"""Sharded multi-device execution of the out-of-core chunk grid.

One chunk grid, N simulated devices: the grid's row panels are split
into contiguous *shards*, each shard computes its row strip of
``C = A x B`` through its own :func:`~repro.core.executor.execute_chunk_grid`
run — its own executor backend and worker pool, its own lane budget
(``workers`` / ``window``), its own device pool and deadline governor,
its own tracer stream — while one global scheduler thread-fans the
shards out and one shared :class:`~repro.core.governor.HostMemoryGovernor`
ledger keeps the *node's* host-memory budget enforced across all of
them (each shard admits through a :class:`~repro.core.governor.\
ScopedLedger` view, so local chunk ids never collide).

Why this is bit-identical to the single-device run: shards own whole
row panels, so every chunk is computed from exactly the same
``(A row panel, B column panel)`` pair by exactly the same kernel as in
the unsharded grid — sharding only changes *where* a chunk runs, never
*what* it computes.  Reassembling the shard strips in row order is the
same :func:`~repro.core.assemble.assemble_chunks` call the unsharded
path uses.  A socket run with no checkpoint directory gathers C once
instead: while the workers compute, the node counts every chunk's rows
into one :class:`~repro.core.assemble.OutputLayout`, and each chunk
that arrives is placed at its final address (DESIGN.md, Section 9).

``B`` is partitioned into column panels **once** and every shard reads
the same panel objects (the in-process analog of SUMMA's stage
broadcast); the cost the real network would charge for that broadcast —
and for gathering the shard outputs back to the host — is modeled with
the same alpha-beta
:class:`~repro.distributed.sharding.transfers.NetworkModel` the SUMMA
simulator uses, producing a per-shard transfer/compute timeline
(:mod:`repro.distributed.sharding.transfers`).

Fault tolerance composes per shard: each shard lands its chunks in its
own :class:`~repro.core.spill.Checkpoint` (a manifest + a
:class:`~repro.core.spill.DiskChunkStore` under one ``checkpoint_dir``),
so killing one shard's worker pool mid-run loses only that shard's
unfinished chunks — ``resume=True`` reopens every shard's checkpoint,
recomputes only what it does not hold, and the assembled product is
bit-identical to an uninterrupted run.  A socket span fills the same
checkpoint from its remote worker; whatever the transport could not
deliver is then simply what the shard's local run finds left to do.
"""

from __future__ import annotations

import dataclasses
import threading
import time
import traceback as _tb
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.assemble import OutputLayout, assemble_chunks
from ..core.chunks import ChunkGrid, ChunkProfile, ChunkStats, GridSizing
from ..core.executor import execute_chunk_grid
from ..core.governor import Governor, GovernorConfig, HostMemoryGovernor
from ..core.spill import Checkpoint, DiskChunkStore, LayoutCheckpoint
from ..observability import Tracer
from ..observability.chrome import multi_tracer_events, timeline_events
from ..sparse.formats import CSRMatrix
from ..sparse.partition import (
    check_bounds, panel_boundaries, partition_columns, partition_rows)
from ..spgemm.kernels import require_kernel
from ..spgemm.twophase import spgemm_symbolic
from .sharding.transfers import (
    NetworkModel,
    measured_transfer_timeline,
    shard_transfer_timeline,
)
from .transport import (
    RemoteShardPool,
    TransportDegradedWarning,
    TransportError,
    TransportWorkerLost,
    csr_arrays,
    run_remote_span,
)
from .transport.worker import encode_run_config

__all__ = [
    "ShardConfig",
    "ShardSpan",
    "ShardRecord",
    "ShardedResult",
    "ShardedRunError",
    "plan_shards",
    "run_sharded",
]


@dataclass(frozen=True)
class ShardConfig:
    """How to run one grid across N simulated devices.

    ``workers`` / ``window`` / ``backend`` are *per shard* — each shard
    gets its own executor pool (the process backend gives every shard
    its own worker processes).  ``device_pool_bytes`` and the deadline
    fields configure each shard's private governor;
    ``host_mem_budget_bytes`` is the **node-global** ledger all shards
    share.
    """

    num_shards: int = 2
    workers: int = 1
    backend: Optional[str] = None
    window: Optional[int] = None
    kernel: Optional[str] = None
    device_pool_bytes: Optional[int] = None
    deadline_seconds: Optional[float] = None
    heartbeat_interval: Optional[float] = None
    host_mem_budget_bytes: Optional[int] = None
    max_resplit_depth: int = 8
    network: NetworkModel = field(default_factory=NetworkModel)
    #: ``"local"`` runs every shard in-process (PR 9 behavior);
    #: ``"socket"`` ships each span to a ``repro shard-worker`` process
    #: over the :mod:`~repro.distributed.transport` protocol, replacing
    #: the alpha-beta transfer model with *measured* walls
    transport: str = "local"
    #: socket flavor for auto-spawned workers: ``"unix"`` or ``"tcp"``
    socket_kind: str = "unix"
    #: attach to externally launched workers instead of spawning
    #: (``tcp:HOST:PORT`` / ``unix:PATH`` strings, one per worker)
    worker_addresses: Optional[Tuple[str, ...]] = None
    #: wire heartbeat period (seconds) pushed by each remote worker
    transport_heartbeat: float = 0.25
    #: lease expires after ``transport_heartbeat x lease_grace`` of
    #: total wire silence — the claims-array "2x interval" rule, made
    #: configurable for chaos tests
    lease_grace: float = 3.0
    #: reconnect policy for transient socket loss (None -> the pool's
    #: DEFAULT_RECONNECT); its jitter is deterministic in
    #: ``(attempt, shard id)`` so chaos runs replay byte-identically
    reconnect: Optional[object] = None
    connect_timeout: float = 10.0

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1 per shard")
        if self.transport not in ("local", "socket"):
            raise ValueError(
                f"transport must be 'local' or 'socket', got {self.transport!r}"
            )
        if self.socket_kind not in ("unix", "tcp"):
            raise ValueError(
                f"socket_kind must be 'unix' or 'tcp', got {self.socket_kind!r}"
            )


@dataclass(frozen=True)
class ShardSpan:
    """One shard's slice of the grid: row panels ``[rp_lo, rp_hi)``."""

    shard_id: int
    rp_lo: int
    rp_hi: int

    @property
    def num_row_panels(self) -> int:
        return self.rp_hi - self.rp_lo


@dataclass
class ShardRecord:
    """What one shard did: workload, timing, and modeled transfers."""

    shard_id: int
    rp_lo: int
    rp_hi: int
    chunks: int = 0
    flops: int = 0
    output_bytes: int = 0
    #: end-to-end wall of this shard's execute_chunk_grid call (includes
    #: contention with the other shards on the test host)
    wall_seconds: float = 0.0
    #: sum of per-chunk measured kernel seconds — the shard's CPU work,
    #: used as its compute span on the simulated device timeline
    compute_seconds: float = 0.0
    #: alpha-beta-modeled bytes this shard moves: the B-panel broadcast
    #: it receives plus the C strip it ships back to the host (shard 0
    #: is co-located with the host and moves nothing)
    transfer_bytes: int = 0
    #: busy fraction of this shard's simulated device over the makespan
    utilization: float = 0.0
    resumed_chunks: int = 0
    corrupt_recomputed: int = 0
    #: ``"local"`` (in-process thread) or ``"socket"`` (remote worker)
    transport: str = "local"
    #: *measured* wall of shipping this shard's operands (A slice + B)
    #: over the socket — replaces the modeled broadcast for socket runs
    bcast_seconds: float = 0.0
    #: *measured* wire seconds of the chunk frames gathered back
    gather_seconds: float = 0.0
    bytes_sent: int = 0
    bytes_received: int = 0
    #: successful transport reconnects while driving this span
    reconnects: int = 0
    #: empty, ``"workerN"`` (re-placed on a survivor), or ``"local"``
    #: (degraded to in-process under a TransportDegradedWarning)
    failover: str = ""

    def as_dict(self) -> dict:
        out = {
            "shard": self.shard_id,
            "row_panels": [self.rp_lo, self.rp_hi],
            "chunks": self.chunks,
            "flops": self.flops,
            "output_bytes": self.output_bytes,
            "wall_seconds": self.wall_seconds,
            "compute_seconds": self.compute_seconds,
            "transfer_bytes": self.transfer_bytes,
            "utilization": self.utilization,
            "resumed_chunks": self.resumed_chunks,
            "transport": self.transport,
        }
        if self.transport == "socket":
            out.update({
                "bcast_seconds": self.bcast_seconds,
                "gather_seconds": self.gather_seconds,
                "bytes_sent": self.bytes_sent,
                "bytes_received": self.bytes_received,
                "reconnects": self.reconnects,
                "failover": self.failover,
            })
        return out


class ShardedRunError(RuntimeError):
    """One or more shards failed; the survivors' checkpoints are intact.

    ``failures`` maps shard id -> the exception that killed it;
    ``tracebacks`` maps shard id -> that exception's formatted traceback
    (the *remote* traceback when the shard ran on a socket worker, via
    :class:`~repro.distributed.transport.RemoteShardError`) — the
    ``__cause__``-style context that a cross-thread collection would
    otherwise drop.  ``completed`` lists the shards that finished (and,
    when checkpointing, whose chunks are durably on disk).  Re-running
    with ``resume=True`` over the same ``checkpoint_dir`` recomputes
    only the missing chunks.
    """

    def __init__(self, failures: Dict[int, BaseException],
                 completed: Sequence[int]) -> None:
        self.failures = dict(failures)
        self.completed = list(completed)
        self.tracebacks: Dict[int, str] = {}
        for t, exc in self.failures.items():
            remote = getattr(exc, "remote_traceback", None)
            if remote:
                self.tracebacks[t] = remote
            else:
                self.tracebacks[t] = "".join(_tb.format_exception(
                    type(exc), exc, exc.__traceback__))
        names = {t: type(e).__name__ for t, e in sorted(failures.items())}
        super().__init__(
            f"shard(s) {sorted(failures)} failed ({names}); "
            f"shards {sorted(completed)} completed"
        )
        if self.failures:
            # chain the first failure so a bare `raise` still shows a
            # root cause even when the caller ignores .tracebacks
            self.__cause__ = self.failures[min(self.failures)]


@dataclass
class ShardedResult:
    """The assembled product plus everything observable about the run."""

    matrix: Optional[CSRMatrix]
    profile: ChunkProfile
    grid: ChunkGrid
    records: List[ShardRecord]
    tracers: Dict[str, Tracer]
    timeline: object  # simulated transfer/compute Timeline
    num_shards: int
    wall_seconds: float
    ledger_budget_bytes: Optional[int] = None
    ledger_peak_bytes: int = 0
    ledger_overcommits: int = 0

    @property
    def sim_makespan(self) -> float:
        return self.timeline.makespan()

    @property
    def resumed_chunks(self) -> int:
        return sum(r.resumed_chunks for r in self.records)

    @property
    def transfer_bytes_total(self) -> int:
        return sum(r.transfer_bytes for r in self.records)

    @property
    def transport(self) -> str:
        return self.records[0].transport if self.records else "local"

    @property
    def measured_transfer_seconds(self) -> float:
        """Sum of measured socket bcast+gather walls (0.0 for local)."""
        return sum(r.bcast_seconds + r.gather_seconds for r in self.records)

    def trace_events(self) -> List[dict]:
        """Per-shard tracer streams merged one Chrome process each, with
        the simulated device/NIC timeline as a sibling process."""
        events = multi_tracer_events(self.tracers)
        events.extend(timeline_events(
            self.timeline, pid=len(self.tracers) + 1,
            process_name="simulated (shard transfers)",
        ))
        return events


def plan_shards(grid: ChunkGrid, num_shards: int,
                flops: Optional[np.ndarray] = None) -> List[ShardSpan]:
    """Cut the grid's row panels into contiguous shard spans.

    ``flops`` is the per-chunk matrix from
    :func:`~repro.core.chunks.chunk_flops`; the cuts land at near-equal
    cumulative flops (LPT-style load balance on contiguous spans) so a
    skewed (power-law) grid does not pile all the work on one shard:
    each cut goes on whichever side of the panel where the cumulative
    flops cross its target is nearer the target.  Without it (or with
    all-zero flops) panels are split near-equally by count.  Spans are
    always non-empty: ``num_shards`` is clamped to the panel count.
    """
    parts = max(1, min(int(num_shards), grid.num_row_panels))
    n = grid.num_row_panels
    if flops is not None and flops.sum() > 0:
        weights = flops.sum(axis=1).astype(float)
        prefix = np.cumsum(weights)
        total = float(prefix[-1])
        bounds = [0]
        for s in range(1, parts):
            target = total * s / parts
            # panel i is where the prefix reaches the target: cut after
            # it, or before it when that lands nearer
            i = int(np.searchsorted(prefix, target, side="left"))
            before = float(prefix[i - 1]) if i else 0.0
            if target - before >= prefix[i] - target:
                i += 1
            i = max(i, bounds[-1] + 1)      # every span stays non-empty
            i = min(i, n - (parts - s))     # leave room for later spans
            bounds.append(i)
        bounds.append(n)
    else:
        bounds = panel_boundaries(n, parts).tolist()
    return [ShardSpan(shard_id=s, rp_lo=int(bounds[s]), rp_hi=int(bounds[s + 1]))
            for s in range(parts)]


def _count_and_seal(layout: OutputLayout, a: CSRMatrix, b: CSRMatrix,
                    grid: ChunkGrid, kernel, tracer) -> None:
    """The node's count pass: every chunk's exact row counts — the
    symbolic stage of (A row panel x B column panel), the panels cut as
    the shards' engines cut them (row panels are views of A) — into
    ``layout``, then its one allocation; one span on ``tracer``."""
    start = tracer.now()
    col_panels = partition_columns(b, grid.col_bounds)
    for rp, a_panel in enumerate(partition_rows(a, grid.row_bounds)):
        for cp in range(grid.num_col_panels):
            layout.set_counts(rp, cp, spgemm_symbolic(
                a_panel, col_panels[cp], kernel=kernel).row_nnz)
    layout.seal()
    tracer.add_span("count-C", "layout", start, tracer.now(),
                    chunks=grid.num_chunks, bytes=layout.matrix().nbytes())


def run_sharded(
    a: CSRMatrix,
    b: CSRMatrix,
    config: Optional[ShardConfig] = None,
    *,
    grid: Optional[ChunkGrid] = None,
    name: str = "",
    checkpoint_dir=None,
    resume: bool = False,
    shard_faults: Optional[Mapping[int, object]] = None,
    shard_debug: Optional[Mapping[int, Mapping]] = None,
    retry=None,
    crash_budget: int = 0,
    tracer=None,
    keep_output: bool = True,
    worker_pool: Optional[RemoteShardPool] = None,
) -> ShardedResult:
    """Run ``C = A x B`` across N simulated devices (see module docs).

    ``grid`` defaults to a regular split with two row panels per shard,
    clamped to the rows ``A`` has (fewer rows than shards run on fewer
    shards).  ``checkpoint_dir`` enables per-shard manifests + disk chunk
    stores under that directory; ``resume=True`` reloads them and
    recomputes only unfinished chunks.  ``shard_faults`` maps shard id
    -> a fault spec/injector delivered to that shard's run only (chaos
    testing; for socket transport it must be an encoded spec string);
    ``shard_debug`` maps shard id -> transport chaos hooks
    (``{"sever_after": N, "heartbeat_stall": seconds}``) forwarded to
    that shard's remote worker.  ``retry`` / ``crash_budget`` apply to
    every shard.  ``tracer`` is the *node* tracer (shared-ledger
    ``host_mem`` gauges land there); each shard additionally gets its
    own stream, all merged by :meth:`ShardedResult.trace_events`.

    With ``config.transport == "socket"`` every span runs on a remote
    ``repro shard-worker`` process driven through ``worker_pool`` (one
    is spawned — and reaped — automatically when neither ``worker_pool``
    nor ``config.worker_addresses`` is given).  Checkpoints stay on the
    node: workers are stateless, so worker death costs only in-flight
    chunks and failover re-placement splices the already-received,
    CRC-verified chunks into a survivor's (or the local fallback's)
    resume set — bit-identical to a run that never failed.  Without a
    ``checkpoint_dir`` such a run lands each chunk straight in the
    product (see module docs); if the node's count pass fails, every
    shard fails with it.
    """
    if a.n_cols != b.n_rows:
        raise ValueError(f"dimension mismatch: A is {a.shape}, B is {b.shape}")
    cfg = config if config is not None else ShardConfig()
    # refused here, once, before a shard is planned or a worker spawned
    require_kernel(cfg.kernel)
    if grid is None:
        # two row panels a shard, clamped to the rows and columns that
        # exist (an empty dimension is one empty panel)
        rp = max(1, min(a.n_rows, 2 * cfg.num_shards))
        cp = max(1, min(b.n_cols, 2))
        grid = ChunkGrid.regular(a.n_rows, b.n_cols, rp, cp)
    # refused here, before a shard is planned, as every shard would
    check_bounds(grid.row_bounds, a.n_rows)
    check_bounds(grid.col_bounds, b.n_cols)
    sizing = GridSizing(a, b, grid)
    spans = plan_shards(grid, cfg.num_shards, sizing.flops)
    num_shards = len(spans)
    shard_faults = dict(shard_faults or {})
    shard_debug = dict(shard_debug or {})
    use_socket = cfg.transport == "socket"

    node_tracer = tracer if tracer is not None else Tracer(stream="node")
    ledger = None
    # the shared host-memory ledger cannot span worker processes; socket
    # runs hand each worker a 1/N share of the budget instead (enforced
    # by that worker's own governor)
    if cfg.host_mem_budget_bytes is not None and not use_socket:
        ledger = HostMemoryGovernor(cfg.host_mem_budget_bytes,
                                    tracer=node_tracer)

    pool = worker_pool
    owns_pool = False
    if use_socket and pool is None:
        if cfg.worker_addresses:
            pool = RemoteShardPool.connect(
                list(cfg.worker_addresses),
                connect_timeout=cfg.connect_timeout)
        else:
            pool = RemoteShardPool.spawn(
                num_shards, kind=cfg.socket_kind,
                connect_timeout=cfg.connect_timeout)
        owns_pool = True

    # partition B's column panels once; every local shard reads the same
    # panels (the in-process stage broadcast — see execute_chunk_grid).
    # A socket node ships B whole and partitions only for a span it has
    # to finish itself
    shared_col_panels = (None if use_socket
                         else partition_columns(b, grid.col_bounds))

    ckpt_dir = Path(checkpoint_dir) if checkpoint_dir is not None else None
    if ckpt_dir is not None:
        ckpt_dir.mkdir(parents=True, exist_ok=True)
    # a socket gather with nothing to keep on disk places every chunk
    # at its final address as it arrives; the node counts C meanwhile
    layout = (OutputLayout(grid.row_bounds, grid.col_bounds)
              if use_socket and keep_output and ckpt_dir is None else None)

    records = [ShardRecord(shard_id=s.shard_id, rp_lo=s.rp_lo, rp_hi=s.rp_hi)
               for s in spans]
    tracers: Dict[str, Tracer] = {"node": node_tracer}
    shard_outputs: List[Optional[List[List[Optional[CSRMatrix]]]]] = \
        [None] * num_shards
    shard_profiles: List[Optional[ChunkProfile]] = [None] * num_shards
    failures: Dict[int, BaseException] = {}
    rb = grid.row_bounds

    def governor_config(host_budget: Optional[int]) -> GovernorConfig:
        return GovernorConfig(
            deadline_seconds=cfg.deadline_seconds,
            heartbeat_interval=cfg.heartbeat_interval,
            device_pool_bytes=cfg.device_pool_bytes,
            max_resplit_depth=cfg.max_resplit_depth,
            host_mem_budget_bytes=host_budget,
        )

    def make_governor(t: int) -> Governor:
        # the scoped view supplies host admission; a per-shard private
        # budget beside it would double-govern
        return Governor(
            governor_config(
                cfg.host_mem_budget_bytes if ledger is None else None),
            hostmem=None if ledger is None else ledger.scoped(f"shard{t}"),
        )

    def worker_config() -> dict:
        """The remote worker's executor config (the run-frame payload)."""
        share = None
        if cfg.host_mem_budget_bytes is not None:
            share = max(1, int(cfg.host_mem_budget_bytes) // num_shards)
        return encode_run_config(
            workers=1 if cfg.backend == "serial" else cfg.workers,
            window=cfg.window, backend=cfg.backend, kernel=cfg.kernel,
            retry=retry, crash_budget=crash_budget,
            governor=governor_config(share),
        )

    def run_span_remote(t, rec, shard_tracer, a_shard, sub, checkpoint,
                        run_name) -> None:
        """Fill ``checkpoint`` with shard ``t``'s chunks from the pool,
        re-placing the span on a survivor when its worker is lost.  With
        no live worker left it returns degraded: what never arrived is
        what the shard's local run finds left to do."""
        a_meta, a_arrays = csr_arrays(a_shard, prefix="a_")
        b_meta, b_arrays = csr_arrays(b, prefix="b_")
        run_meta = {
            "name": run_name,
            "grid": {"row_bounds": sub.row_bounds.tolist(),
                     "col_bounds": sub.col_bounds.tolist()},
            "config": worker_config(),
            **a_meta, **b_meta,
        }
        run_arrays = {**a_arrays, **b_arrays}
        # chaos hooks ride the first request only (the transport drops
        # them at the first fault, for reconnects and re-placements alike)
        chaos = {}
        fault = shard_faults.get(t)
        if fault is not None:
            if not isinstance(fault, str):
                raise TypeError(
                    f"shard {t}: socket transport needs an encoded fault "
                    f"spec string, got {type(fault).__name__}"
                )
            chaos["faults"] = fault
        if shard_debug.get(t):
            chaos["debug"] = dict(shard_debug[t])

        tried: Set[int] = set()
        worker = pool.worker_for(t)
        while True:
            tried.add(worker.worker_id)
            try:
                with worker.lock, shard_tracer.span(
                        f"remote[shard{t}]", "transport",
                        worker=worker.worker_id):
                    result = run_remote_span(
                        worker, run_meta=run_meta, run_arrays=run_arrays,
                        chaos=chaos, checkpoint=checkpoint,
                        heartbeat_interval=cfg.transport_heartbeat,
                        lease_grace=cfg.lease_grace,
                        reconnect=cfg.reconnect, salt=t,
                        mark_lost=pool.mark_lost,
                    )
                break
            except TransportWorkerLost as lost:
                candidates = pool.failover_targets(tried)
                if candidates:
                    worker = candidates[0]
                    rec.failover = f"worker{worker.worker_id}"
                    rec.reconnects += 1
                    continue
                warnings.warn(TransportDegradedWarning(
                    f"shard {t}: no live workers left ({lost}); "
                    "re-placing the remaining span in-process"
                ))
                rec.failover = "local"
                return
        rec.bcast_seconds += result.bcast_seconds
        rec.gather_seconds += result.gather_seconds
        rec.bytes_sent += result.bytes_sent
        rec.bytes_received += result.bytes_received
        rec.reconnects += result.reconnects

        missing = [cid for cid in range(sub.num_chunks)
                   if cid not in checkpoint.completed]
        if missing:
            raise TransportError(
                f"shard {t}: worker reported done but chunks {missing} "
                "never arrived"
            )
        now = shard_tracer.now()
        started = max(0.0, now - result.wall_seconds)
        shard_tracer.add_span(
            f"bcast-B[shard{t}]", "transport",
            started, started + rec.bcast_seconds, bytes=rec.bytes_sent)
        shard_tracer.add_span(
            f"gather-C[shard{t}]", "transport",
            max(0.0, now - rec.gather_seconds), now,
            bytes=rec.bytes_received)

    def shard_main(span: ShardSpan) -> None:
        t = span.shard_id
        rec = records[t]
        rec.transport = cfg.transport
        shard_tracer = Tracer(stream=f"shard{t}")
        tracers[f"shard{t}"] = shard_tracer
        a_shard = a.row_slice(int(rb[span.rp_lo]), int(rb[span.rp_hi]))
        span_sizing = sizing.span(span.rp_lo, span.rp_hi)
        sub = span_sizing.grid
        run_name = f"{name}.shard{t}" if name else f"shard{t}"
        if layout is not None:
            checkpoint = LayoutCheckpoint(layout, span.rp_lo)
        else:
            store = path = None
            if ckpt_dir is not None:
                store = DiskChunkStore(ckpt_dir / f"shard{t}.chunks")
                path = ckpt_dir / f"shard{t}.manifest.json"
            checkpoint = Checkpoint.open(
                a_shard, b, sub, store=store, path=path,
                resume=resume and path is not None and path.exists())
        rec.resumed_chunks = checkpoint.resumed
        rec.corrupt_recomputed = checkpoint.dropped

        t0 = time.perf_counter()
        if use_socket and len(checkpoint.completed) < sub.num_chunks:
            run_span_remote(t, rec, shard_tracer, a_shard, sub, checkpoint,
                            run_name)
        # the shard's own run computes what its checkpoint does not hold
        # yet — everything (local), nothing (a delivered socket span), or
        # the chunks a lost transport never delivered — and returns the
        # whole strip (or, gathering into the layout, lands the rest there)
        profile, outputs = execute_chunk_grid(
            a_shard, b, sub,
            # the serial backend is single-worker by definition; a
            # lane-budget of N means "N per shard" only where a pool exists
            workers=1 if cfg.backend == "serial" else cfg.workers,
            window=cfg.window,
            keep_outputs=keep_output and layout is None,
            name=run_name,
            tracer=shard_tracer, backend=cfg.backend,
            retry=retry, crash_budget=crash_budget,
            # a socket span's chaos went to its worker, once
            faults=None if use_socket else shard_faults.get(t),
            checkpoint=checkpoint,
            governor=make_governor(t), kernel=cfg.kernel,
            col_panels=shared_col_panels,
            sizing=span_sizing,
        )
        rec.wall_seconds = time.perf_counter() - t0
        shard_profiles[t] = profile
        shard_outputs[t] = outputs
        rec.chunks = len(profile.chunks)
        rec.flops = profile.total_flops
        rec.output_bytes = profile.total_output_bytes
        rec.compute_seconds = sum(
            c.measured_seconds for c in profile.chunks if c.measured)

    def shard_guard(span: ShardSpan) -> None:
        try:
            shard_main(span)
        except BaseException as exc:  # collected; peers keep running
            failures[span.shard_id] = exc

    wall0 = time.perf_counter()
    threads: List[threading.Thread] = []
    try:
        if num_shards == 1 and layout is None:
            shard_guard(spans[0])
        else:
            for s in spans:
                th = threading.Thread(target=shard_guard, args=(s,),
                                      name=f"shard{s.shard_id}")
                th.start()
                threads.append(th)
            if layout is not None:
                # on this thread, while the workers compute
                _count_and_seal(layout, a, b, grid, cfg.kernel, node_tracer)
    except BaseException as exc:
        if layout is None:
            raise
        # every shard holding a chunk for the layout fails with this
        layout.abandon(exc)
        if not isinstance(exc, Exception):
            raise
    finally:
        for th in threads:
            th.join()
        if owns_pool:
            pool.close()
    wall = time.perf_counter() - wall0

    if failures:
        completed = [t for t in range(num_shards) if shard_profiles[t]]
        raise ShardedRunError(failures, completed)

    # ---- transfer timeline over the per-shard records ----------------
    # socket runs carry *measured* walls; local runs price the in-process
    # broadcast/gather with the alpha-beta model
    if use_socket:
        timeline = measured_transfer_timeline(records)
    else:
        timeline = shard_transfer_timeline(
            records, b_bytes=b.nbytes(), network=cfg.network)

    # ---- merge shard profiles back into one global profile -----------
    stats_global: List[Optional[ChunkStats]] = [None] * grid.num_chunks
    for span, profile in zip(spans, shard_profiles):
        for st in profile.chunks:
            grp = span.rp_lo + st.row_panel
            gcid = grid.chunk_id(grp, st.col_panel)
            stats_global[gcid] = dataclasses.replace(
                st, chunk_id=gcid, row_panel=grp)
    merged = ChunkProfile(
        grid=grid, chunks=tuple(stats_global), name=name,
        measured_wall_seconds=wall,
    )

    matrix = None
    if layout is not None:
        matrix = layout.matrix()
    elif keep_output:
        outputs: List[List[Optional[CSRMatrix]]] = [
            [None] * grid.num_col_panels for _ in range(grid.num_row_panels)
        ]
        for span, outs in zip(spans, shard_outputs):
            for lrp in range(span.num_row_panels):
                outputs[span.rp_lo + lrp] = outs[lrp]
        matrix = assemble_chunks(outputs)

    return ShardedResult(
        matrix=matrix, profile=merged, grid=grid, records=records,
        tracers=tracers, timeline=timeline, num_shards=num_shards,
        wall_seconds=wall,
        ledger_budget_bytes=None if ledger is None else ledger.budget_bytes,
        ledger_peak_bytes=0 if ledger is None else ledger.peak_bytes,
        ledger_overcommits=0 if ledger is None else ledger.overcommits,
    )
