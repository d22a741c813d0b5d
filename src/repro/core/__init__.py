"""The paper's contribution: out-of-core, asynchronous, hybrid SpGEMM."""

from .api import (
    run_hybrid,
    run_out_of_core,
    simulate_cpu_baseline,
    simulate_hybrid,
    simulate_out_of_core,
    spgemm,
)
from .assemble import OutputLayout, assemble_chunks
from .chunks import ChunkGrid, ChunkProfile, ChunkStats, GridSizing, chunk_flops
from .executor import (
    EXECUTOR_BACKENDS,
    BackendDegradedWarning,
    BackendUnavailable,
    ChunkCorruption,
    ChunkExecutionError,
    ChunkTimeout,
    FaultInjector,
    FaultSpec,
    Governor,
    GovernorConfig,
    InjectedFault,
    RetryPolicy,
    WorkerCrashed,
    execute_chunk_grid,
    plan_hybrid_lanes,
)
from .hybrid import (
    DEFAULT_RATIO,
    HybridAssignment,
    assign_chunks,
    assign_first_n,
    best_gpu_chunk_count,
    build_hybrid_engine,
)
from .memcheck import MemoryReplay, replay_dynamic, replay_pool
from .planner import PlanReport, plan_grid, working_set_bytes
from .results import RunResult
from .spill import (
    DiskChunkStore,
    ManifestMismatch,
    MemoryChunkStore,
    RunManifest,
    SpillableChunkStore,
)
from .schedule import build_async_schedule, build_sync_schedule

__all__ = [
    "run_hybrid",
    "run_out_of_core",
    "simulate_cpu_baseline",
    "simulate_hybrid",
    "simulate_out_of_core",
    "spgemm",
    "OutputLayout",
    "assemble_chunks",
    "ChunkGrid",
    "ChunkProfile",
    "ChunkStats",
    "GridSizing",
    "chunk_flops",
    "EXECUTOR_BACKENDS",
    "BackendDegradedWarning",
    "BackendUnavailable",
    "ChunkCorruption",
    "ChunkExecutionError",
    "ChunkTimeout",
    "FaultInjector",
    "FaultSpec",
    "Governor",
    "GovernorConfig",
    "InjectedFault",
    "RetryPolicy",
    "WorkerCrashed",
    "execute_chunk_grid",
    "plan_hybrid_lanes",
    "DEFAULT_RATIO",
    "HybridAssignment",
    "assign_chunks",
    "assign_first_n",
    "best_gpu_chunk_count",
    "build_hybrid_engine",
    "PlanReport",
    "plan_grid",
    "working_set_bytes",
    "MemoryReplay",
    "replay_dynamic",
    "replay_pool",
    "RunResult",
    "DiskChunkStore",
    "ManifestMismatch",
    "MemoryChunkStore",
    "RunManifest",
    "SpillableChunkStore",
    "build_async_schedule",
    "build_sync_schedule",
]
