"""Pluggable chunk-execution engine: serial, thread, and process backends.

Public surface:

* :func:`execute_chunk_grid` — the driver (``backend=`` selects where
  chunk kernels run; all backends are bit-identical).
* planning helpers (:func:`plan_hybrid_lanes`, :func:`default_window`,
  :func:`flops_desc_order`, ...) shared by every backend.
* fault tolerance (:mod:`~repro.core.executor.faults`):
  :class:`RetryPolicy` for per-chunk retries with backoff,
  :class:`FaultInjector` / :class:`FaultSpec` for chaos testing, and the
  failure taxonomy (:class:`ChunkExecutionError`,
  :class:`BackendUnavailable`, :class:`BackendDegradedWarning`,
  :class:`InjectedFault`).
* :class:`WorkerCrashed` — raised when process-backend worker deaths
  exceed the crash budget (default 0: any crash aborts the run).
"""

from .engine import (
    DEGRADATION_CHAIN,
    EXECUTOR_BACKENDS,
    execute_chunk_grid,
    resolve_backend_name,
)
from .faults import (
    FAULT_STAGES,
    FAULTS_ENV,
    NO_RETRY,
    BackendDegradedWarning,
    BackendUnavailable,
    ChunkExecutionError,
    FaultInjector,
    FaultSpec,
    InjectedFault,
    RetryPolicy,
)
from .plan import (
    BUFFERS_PER_WORKER,
    default_window,
    filter_lanes,
    plan_hybrid_lanes,
    split_workers,
)
from ..chunks import flops_desc_order, split_by_flop_ratio
from .procpool import WorkerCrashed, resolve_mp_context
from ..governor import (
    ChunkCorruption,
    ChunkTimeout,
    Governor,
    GovernorConfig,
)

__all__ = [
    "BUFFERS_PER_WORKER",
    "DEGRADATION_CHAIN",
    "EXECUTOR_BACKENDS",
    "FAULTS_ENV",
    "FAULT_STAGES",
    "NO_RETRY",
    "BackendDegradedWarning",
    "BackendUnavailable",
    "ChunkCorruption",
    "ChunkExecutionError",
    "ChunkTimeout",
    "Governor",
    "GovernorConfig",
    "FaultInjector",
    "FaultSpec",
    "InjectedFault",
    "RetryPolicy",
    "WorkerCrashed",
    "default_window",
    "execute_chunk_grid",
    "filter_lanes",
    "flops_desc_order",
    "plan_hybrid_lanes",
    "resolve_backend_name",
    "resolve_mp_context",
    "split_by_flop_ratio",
    "split_workers",
]
