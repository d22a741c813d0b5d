"""Distributed-memory SpGEMM: sharded multi-device scale-out + SUMMA.

Two layers (see ``docs/SHARDING.md``):

* :func:`run_sharded` — the out-of-core chunk grid across N simulated
  devices under one global scheduler and one shared host-memory ledger;
* :func:`sparse_summa` — the related-work Sparse SUMMA on a simulated
  ``q x q`` process grid, the comparison EXPERIMENTS.md quotes.
"""

from .shard import (
    ShardConfig,
    ShardRecord,
    ShardSpan,
    ShardedResult,
    ShardedRunError,
    plan_shards,
    run_sharded,
)
from .sharding import (
    NetworkModel,
    measured_transfer_timeline,
    shard_transfer_timeline,
)
from .summa import (
    BlockGrid,
    SummaResult,
    distribute_blocks,
    sparse_summa,
)
from .transport import (
    RemoteShardPool,
    RemoteShardError,
    RemoteWorker,
    ShardWorker,
    TransportDegradedWarning,
    TransportError,
    TransportWorkerLost,
    shard_worker_main,
)

__all__ = [
    "BlockGrid",
    "NetworkModel",
    "RemoteShardError",
    "RemoteShardPool",
    "RemoteWorker",
    "ShardConfig",
    "ShardRecord",
    "ShardSpan",
    "ShardWorker",
    "ShardedResult",
    "ShardedRunError",
    "SummaResult",
    "TransportDegradedWarning",
    "TransportError",
    "TransportWorkerLost",
    "distribute_blocks",
    "measured_transfer_timeline",
    "plan_shards",
    "run_sharded",
    "shard_transfer_timeline",
    "shard_worker_main",
    "sparse_summa",
]
