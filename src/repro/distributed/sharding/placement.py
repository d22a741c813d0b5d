"""Least-loaded job placement across shard worker pools.

The serve scheduler admits jobs against one host-memory ledger and (with
``shards > 1``) runs them on per-shard executor pools.  Placement policy
is deliberately the simplest thing that balances: pick the shard with
the fewest running jobs, breaking ties by fewest reserved bytes, then by
lowest shard id — deterministic, O(shards) per decision, and starvation-
free because every completed job decrements its shard's load before the
next dispatch.  Affinity-aware placement (route jobs sharing an operand
digest to the shard whose cache already holds it) is the documented next
step in ``docs/SHARDING.md``.
"""

from __future__ import annotations

import threading
from typing import Dict, List

__all__ = ["ShardPlacement"]


class ShardPlacement:
    """Tracks per-shard load and picks a shard for each admitted job."""

    def __init__(self, num_shards: int) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.num_shards = int(num_shards)
        self._lock = threading.Lock()
        self._running: List[int] = [0] * self.num_shards
        self._reserved: List[int] = [0] * self.num_shards
        self._placed: List[int] = [0] * self.num_shards

    def pick(self, cost_bytes: int = 0) -> int:
        """Choose a shard for a job and charge it there immediately."""
        with self._lock:
            shard = min(
                range(self.num_shards),
                key=lambda t: (self._running[t], self._reserved[t], t),
            )
            self._running[shard] += 1
            self._reserved[shard] += max(int(cost_bytes), 0)
            self._placed[shard] += 1
            return shard

    def release(self, shard: int, cost_bytes: int = 0) -> None:
        """Return a finished/failed job's charge to its shard."""
        with self._lock:
            self._running[shard] = max(0, self._running[shard] - 1)
            self._reserved[shard] = max(
                0, self._reserved[shard] - max(int(cost_bytes), 0))

    def snapshot(self) -> Dict[str, List[int]]:
        with self._lock:
            return {
                "running": list(self._running),
                "reserved_bytes": list(self._reserved),
                "placed_total": list(self._placed),
            }
