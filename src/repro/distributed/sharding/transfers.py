"""Alpha-beta transfer timeline for a sharded chunk-grid run.

A sharded run's data motion has exactly three legs:

* **broadcast** — every shard needs all of ``B``'s column panels; shards
  other than shard 0 (which is co-located with the host copy) receive
  them over the interconnect.  Priced as one binomial-tree broadcast
  (:meth:`NetworkModel.t_broadcast`) landing on
  each receiving shard's NIC — the staged inter-shard broadcast of the
  SUMMA simulator, collapsed to one stage because the chunk engine
  streams column panels internally;
* **compute** — each shard's measured per-chunk kernel seconds, serial
  on its simulated device (the shard's workers overlap *host* work, but
  one simulated device executes its strip's kernels back to back);
* **gather** — each non-host shard ships its finished C strip back,
  one alpha-beta point-to-point transfer on its NIC after its compute.

NIC and device are distinct resources per shard, so broadcasts overlap
other shards' compute exactly the way the node simulator overlaps PCIe
with kernels.  Building the :class:`~repro.device.trace.Timeline` also
backfills each record's ``transfer_bytes`` and ``utilization`` (device
busy fraction over the makespan).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ...device.engine import SimEngine
from ...device.trace import Timeline

__all__ = ["NetworkModel", "shard_transfer_timeline",
           "measured_transfer_timeline"]


@dataclass(frozen=True)
class NetworkModel:
    """Alpha-beta point-to-point model with a tree broadcast."""

    latency: float = 5e-6          # alpha, per message
    bandwidth: float = 10.0e9      # beta⁻¹, bytes/s
    #: local SpGEMM rate of one process (flops/s); SUMMA nodes are CPUs
    compute_rate: float = 2.0e9

    def t_broadcast(self, nbytes: int, fanout: int) -> float:
        """Binomial-tree broadcast to ``fanout`` peers (log2 rounds)."""
        if fanout <= 0:
            return 0.0
        rounds = int(np.ceil(np.log2(fanout + 1)))
        return rounds * (self.latency + nbytes / self.bandwidth)

    def t_compute(self, flops: int) -> float:
        return flops / self.compute_rate



def shard_transfer_timeline(
    records: Sequence,
    *,
    b_bytes: int,
    network: Optional[NetworkModel] = None,
) -> Timeline:
    """Build the simulated device/NIC timeline for one sharded run.

    ``records`` are :class:`~repro.distributed.shard.ShardRecord`-likes
    (``shard_id``, ``compute_seconds``, ``output_bytes`` read;
    ``transfer_bytes`` and ``utilization`` written back).
    """
    net = network or NetworkModel()
    eng = SimEngine()
    for rec in records:
        eng.add_resource(f"dev{rec.shard_id}")
        eng.add_resource(f"nic{rec.shard_id}")

    fanout = len(records) - 1
    for rec in records:
        t = rec.shard_id
        stream = f"shard{t}"
        deps = []
        moved = 0
        if t != 0 and fanout > 0:
            moved += int(b_bytes)
            bcast = eng.submit(
                f"bcast-B[shard{t}]", f"nic{t}",
                net.t_broadcast(int(b_bytes), fanout),
                stream=stream, kind="comm", bytes=int(b_bytes),
            )
            deps = [bcast]
        compute = eng.submit(
            f"compute[shard{t}]", f"dev{t}",
            float(rec.compute_seconds), deps=deps,
            stream=stream, kind="compute",
        )
        if t != 0 and fanout > 0:
            out = int(rec.output_bytes)
            moved += out
            eng.submit(
                f"gather-C[shard{t}]", f"nic{t}",
                net.latency + out / net.bandwidth, deps=[compute],
                stream=stream, kind="comm", bytes=out,
            )
        rec.transfer_bytes = moved

    timeline = eng.run()
    makespan = timeline.makespan()
    for rec in records:
        rec.utilization = (
            float(rec.compute_seconds) / makespan if makespan > 0 else 0.0
        )
    return timeline


def measured_transfer_timeline(records: Sequence) -> Timeline:
    """The socket-transport counterpart of :func:`shard_transfer_timeline`:
    the same dev/NIC timeline shape, but every transfer span carries the
    *measured* wall clocked on the wire — the run-frame ``sendall`` wall
    (operand broadcast) and the summed chunk-frame wire seconds (C-strip
    gather) recorded in each :class:`~repro.distributed.shard.ShardRecord`
    — instead of an alpha-beta estimate.  No resource is exempted as
    "co-located": with real sockets even shard 0's operands cross the
    wire, and a shard that never transferred simply contributes
    zero-length spans.
    """
    eng = SimEngine()
    for rec in records:
        eng.add_resource(f"dev{rec.shard_id}")
        eng.add_resource(f"nic{rec.shard_id}")

    for rec in records:
        t = rec.shard_id
        stream = f"shard{t}"
        sent = int(getattr(rec, "bytes_sent", 0))
        received = int(getattr(rec, "bytes_received", 0))
        bcast = eng.submit(
            f"bcast-B[shard{t}]", f"nic{t}",
            float(getattr(rec, "bcast_seconds", 0.0)),
            stream=stream, kind="comm", bytes=sent,
        )
        compute = eng.submit(
            f"compute[shard{t}]", f"dev{t}",
            float(rec.compute_seconds), deps=[bcast],
            stream=stream, kind="compute",
        )
        eng.submit(
            f"gather-C[shard{t}]", f"nic{t}",
            float(getattr(rec, "gather_seconds", 0.0)), deps=[compute],
            stream=stream, kind="comm", bytes=received,
        )
        rec.transfer_bytes = sent + received

    timeline = eng.run()
    makespan = timeline.makespan()
    for rec in records:
        rec.utilization = (
            float(rec.compute_seconds) / makespan if makespan > 0 else 0.0
        )
    return timeline
