"""Extension experiment: multi-device scaling (beyond the paper).

The paper's conclusion motivates scaling SpGEMM further; this experiment
runs the asynchronous pipeline over 1/2/4 simulated GPUs, each with its
own compute engine and pair of DMA engines (a DGX-style node), and
reports the speedup curve per matrix.  Work is divided the way the real
multi-device path (``run_sharded``) divides it — ``plan_shards``'
contiguous row-panel spans at near-equal cumulative flops — and each
device runs its span flops-descending through the full Fig. 6 pipeline.  Scaling is expectedly sublinear: a grid has only a few
row panels (the Table III regime), so the spans cannot balance finer
than one panel, and a device count above the panel count leaves the
extra devices idle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..core.chunks import ChunkProfile, flops_desc_order
from ..core.schedule import build_async_schedule
from ..device.engine import SimEngine
from ..device.kernels import CostModel, default_cost_model
from ..device.trace import Timeline
from ..distributed.shard import plan_shards
from ..metrics.report import format_table, write_result
from .runner import all_abbrs, get_node, get_profile

__all__ = ["ScalingRow", "GPU_COUNTS", "simulate_devices", "collect", "run"]

GPU_COUNTS: Tuple[int, ...] = (1, 2, 4)


def simulate_devices(profile: ChunkProfile, cm: CostModel,
                     num_gpus: int) -> Timeline:
    """One engine running every device's pipeline concurrently over its
    :func:`~repro.distributed.shard.plan_shards` span of the grid."""
    grid = profile.grid
    flops = np.array([c.flops for c in profile.chunks]).reshape(
        grid.num_row_panels, grid.num_col_panels)
    eng = SimEngine()
    for span in plan_shards(grid, num_gpus, flops):
        gpu, h2d, d2h = (f"{r}{span.shard_id}" for r in ("gpu", "h2d", "d2h"))
        for resource in (gpu, h2d, d2h):
            eng.add_resource(resource)
        first = grid.chunk_id(span.rp_lo, 0)
        order = [first + i
                 for i in flops_desc_order(flops[span.rp_lo:span.rp_hi])]
        build_async_schedule(
            profile, cm, order=order, eng=eng, gpu=gpu, h2d=h2d, d2h=d2h,
            stream_prefix=f"g{span.shard_id}s")
    return eng.run()


@dataclass(frozen=True)
class ScalingRow:
    abbr: str
    times: Tuple[float, ...]  # makespan per GPU count

    def speedup(self, i: int) -> float:
        return self.times[0] / self.times[i]


def collect() -> List[ScalingRow]:
    rows = []
    for abbr in all_abbrs():
        profile = get_profile(abbr)
        cm = default_cost_model(get_node(abbr))
        times = tuple(
            simulate_devices(profile, cm, g).makespan() for g in GPU_COUNTS
        )
        rows.append(ScalingRow(abbr=abbr, times=times))
    return rows


def run() -> str:
    rows = collect()
    table = format_table(
        ["matrix"] + [f"{g} GPU (ms)" for g in GPU_COUNTS]
        + [f"speedup x{g}" for g in GPU_COUNTS[1:]],
        [
            tuple([r.abbr]
                  + [round(t * 1e3, 3) for t in r.times]
                  + [round(r.speedup(i), 2) for i in range(1, len(GPU_COUNTS))])
            for r in rows
        ],
        title="Extension: multi-GPU scaling of the async pipeline "
              "(contiguous row spans)",
        floatfmt=".3f",
    )
    write_result("scaling_multigpu", table)
    return table
