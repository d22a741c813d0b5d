"""Extension experiment: does reordering the *matrix* help the pipeline?

The paper reorders the *chunk schedule*; its related work (Akbudak &
Aykanat, Ballard et al.) reorders the *matrix* for locality.  This
experiment permutes a heavy-tailed suite matrix symmetrically —
degree-descending and reverse Cuthill-McKee — re-plans, re-profiles, and
compares the out-of-core executors on the permuted workloads.

Degree ordering concentrates the hub rows into the leading panels,
sharpening the chunk-flop skew that the hybrid's dense-chunks-to-GPU
assignment feeds on; RCM narrows the structure toward a band.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import List, Sequence

from ..core.api import simulate_hybrid, simulate_out_of_core
from ..core.chunks import ChunkProfile
from ..metrics.report import format_table, write_result
from ..sparse.reordering import degree_order, permute_symmetric, rcm_order
from .runner import cache_dir, get_matrix, get_node, profile_for

__all__ = ["ReorderRow", "ORDERINGS", "collect", "run"]

ORDERINGS = ("original", "degree", "rcm")
MATRICES = ("lj2008", "wiki0206")


@dataclass(frozen=True)
class ReorderRow:
    abbr: str
    ordering: str
    async_gflops: float
    hybrid_gflops: float
    chunk_flop_skew: float  # max/mean chunk flops — what degree-sort sharpens


def _profile(abbr: str, ordering: str) -> ChunkProfile:
    from ..spgemm.kernels import resolved_wire

    wire = resolved_wire()
    key = f"profile_{abbr}_order-{ordering}.json"
    path = cache_dir() / key
    if path.exists():
        payload = json.loads(path.read_text())
        # profiles measured under another kernel are stale (see
        # runner._load_profile_payload); rebuild instead of reusing
        if payload.pop("kernel", "") == wire:
            return ChunkProfile.from_dict(payload)
        path.unlink()
    a = get_matrix(abbr)
    if ordering == "degree":
        a = permute_symmetric(a, degree_order(a))
    elif ordering == "rcm":
        a = permute_symmetric(a, rcm_order(a))
    elif ordering != "original":
        raise ValueError(f"unknown ordering {ordering!r}")
    profile = profile_for(a, a, get_node(abbr), name=f"{abbr}:{ordering}")
    path.write_text(json.dumps({"kernel": wire, **profile.to_dict()}))
    return profile


def collect(matrices: Sequence[str] = MATRICES) -> List[ReorderRow]:
    rows = []
    for abbr in matrices:
        node = get_node(abbr)
        for ordering in ORDERINGS:
            profile = _profile(abbr, ordering)
            flops = [c.flops for c in profile.chunks]
            mean = sum(flops) / len(flops) if flops else 1
            asy = simulate_out_of_core(profile, node)
            hyb = simulate_hybrid(profile, node)
            rows.append(
                ReorderRow(
                    abbr=abbr, ordering=ordering,
                    async_gflops=asy.gflops, hybrid_gflops=hyb.gflops,
                    chunk_flop_skew=max(flops) / mean if flops else 0.0,
                )
            )
    return rows


def run() -> str:
    rows = collect()
    table = format_table(
        ["matrix", "ordering", "chunk-flop skew", "async GF", "hybrid GF"],
        [
            (r.abbr, r.ordering, round(r.chunk_flop_skew, 2),
             round(r.async_gflops, 3), round(r.hybrid_gflops, 3))
            for r in rows
        ],
        title="Extension: symmetric matrix reordering vs the out-of-core pipeline",
        floatfmt=".3f",
    )
    write_result("matrix_reordering", table)
    return table
