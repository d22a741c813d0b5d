"""Per-lane utilization and critical-path analysis of a traced run.

The GPU SpGEMM literature (Liu & Vinter's heterogeneous framework,
OpSparse) attributes performance to per-phase breakdowns — symbolic vs.
numeric vs. transfer.  This module computes the host-side analog from a
:class:`~repro.observability.tracer.Tracer`:

* per-lane busy/utilization figures over the *compute* categories, so an
  idle hybrid lane is visible at a glance;
* a per-category time breakdown (queue wait vs. symbolic vs. numeric vs.
  sink/store);
* the *critical path*: the lane whose last span finishes at the makespan,
  with its busy time and idle gap — the lower bound any further
  scheduling work has to attack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..device.trace import merge_intervals
from .tracer import Span, Tracer

__all__ = [
    "COMPUTE_CATS",
    "LaneUsage",
    "lane_utilization",
    "category_breakdown",
    "critical_path",
    "render_summary",
]

#: span categories that represent actual kernel work (utilization
#: numerator); queue wait and store traffic are overhead categories
COMPUTE_CATS = ("analysis", "symbolic", "numeric")


@dataclass(frozen=True)
class LaneUsage:
    """Busy/utilization figures of one lane (thread track)."""

    lane: str
    busy_seconds: float        # union of compute spans
    span_count: int
    first_start: float
    last_end: float

    def utilization(self, wall: float) -> float:
        return self.busy_seconds / wall if wall > 0 else 0.0


def lane_utilization(tracer: Tracer,
                     cats: Sequence[str] = COMPUTE_CATS) -> List[LaneUsage]:
    """Busy time per lane over the given categories, sorted by lane name."""
    by_lane: Dict[str, List[Span]] = {}
    for s in tracer.spans:
        if s.cat in cats:
            by_lane.setdefault(s.lane, []).append(s)
    usages = []
    for lane, spans in sorted(by_lane.items()):
        merged = merge_intervals([(s.start, s.end) for s in spans])
        usages.append(LaneUsage(
            lane=lane,
            busy_seconds=sum(hi - lo for lo, hi in merged),
            span_count=len(spans),
            first_start=min(s.start for s in spans),
            last_end=max(s.end for s in spans),
        ))
    return usages


def category_breakdown(tracer: Tracer) -> Dict[str, float]:
    """Total span seconds per category (summed across lanes — CPU work,
    not wall time), sorted descending."""
    totals: Dict[str, float] = {}
    for s in tracer.spans:
        totals[s.cat] = totals.get(s.cat, 0.0) + s.duration
    return dict(sorted(totals.items(), key=lambda kv: -kv[1]))


def critical_path(tracer: Tracer) -> dict:
    """The lane finishing last and how much of the makespan it was busy.

    With disjoint-output chunks there are no cross-chunk dependencies, so
    the run's makespan is set by whichever lane drains last; its busy
    time is the irreducible work on the critical path and the gap is
    schedulable slack (queue starvation, window stalls, store latency).
    """
    usages = lane_utilization(tracer)
    wall = tracer.wall_seconds()
    if not usages:
        return {"wall_seconds": wall, "lane": None,
                "busy_seconds": 0.0, "idle_seconds": wall}
    crit = max(usages, key=lambda u: u.last_end)
    return {
        "wall_seconds": wall,
        "lane": crit.lane,
        "busy_seconds": crit.busy_seconds,
        "idle_seconds": max(wall - crit.busy_seconds, 0.0),
    }


def render_summary(tracer: Tracer) -> str:
    """Human-readable utilization + breakdown + critical-path report."""
    wall = tracer.wall_seconds()
    lines = [f"traced wall time: {wall * 1e3:.3f} ms"]

    usages = lane_utilization(tracer)
    if usages:
        lines.append(f"{'lane':<24} {'busy ms':>10} {'util %':>8} {'spans':>6}")
        for u in usages:
            lines.append(
                f"{u.lane:<24} {u.busy_seconds * 1e3:>10.3f} "
                f"{u.utilization(wall) * 100:>7.1f}% {u.span_count:>6}"
            )

    breakdown = category_breakdown(tracer)
    if breakdown:
        lines.append("time by category (summed across lanes):")
        for cat, secs in breakdown.items():
            lines.append(f"  {cat:<14} {secs * 1e3:>10.3f} ms")

    crit = critical_path(tracer)
    if crit["lane"] is not None:
        lines.append(
            f"critical path: lane {crit['lane']} "
            f"(busy {crit['busy_seconds'] * 1e3:.3f} ms, "
            f"idle {crit['idle_seconds'] * 1e3:.3f} ms of "
            f"{crit['wall_seconds'] * 1e3:.3f} ms)"
        )
    return "\n".join(lines)
