"""Execution timelines and overlap analysis.

A :class:`Timeline` is the output of a simulation run: one record per
command with start/end times.  The analysis helpers compute exactly the
quantities the paper's evaluation reports:

* ``transfer_fraction`` — Fig. 4's "percentage of data transfer time over
  total execution time";
* ``busy_time`` / ``busy_fraction`` per resource;
* ``overlap_time`` between two resources — how much compute actually hid
  under transfers (the asynchronous pipeline's win, Fig. 8);
* ordering assertions for the divided-transfer schedule of Fig. 6.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["TraceRecord", "Timeline", "merge_intervals"]


@dataclass(frozen=True)
class TraceRecord:
    label: str
    resource: str
    stream: Optional[str]
    start: float
    end: float
    meta: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def merge_intervals(intervals: List[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """Union of possibly-overlapping intervals (for capacity > 1 resources)."""
    if not intervals:
        return []
    intervals.sort()
    merged = [intervals[0]]
    for lo, hi in intervals[1:]:
        if lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


@dataclass(frozen=True)
class Timeline:
    records: Tuple[TraceRecord, ...]

    def makespan(self) -> float:
        """Total simulated execution time."""
        return max((r.end for r in self.records), default=0.0)

    def ops_on(self, resource: str) -> Tuple[TraceRecord, ...]:
        return tuple(r for r in self.records if r.resource == resource)

    def with_label(self, prefix: str) -> Tuple[TraceRecord, ...]:
        return tuple(r for r in self.records if r.label.startswith(prefix))

    def busy_intervals(self, resource: str) -> List[Tuple[float, float]]:
        return merge_intervals(
            [(r.start, r.end) for r in self.records if r.resource == resource and r.duration > 0]
        )

    def busy_time(self, resource: str) -> float:
        """Wall time during which the resource serves at least one op."""
        return sum(hi - lo for lo, hi in self.busy_intervals(resource))

    def busy_fraction(self, resource: str) -> float:
        span = self.makespan()
        return self.busy_time(resource) / span if span > 0 else 0.0

    def transfer_fraction(self, directions: Sequence[str] = ("d2h", "h2d")) -> float:
        """Fraction of total time with a data transfer in flight (Fig. 4)."""
        intervals: List[Tuple[float, float]] = []
        for d in directions:
            intervals.extend(self.busy_intervals(d))
        merged = merge_intervals(intervals)
        span = self.makespan()
        return sum(hi - lo for lo, hi in merged) / span if span > 0 else 0.0

    def overlap_time(self, res_a: str, res_b: str) -> float:
        """Wall time during which both resources are simultaneously busy."""
        a = self.busy_intervals(res_a)
        b = self.busy_intervals(res_b)
        out = 0.0
        i = j = 0
        while i < len(a) and j < len(b):
            lo = max(a[i][0], b[j][0])
            hi = min(a[i][1], b[j][1])
            if hi > lo:
                out += hi - lo
            if a[i][1] <= b[j][1]:
                i += 1
            else:
                j += 1
        return out

    def order_of(self, labels: Sequence[str]) -> List[str]:
        """The given labels sorted by their start time (for schedule
        assertions a la Fig. 6).  Unknown labels raise KeyError."""
        by_label: Dict[str, TraceRecord] = {}
        for r in self.records:
            by_label.setdefault(r.label, r)
        missing = [l for l in labels if l not in by_label]
        if missing:
            raise KeyError(f"labels not in timeline: {missing}")
        return sorted(labels, key=lambda l: (by_label[l].start, by_label[l].end))

    def as_text(self, max_rows: int = 60) -> str:
        """Human-readable dump, ordered by start time."""
        rows = sorted(self.records, key=lambda r: (r.start, r.end))
        lines = [f"{'start':>12} {'end':>12} {'resource':<10} {'stream':<8} label"]
        for r in rows[:max_rows]:
            lines.append(
                f"{r.start * 1e3:>10.3f}ms {r.end * 1e3:>10.3f}ms "
                f"{r.resource:<10} {str(r.stream or '-'):<8} {r.label}"
            )
        if len(rows) > max_rows:
            lines.append(f"... ({len(rows) - max_rows} more)")
        return "\n".join(lines)
