"""Pipeline tracing and observability.

One :class:`Tracer` collects spans (queue wait, analysis, symbolic,
numeric, sink/store writes) and gauges (lane queue depth,
in-flight window occupancy, chunk-store bytes) from every layer of the
out-of-core pipeline; :mod:`~repro.observability.chrome` exports the
result as Chrome-trace-event JSON loadable in ``chrome://tracing`` /
Perfetto — with simulated schedules as a sibling process for
side-by-side comparison — and :mod:`~repro.observability.summary`
reduces it to per-lane utilization and the critical path.

Tracing defaults off (:data:`NULL_TRACER`): instrumented paths are
no-ops that allocate nothing and never change numeric results.
"""

from .chrome import (
    MEASURED_PID,
    SIMULATED_PID,
    multi_tracer_events,
    timeline_events,
    tracer_events,
    validate_chrome_trace,
    write_chrome_trace,
)
from .summary import (
    COMPUTE_CATS,
    LaneUsage,
    category_breakdown,
    critical_path,
    lane_utilization,
    render_summary,
)
from .tracer import NULL_TRACER, GaugeSample, NullTracer, Span, Tracer, as_tracer

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Span",
    "GaugeSample",
    "as_tracer",
    "MEASURED_PID",
    "SIMULATED_PID",
    "tracer_events",
    "multi_tracer_events",
    "timeline_events",
    "write_chrome_trace",
    "validate_chrome_trace",
    "COMPUTE_CATS",
    "LaneUsage",
    "lane_utilization",
    "category_breakdown",
    "critical_path",
    "render_summary",
]
