"""Structured tracing for the out-of-core pipeline.

A :class:`Tracer` records *spans* (named intervals with a category and a
lane/thread track) and *gauge samples* (named counter time series) from
any thread; the chunk executor, the two-phase kernel, and the chunk
stores all emit into one tracer, so a single trace shows where every
chunk's time went: queue wait, analysis, symbolic, numeric,
sink/store writes, plus lane queue depth and in-flight window occupancy
over time.

The default everywhere is the :data:`NULL_TRACER`, a :class:`NullTracer`
whose every operation is a constant-time no-op on pre-allocated
singletons — instrumented code paths pay one attribute lookup and one
call when tracing is off, allocate nothing, and (crucially) change no
numeric behaviour: outputs are bit-identical with tracing on or off.

Timestamps are ``time.perf_counter()`` seconds relative to the tracer's
creation, so a fresh tracer per run yields a trace starting at t=0.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = ["Span", "GaugeSample", "Tracer", "NullTracer", "NULL_TRACER", "as_tracer"]


@dataclass(frozen=True)
class Span:
    """One named interval on one lane (thread track)."""

    name: str
    cat: str                    # queue / analysis / symbolic / numeric / sink / store / ...
    lane: str                   # thread track the span belongs to
    start: float                # seconds since tracer creation
    end: float
    args: dict = field(default_factory=dict)
    stream: str = ""            # run/job the span belongs to ("" = sole run)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class GaugeSample:
    """One sample of a named counter series (e.g. queue depth)."""

    name: str
    ts: float                   # seconds since tracer creation
    values: Dict[str, float]    # series name -> value
    stream: str = ""            # run/job the sample belongs to ("" = sole run)


class _SpanHandle:
    """Context manager returned by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_name", "_cat", "_lane", "_args", "_start")

    def __init__(self, tracer: "Tracer", name: str, cat: str,
                 lane: Optional[str], args: dict) -> None:
        self._tracer = tracer
        self._name = name
        self._cat = cat
        self._lane = lane
        self._args = args
        self._start = 0.0

    def __enter__(self) -> "_SpanHandle":
        self._start = self._tracer.now()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer.add_span(
            self._name, self._cat, self._start, self._tracer.now(),
            lane=self._lane, **self._args,
        )


class Tracer:
    """Thread-safe span + gauge recorder.

    All mutating methods may be called concurrently from any thread; the
    lane of a span defaults to the calling thread's name, so worker
    threads of a pool (named per lane by the executor) land on separate
    tracks of the exported trace.
    """

    enabled = True

    def __init__(self, *, stream: str = "") -> None:
        self._t0 = time.perf_counter()
        self._lock = threading.Lock()
        self._spans: List[Span] = []
        self._gauges: List[GaugeSample] = []
        self._counters: Dict[str, Dict[str, float]] = {}
        #: stream label stamped on every span/gauge this tracer records.
        #: Concurrent runs in one process (server jobs) each get their
        #: own tracer labelled with the job id; timestamps are relative
        #: to *this* tracer's creation, so every stream is its own valid
        #: t=0-based timeline instead of an offset into a shared one.
        self.stream = stream

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------
    def now(self) -> float:
        """Seconds since tracer creation (the trace's t=0)."""
        return time.perf_counter() - self._t0

    def rebase_raw(self, raw: float) -> float:
        """Convert a raw ``time.perf_counter()`` stamp to trace time.

        ``perf_counter`` reads a system-wide monotonic clock, so raw
        stamps taken in *worker processes* are directly comparable with
        the parent's: the process executor ships spans as raw intervals
        and the parent rebases them onto this tracer's t=0."""
        return raw - self._t0

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def span(self, name: str, cat: str, *, lane: Optional[str] = None, **args):
        """Context manager timing the enclosed block as one span."""
        return _SpanHandle(self, name, cat, lane, args)

    def add_span(self, name: str, cat: str, start: float, end: float, *,
                 lane: Optional[str] = None, **args) -> None:
        """Record a span with explicit timestamps (e.g. queue wait measured
        between submit and start on different threads)."""
        if lane is None:
            lane = threading.current_thread().name
        sp = Span(name=name, cat=cat, lane=lane, start=start, end=end,
                  args=args, stream=self.stream)
        with self._lock:
            self._spans.append(sp)

    def gauge(self, name: str, **values: float) -> None:
        """Sample a counter series (rendered as a Chrome counter track)."""
        self.add_gauge(name, self.now(), **values)

    def add_gauge(self, name: str, ts: float, **values: float) -> None:
        """Record a gauge sample with an explicit timestamp (e.g. one
        measured in a worker process and rebased via :meth:`rebase_raw`)."""
        sample = GaugeSample(name=name, ts=ts,
                             values={k: float(v) for k, v in values.items()},
                             stream=self.stream)
        with self._lock:
            self._gauges.append(sample)

    def bump(self, name: str, **deltas: float) -> Dict[str, float]:
        """Increment the named cumulative counter set and emit the new
        totals as a gauge sample — the recovery counters (retries,
        respawns, degradations) of the fault-tolerant executor are
        recorded this way, so a trace shows both *when* recovery happened
        (spans) and *how much* (this monotone counter track)."""
        with self._lock:
            counters = self._counters.setdefault(name, {})
            for key, delta in deltas.items():
                counters[key] = counters.get(key, 0.0) + float(delta)
            snapshot = dict(counters)
        self.add_gauge(name, self.now(), **snapshot)
        return snapshot

    def counters(self, name: str) -> Dict[str, float]:
        """Current totals of one :meth:`bump` counter set (empty if unused)."""
        with self._lock:
            return dict(self._counters.get(name, {}))

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    @property
    def spans(self) -> Tuple[Span, ...]:
        with self._lock:
            return tuple(self._spans)

    @property
    def gauges(self) -> Tuple[GaugeSample, ...]:
        with self._lock:
            return tuple(self._gauges)

    def spans_by_cat(self, cat: str) -> Tuple[Span, ...]:
        return tuple(s for s in self.spans if s.cat == cat)

    def gauge_max(self, name: str, key: str) -> Optional[float]:
        """Max of one value across all samples of one gauge series, or
        ``None`` if never sampled — how budget assertions read peaks
        (e.g. ``gauge_max("host_mem", "reserved")``)."""
        best: Optional[float] = None
        for sample in self.gauges:
            if sample.name == name and key in sample.values:
                v = sample.values[key]
                best = v if best is None else max(best, v)
        return best

    def wall_seconds(self) -> float:
        """End of the latest span (the traced run's makespan)."""
        spans = self.spans
        return max((s.end for s in spans), default=0.0)


class _NullSpanHandle:
    """Reusable no-op context manager (a single module-level instance)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpanHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SPAN = _NullSpanHandle()


class NullTracer:
    """The disabled tracer: every operation is a constant-time no-op.

    ``span`` hands back one shared context-manager singleton and nothing
    is ever recorded, so instrumentation left in hot paths costs a method
    call and no allocation when tracing is off.
    """

    enabled = False

    def now(self) -> float:
        return 0.0

    def rebase_raw(self, raw: float) -> float:
        return 0.0

    def span(self, name: str, cat: str, *, lane: Optional[str] = None, **args):
        return _NULL_SPAN

    def add_span(self, name: str, cat: str, start: float, end: float, *,
                 lane: Optional[str] = None, **args) -> None:
        return None

    def gauge(self, name: str, **values: float) -> None:
        return None

    def add_gauge(self, name: str, ts: float, **values: float) -> None:
        return None

    def bump(self, name: str, **deltas: float) -> Dict[str, float]:
        return {}

    def counters(self, name: str) -> Dict[str, float]:
        return {}

    @property
    def spans(self) -> Tuple[Span, ...]:
        return ()

    @property
    def gauges(self) -> Tuple[GaugeSample, ...]:
        return ()

    def spans_by_cat(self, cat: str) -> Tuple[Span, ...]:
        return ()

    def gauge_max(self, name: str, key: str) -> Optional[float]:
        return None

    def wall_seconds(self) -> float:
        return 0.0


#: shared default instance — ``tracer=None`` everywhere resolves to this
NULL_TRACER = NullTracer()


def as_tracer(tracer) -> "Tracer":
    """Normalize an optional tracer argument (None -> the null tracer)."""
    return NULL_TRACER if tracer is None else tracer
