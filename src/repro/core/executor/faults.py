"""Fault tolerance for the chunk executor: retries, fault injection.

The out-of-core formulation (paper Algorithm 3) makes every output chunk
an independent, re-runnable unit of work — exactly the granularity at
which a long run should recover from failures.  This module holds the
backend-independent pieces:

:class:`RetryPolicy`
    per-chunk retry with exponential backoff and deterministic jitter.
    Every backend consults the policy when a chunk attempt fails: a
    retryable failure re-enters the dispatch queue (after the backoff
    delay) instead of killing the run.
:class:`FaultInjector` / :class:`FaultSpec`
    the chaos-testing hook: declaratively inject ``raise`` / ``delay`` /
    ``kill`` faults at any pipeline stage (``analysis`` / ``symbolic`` /
    ``numeric`` / ``sink``), optionally scoped to one chunk, limited to
    N firings, or latched through a file so a fault fires exactly once
    across *processes* (a respawned worker must not re-die forever).
    Specs have a string encoding so they travel to worker processes via
    the :data:`FAULTS_ENV` environment variable or a pool argument.

Exceptions and warnings:

:class:`InjectedFault`
    raised by ``raise``-action fault specs (retryable by default).
:class:`ChunkExecutionError`
    parent-side wrapper for a chunk that failed in a worker process —
    carries the chunk id, the attempt number, and the remote traceback.
:class:`BackendUnavailable`
    raised by a backend that cannot *establish* itself (e.g. the process
    pool fails to spawn or attach).  The engine reacts by degrading
    process -> thread -> serial with a :class:`BackendDegradedWarning`
    instead of failing the run.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple, Union

__all__ = [
    "FAULTS_ENV",
    "FAULT_STAGES",
    "RetryPolicy",
    "FaultSpec",
    "FaultInjector",
    "InjectedFault",
    "ChunkExecutionError",
    "BackendUnavailable",
    "BackendDegradedWarning",
    "default_retryable",
]

#: environment variable holding an encoded fault-spec list; worker
#: processes parse it at startup so injected faults survive respawns
FAULTS_ENV = "REPRO_FAULTS"

#: the pipeline stages a fault can be injected at.  The first three are
#: the kernel phases of :func:`repro.spgemm.twophase.spgemm_twophase`;
#: ``sink`` fires in the parent just before the chunk sink/store write.
FAULT_STAGES = ("analysis", "symbolic", "numeric", "sink")

#: actions a fault spec can perform when it fires.  ``raise`` / ``delay``
#: / ``kill`` are PR 4's crash-coverage set; ``hang`` (stall until the
#: watchdog cancels, capped at ``delay`` seconds), ``oom`` (raise
#: :class:`~repro.device.memory.DeviceOutOfMemory`) and ``corrupt``
#: (raise :class:`~repro.core.governor.ChunkCorruption`) exercise the
#: governor's recovery paths.
FAULT_ACTIONS = ("raise", "delay", "kill", "hang", "oom", "corrupt")


class InjectedFault(RuntimeError):
    """A fault deliberately injected by a :class:`FaultInjector`."""


class ChunkExecutionError(RuntimeError):
    """A chunk attempt failed (possibly in a worker process).

    Carries enough context for the retry policy and for error reports:
    the chunk id, which attempt failed, and — for process-backend
    failures — the worker-side traceback text.
    """

    def __init__(self, chunk_id: int, attempt: int,
                 detail: str = "", stage: Optional[str] = None) -> None:
        msg = f"chunk {chunk_id} failed (attempt {attempt})"
        if stage:
            msg += f" at stage {stage!r}"
        if detail:
            msg += f":\n{detail}"
        super().__init__(msg)
        self.chunk_id = chunk_id
        self.attempt = attempt
        self.stage = stage
        self.detail = detail


class BackendUnavailable(RuntimeError):
    """An executor backend could not be established (no chunk ran).

    Distinct from mid-run failures: the engine only degrades to the next
    backend when the current one signals that it never got going (or can
    report exactly which chunks still need to run)."""

    def __init__(self, backend: str, reason: str) -> None:
        super().__init__(f"backend {backend!r} unavailable: {reason}")
        self.backend = backend
        self.reason = reason


class BackendDegradedWarning(RuntimeWarning):
    """Emitted when the engine falls back to a slower executor backend."""


def default_retryable(exc: BaseException) -> bool:
    """The default retry predicate: any ``Exception`` is retryable.

    ``BaseException``-only failures (``KeyboardInterrupt``,
    ``SystemExit``) never are — an interrupt must abort the run so the
    checkpoint manifest can be resumed instead."""
    return isinstance(exc, Exception)


@dataclass(frozen=True)
class RetryPolicy:
    """Per-chunk retry with exponential backoff and deterministic jitter.

    ``max_attempts`` counts *total* attempts per chunk (1 = no retry, the
    default — existing behaviour).  Delays grow as ``base_delay *
    backoff**(attempt-1)``, capped at ``max_delay``, then stretched by up
    to ``jitter`` (a fraction) using a hash of ``(attempt, chunk id)`` —
    deterministic, so failure handling is reproducible, yet different
    chunks desynchronize instead of retrying in lockstep.

    ``retryable`` classifies failures: it receives the exception of a
    failed attempt and returns whether another attempt is worthwhile.
    The default retries any ``Exception`` (transient kernel faults,
    injected chaos, worker-side errors) but never ``KeyboardInterrupt``
    / ``SystemExit``.

    :meth:`to_record` / :meth:`from_record` carry the five numeric
    fields across the shard wire; ``retryable`` is a callable and does
    not travel — a remote worker classifies failures with the default
    predicate.
    """

    max_attempts: int = 1
    base_delay: float = 0.05
    max_delay: float = 2.0
    backoff: float = 2.0
    jitter: float = 0.5
    retryable: Callable[[BaseException], bool] = field(default=default_retryable)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")
        if self.backoff < 1.0:
            raise ValueError("backoff must be >= 1")
        if not 0.0 <= self.jitter:
            raise ValueError("jitter must be >= 0")

    def to_record(self) -> dict:
        """JSON-safe dict of the numeric fields (not ``retryable``)."""
        return {f: getattr(self, f) for f in _RETRY_RECORD_FIELDS}

    @classmethod
    def from_record(cls, record: dict) -> "RetryPolicy":
        """Inverse of :meth:`to_record`; absent fields keep their
        defaults, unknown keys are ignored."""
        return cls(**{f: record[f] for f in _RETRY_RECORD_FIELDS
                      if f in record})

    def should_retry(self, exc: BaseException, attempt: int) -> bool:
        """Whether attempt ``attempt`` failing with ``exc`` warrants another."""
        return attempt < self.max_attempts and bool(self.retryable(exc))

    def delay_for(self, attempt: int, salt: int = 0) -> float:
        """Backoff delay (seconds) before attempt ``attempt + 1``."""
        if attempt < 1:
            raise ValueError("attempt must be >= 1")
        delay = min(self.base_delay * self.backoff ** (attempt - 1),
                    self.max_delay)
        # deterministic jitter: a hash of (attempt, salt) -> [0, 1)
        mix = (attempt * 0x9E3779B1 + (salt + 1) * 0x85EBCA77) & 0xFFFFFFFF
        return delay * (1.0 + self.jitter * (mix / 2 ** 32))


_RETRY_RECORD_FIELDS = ("max_attempts", "base_delay", "max_delay", "backoff",
                        "jitter")

#: the no-retry policy every entry point defaults to
NO_RETRY = RetryPolicy(max_attempts=1)


@dataclass(frozen=True)
class FaultSpec:
    """One declarative fault: *where* it fires and *what* it does.

    ``stage``
        one of :data:`FAULT_STAGES`.
    ``action``
        ``raise`` (an :class:`InjectedFault`), ``delay`` (sleep
        ``delay`` seconds), ``kill`` (``os._exit(42)`` — a hard worker
        crash; only meaningful under the process backend), ``hang``
        (stall until the watchdog cancels, ``delay`` as a failsafe
        cap), ``oom`` (a ``DeviceOutOfMemory`` — triggers re-split
        recovery), or ``corrupt`` (a ``ChunkCorruption`` — triggers
        recompute).
    ``chunk``
        restrict to one chunk id (``None`` = any chunk).
    ``times``
        firings before the spec goes dormant (``-1`` = unlimited).
        Counted per *process* — use ``latch`` for exactly-once across
        processes.
    ``latch``
        path of a latch file: the spec fires only if it can *create*
        the file (``O_EXCL``), i.e. exactly once machine-wide.  This is
        how a kill fault avoids re-killing every respawned worker.
    """

    stage: str
    action: str
    chunk: Optional[int] = None
    times: int = 1
    delay: float = 0.05
    latch: Optional[str] = None

    def __post_init__(self) -> None:
        if self.stage not in FAULT_STAGES:
            raise ValueError(
                f"unknown fault stage {self.stage!r}; choose from {FAULT_STAGES}"
            )
        if self.action not in FAULT_ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; choose from {FAULT_ACTIONS}"
            )
        if self.times == 0 or self.times < -1:
            raise ValueError("times must be >= 1 or -1 (unlimited)")

    # ------------------------------------------------------------------
    # string encoding — the cross-process transport
    # ------------------------------------------------------------------
    def encode(self) -> str:
        parts = [self.stage, self.action]
        if self.chunk is not None:
            parts.append(f"chunk={self.chunk}")
        if self.times != 1:
            parts.append(f"times={self.times}")
        if self.delay != 0.05:
            parts.append(f"delay={self.delay}")
        if self.latch is not None:
            parts.append(f"latch={self.latch}")
        return ":".join(parts)

    @classmethod
    def decode(cls, text: str) -> "FaultSpec":
        parts = text.strip().split(":")
        if len(parts) < 2:
            raise ValueError(f"malformed fault spec {text!r}")
        kwargs = {}
        for part in parts[2:]:
            key, _, value = part.partition("=")
            if key == "chunk":
                kwargs["chunk"] = int(value)
            elif key == "times":
                kwargs["times"] = int(value)
            elif key == "delay":
                kwargs["delay"] = float(value)
            elif key == "latch":
                kwargs["latch"] = value
            else:
                raise ValueError(f"unknown fault spec field {key!r} in {text!r}")
        return cls(stage=parts[0], action=parts[1], **kwargs)


def _acquire_latch(path: str) -> bool:
    """Atomically create the latch file; False if it already exists."""
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True


class _SpecState:
    __slots__ = ("spec", "remaining")

    def __init__(self, spec: FaultSpec) -> None:
        self.spec = spec
        self.remaining = spec.times  # -1 = unlimited


class FaultInjector:
    """Fires declared :class:`FaultSpec` faults at pipeline stage hooks.

    Thread-safe: one injector is shared by every lane thread of a run.
    Each worker *process* builds its own injector from the encoded spec
    string, so per-process ``times`` counters reset on respawn — specs
    that must fire exactly once across crashes use a ``latch`` file.

    An injector with no specs is inert; ``fire`` is then a no-op cheap
    enough to leave in the hot path.
    """

    def __init__(self, specs: Sequence[FaultSpec] = ()) -> None:
        self._states = [_SpecState(s) for s in specs]
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_string(cls, text: Optional[str]) -> "FaultInjector":
        """Parse a ``;``-separated list of encoded fault specs."""
        if not text:
            return cls()
        return cls([FaultSpec.decode(p) for p in text.split(";") if p.strip()])

    @classmethod
    def from_env(cls, env: Optional[dict] = None) -> "FaultInjector":
        """The injector declared in :data:`FAULTS_ENV` (inert if unset)."""
        env = os.environ if env is None else env
        return cls.from_string(env.get(FAULTS_ENV))

    def encode(self) -> str:
        """The spec string (ship to worker processes / the environment)."""
        return ";".join(st.spec.encode() for st in self._states)

    # ------------------------------------------------------------------
    # firing
    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return bool(self._states)

    @property
    def specs(self) -> Tuple[FaultSpec, ...]:
        return tuple(st.spec for st in self._states)

    def fire(self, stage: str, chunk_id: int) -> None:
        """Fire every armed spec matching ``(stage, chunk_id)``.

        ``delay`` actions sleep; ``raise`` actions raise
        :class:`InjectedFault`; ``kill`` actions hard-exit the process.
        """
        if not self._states:
            return
        for state in self._states:
            spec = state.spec
            if spec.stage != stage:
                continue
            if spec.chunk is not None and spec.chunk != chunk_id:
                continue
            with self._lock:
                if state.remaining == 0:
                    continue
                if spec.latch is not None and not _acquire_latch(spec.latch):
                    continue
                if state.remaining > 0:
                    state.remaining -= 1
            if spec.action == "delay":
                time.sleep(spec.delay)
            elif spec.action == "kill":
                os._exit(42)  # simulate a hard worker crash
            elif spec.action == "hang":
                # stall until the watchdog cancels this chunk (in-process:
                # a ChunkTimeout from the deadline registry; in a worker:
                # the parent kills us mid-sleep).  spec.delay caps the
                # stall so an unwatched hang cannot wedge a run forever.
                from ..governor.watchdog import hang_until_cancelled

                hang_until_cancelled(chunk_id, spec.delay)
            elif spec.action == "oom":
                from ...device.memory import DeviceOutOfMemory

                raise DeviceOutOfMemory(
                    f"injected device OOM: stage={stage} chunk={chunk_id}"
                )
            elif spec.action == "corrupt":
                from ..governor.integrity import ChunkCorruption

                raise ChunkCorruption(
                    f"injected corruption: stage={stage} chunk={chunk_id}"
                )
            else:
                raise InjectedFault(
                    f"injected fault: stage={stage} chunk={chunk_id}"
                )

    def hook_for(self, chunk_id: int) -> Optional[Callable[[str], None]]:
        """A per-chunk stage hook for :func:`spgemm_twophase`'s
        ``fault_hook`` parameter, or ``None`` when inert."""
        if not self._states:
            return None
        return lambda stage: self.fire(stage, chunk_id)


def as_injector(
    faults: Union[None, str, FaultInjector, Sequence[FaultSpec]]
) -> FaultInjector:
    """Normalize a faults argument; ``None`` reads :data:`FAULTS_ENV`."""
    if faults is None:
        return FaultInjector.from_env()
    if isinstance(faults, FaultInjector):
        return faults
    if isinstance(faults, str):
        return FaultInjector.from_string(faults)
    return FaultInjector(list(faults))
