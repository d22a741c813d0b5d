"""Job specs, records, and operand-spec resolution for the server.

A multiply job names two operands and how to run them.  Operand specs
are small JSON objects in one of five forms:

* ``{"suite": "stokes"}`` — a benchmark-suite matrix by name/abbr;
* ``{"path": "m.npz"}`` — an ``.npz``/``.mtx`` file on the server host;
* ``{"gen": {"family": "banded", "n": 512, ...}}`` — a deterministic
  generator invocation (seeded, so the same spec is the same matrix);
* ``{"inline": {"shape": [r, c], "row_offsets": [...], "col_ids":
  [...], "data": [...]}}`` — the matrix shipped in the request body;
* ``{"hash": "<sha256>"}`` — a content address of an operand already in
  the server's cache (uploaded via ``POST /v1/operands`` or left behind
  by an earlier job).

``suite``/``path``/``gen`` specs are deterministic, so their canonical
string (:func:`canonical_spec`) is a valid cache alias: once built, the
server maps spec -> content hash and repeat jobs skip materialization
entirely.  ``inline`` payloads are hashed on arrival; ``hash`` specs
never materialize at all (a cache miss is a client error).
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, List, Optional

from ..core.chunks import ChunkGrid
from ..core.executor import resolve_backend_name
from ..sparse import generators
from ..sparse.formats import CSRMatrix
from ..sparse.io import canonical_csr, load_npz, read_matrix_market
from ..sparse.suite import SUITE, build_matrix
from ..spgemm.kernels import require_kernel

__all__ = [
    "JobState",
    "JobSpec",
    "JobRecord",
    "canonical_spec",
    "resolve_operand",
]

_job_counter = itertools.count(1)

#: generator families a ``gen`` spec may name, with their argument sets
_GEN_FAMILIES = {
    "banded": ("n", "bandwidth", "seed", "fill"),
    "rmat": ("scale", "degree", "seed"),
    "erdos-renyi": ("n", "avg_degree", "seed"),
    "diagonal-blocks": ("n", "block", "seed", "density"),
}


def canonical_spec(spec: Dict[str, Any]) -> str:
    """Deterministic string form of an operand spec (sorted-key JSON) —
    the cache-alias key for deterministic (non-inline) specs."""
    return json.dumps(spec, sort_keys=True, separators=(",", ":"))


def _build_gen(params: Dict[str, Any]) -> CSRMatrix:
    family = params.get("family")
    if family not in _GEN_FAMILIES:
        raise ValueError(
            f"unknown generator family {family!r}; "
            f"choose from {sorted(_GEN_FAMILIES)}"
        )
    allowed = _GEN_FAMILIES[family]
    extra = set(params) - set(allowed) - {"family"}
    if extra:
        raise ValueError(f"unknown {family} parameters: {sorted(extra)}")
    kwargs = {k: params[k] for k in allowed if k in params}
    seed = int(kwargs.pop("seed", 0))
    if family == "banded":
        return generators.banded(
            int(kwargs.pop("n", 512)), int(kwargs.pop("bandwidth", 8)),
            seed=seed, **kwargs,
        )
    if family == "rmat":
        return generators.rmat(
            int(kwargs.pop("scale", 9)), int(kwargs.pop("degree", 8)),
            seed=seed,
        )
    if family == "erdos-renyi":
        return generators.erdos_renyi(
            int(kwargs.pop("n", 512)), float(kwargs.pop("avg_degree", 8.0)),
            seed=seed,
        )
    return generators.diagonal_blocks(
        int(kwargs.pop("n", 512)), int(kwargs.pop("block", 64)),
        seed=seed, **kwargs,
    )


def _build_inline(payload: Dict[str, Any]) -> CSRMatrix:
    try:
        return canonical_csr(payload["shape"], payload["row_offsets"],
                             payload["col_ids"], payload["data"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed inline operand: {exc}") from exc


def resolve_operand(spec: Dict[str, Any]) -> CSRMatrix:
    """Materialize one operand spec (every form except ``hash``, which
    only the server's cache can resolve)."""
    if not isinstance(spec, dict) or len(spec) != 1:
        raise ValueError(
            "an operand spec is one of {'suite': name}, {'path': file}, "
            "{'gen': {...}}, {'inline': {...}}, {'hash': sha256}"
        )
    (kind, value), = spec.items()
    if kind == "suite":
        by_name = {e.name: e.name for e in SUITE}
        by_name.update({e.abbr: e.name for e in SUITE})
        if value not in by_name:
            raise ValueError(f"unknown suite matrix {value!r}")
        return build_matrix(by_name[value])
    if kind == "path":
        if str(value).endswith(".mtx"):
            return read_matrix_market(value)
        if str(value).endswith(".npz"):
            return load_npz(value)
        raise ValueError(f"operand path must be .npz or .mtx, got {value!r}")
    if kind == "gen":
        return _build_gen(dict(value))
    if kind == "inline":
        return _build_inline(value)
    if kind == "hash":
        raise ValueError(
            "a {'hash': ...} operand can only be resolved by the server "
            "cache (upload it first via POST /v1/operands)"
        )
    raise ValueError(f"unknown operand spec kind {kind!r}")


class JobState(str, Enum):
    QUEUED = "queued"        # accepted, waiting in the fair queue
    ADMITTED = "admitted"    # ledger reservation held, awaiting a slot
    RUNNING = "running"      # executing on the worker pool
    DONE = "done"
    FAILED = "failed"
    REJECTED = "rejected"    # quota/validation refusal — never queued


@dataclass
class JobSpec:
    """Validated request payload of one multiply job."""

    a_spec: Dict[str, Any]
    b_spec: Dict[str, Any]
    tenant: str = "default"
    kernel: Optional[str] = None
    backend: Optional[str] = None
    workers: int = 1
    grid: Optional[List[int]] = None   # [row_panels, col_panels]
    return_result: bool = False        # ship the product arrays back
    trace: bool = False                # record + export a per-job trace

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "JobSpec":
        if not isinstance(payload, dict):
            raise ValueError("job payload must be a JSON object")
        known = {"a", "b", "tenant", "kernel", "backend", "workers",
                 "grid", "return_result", "trace", "stream", "wait"}
        extra = set(payload) - known
        if extra:
            raise ValueError(f"unknown job fields: {sorted(extra)}")
        if "a" not in payload or "b" not in payload:
            raise ValueError("a job needs operands 'a' and 'b'")
        for flag in ("return_result", "trace", "stream", "wait"):
            if type(payload.get(flag, False)) is not bool:
                raise ValueError(f"{flag} must be true or false, "
                                 f"not {payload[flag]!r}")
        workers = payload.get("workers", 1)
        if type(workers) is not int or workers < 1:
            raise ValueError(f"workers must be an integer >= 1, "
                             f"not {workers!r}")
        tenant = payload.get("tenant", "default")
        if type(tenant) is not str:
            raise ValueError(f"tenant must be a string, not {tenant!r}")
        # what the engine would refuse is refused here, before the job
        # is priced, queued or given a slot
        kernel, backend = payload.get("kernel"), payload.get("backend")
        require_kernel(kernel)
        if resolve_backend_name(backend, workers, False) == "serial" \
                and workers > 1:
            raise ValueError("the serial backend runs exactly one worker")
        grid = payload.get("grid")
        if grid is not None and (
                type(grid) is not list or len(grid) != 2
                or any(type(x) is not int or x < 1 for x in grid)):
            raise ValueError(f"grid must be [row_panels, col_panels], "
                             f"integers >= 1, not {grid!r}")
        return cls(
            a_spec=payload["a"], b_spec=payload["b"], tenant=tenant,
            kernel=kernel, backend=backend,
            workers=workers, grid=grid,
            return_result=payload.get("return_result", False),
            trace=payload.get("trace", False),
        )


@dataclass
class JobRecord:
    """Lifecycle of one accepted job: state machine + timings + result
    summary.  Mutated by the scheduler/runner threads; read by the HTTP
    handlers — all under :attr:`lock`."""

    spec: JobSpec
    job_id: int = field(default_factory=lambda: next(_job_counter))
    state: JobState = JobState.QUEUED
    error: Optional[str] = None
    # monotonic stamps, in the order a job passes them (see ``stages``)
    submitted_at: float = field(default_factory=time.monotonic)
    enqueued_at: Optional[float] = None     # prepared, handed to the queue
    started_at: Optional[float] = None      # admitted and on a slot thread
    engine_done_at: Optional[float] = None  # the product exists
    finished_at: Optional[float] = None     # CRC'd, terminal (not yet encoded)
    cost_bytes: int = 0                # footprint admission charges
    priced: Optional[str] = None       # "ceiling" | "sampled" (docs/SERVING.md)
    result: Dict[str, Any] = field(default_factory=dict)
    cache_hits: Dict[str, bool] = field(default_factory=dict)
    chunks_done: int = 0
    chunks_total: int = 0
    grid: Optional[ChunkGrid] = None   # set when the job is prepared
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    @property
    def latency_seconds(self) -> Optional[float]:
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    @property
    def stages(self) -> Optional[Dict[str, float]]:
        """Where :attr:`latency_seconds` went, as back-to-back intervals
        between the stamps (so they sum to it): ``prepare`` (operands
        found in the cache or built, job priced), ``queued`` (fair
        queue, admission, slot pickup), ``engine`` (the multiply),
        ``finish`` (CRC, trace export).  A job that died in the engine ends there.  The body is
        encoded after ``finished_at``, by the handler that writes it, so
        its cost is the client's, not a stage's."""
        marks = (self.submitted_at, self.enqueued_at, self.started_at,
                 self.engine_done_at or self.finished_at, self.finished_at)
        if None in marks:
            return None
        names = ("prepare", "queued", "engine", "finish")
        return {n: t1 - t0 for n, t0, t1 in zip(names, marks, marks[1:])}

    def drop_payload(self) -> None:
        """Release the result matrix (the product's three arrays) and
        the inline operand bodies (Python lists); the scalar record stays
        answerable."""
        with self.lock:
            self.result.pop("matrix", None)
            for side in ("a_spec", "b_spec"):
                op_spec = getattr(self.spec, side)
                if isinstance(op_spec, dict) and "inline" in op_spec:
                    setattr(self.spec, side, {"inline": None})

    def snapshot(self) -> Dict[str, Any]:
        """View for ``GET /v1/jobs/<id>`` and event payloads, as
        :func:`~repro.serve.body.encode_json` writes it (a returned
        product's arrays are ndarrays)."""
        with self.lock:
            out = {
                "job_id": self.job_id,
                "tenant": self.spec.tenant,
                "state": self.state.value,
                "chunks_done": self.chunks_done,
                "chunks_total": self.chunks_total,
                "cost_bytes": self.cost_bytes,
                "cache": dict(self.cache_hits),
            }
            if self.error is not None:
                out["error"] = self.error
            if self.priced is not None:
                out["priced"] = self.priced
            if self.latency_seconds is not None:
                out["latency_seconds"] = self.latency_seconds
            stages = self.stages
            if stages is not None:
                out["stages"] = stages
            if self.result:
                out["result"] = dict(self.result)
            return out
