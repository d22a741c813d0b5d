"""The asyncio SpGEMM job server.

A deliberately small HTTP/1.1 server hand-rolled on asyncio streams (no
framework dependency — the container ships none), listening on TCP
and/or a unix socket with one handler:

* ``GET  /v1/health`` — liveness probe;
* ``GET  /v1/stats`` — cache / scheduler / ledger counters;
* ``GET  /v1/jobs/<id>`` — one job's state snapshot (poll mode);
* ``POST /v1/operands`` — materialize + cache an operand spec, return
  its content hash (``{"spec": {...}}``);
* ``POST /v1/jobs`` — submit a multiply job.  Default is wait-mode (the
  response is the final job snapshot); ``"stream": true`` switches the
  response to ``application/x-ndjson`` — one JSON event per line
  (``queued``, ``admitted``, ``started``, ``chunk`` per completed
  chunk, then ``done``/``failed``/``rejected``) as they happen;
  ``"wait": false`` returns the queued snapshot immediately.

Request handling stays on the event loop; everything heavy — operand
materialization, footprint estimation, the engine run itself — happens
on worker threads (the scheduler's bounded pool for runs, the default
executor for operand prep).  The engine is re-entrant (per-run tracer,
governor, caches; thread-keyed deadlines), so concurrent jobs are
ordinary overlapping calls of
:func:`~repro.core.executor.execute_chunk_grid` on operands the job
holds by reference from the cache (:mod:`.cache`).

Every job's result carries the CRC32 fingerprint of the assembled
product (:func:`~repro.core.governor.integrity.crc32_matrix`), so
callers can verify bit-identity against a local single-run execution
without shipping the matrix; ``"return_result": true`` additionally
inlines the product arrays (the oracle path of the load test).
"""

from __future__ import annotations

import asyncio
import collections
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from ..core.chunks import ChunkGrid, csr_bytes, host_bytes_of
from ..core.executor import execute_chunk_grid
from ..core.governor.integrity import crc32_matrix
from ..observability import Tracer, tracer_events, write_chrome_trace
from ..spgemm.estimate import estimate_row_nnz
from ..spgemm.flops import product_prefix
from .body import MAX_BODY_BYTES, decode_json, encode_json
from .cache import DEFAULT_CACHE_BYTES, OperandCache
from .jobs import JobRecord, JobSpec, JobState, canonical_spec, resolve_operand
from .scheduler import DEFAULT_HOST_BUDGET, JobScheduler, TenantQuota

__all__ = ["ServerConfig", "SpgemmServer"]

_TERMINAL = (JobState.DONE, JobState.FAILED, JobState.REJECTED)

#: terminal jobs whose result matrix / inline operands stay fetchable
#: through ``GET /v1/jobs/<id>`` when no connection was waiting for them
#: (``"wait": false``, or a stream client that left); older ones keep
#: only the scalar record
RETAINED_PAYLOADS = 16

#: a job whose whole product count is under this is one chunk's worth of
#: kernel time (~10 ms of the native kernel) and runs on a 1 x 1 grid
#: unless the request names one; larger jobs get a row panel per 256 rows
ONE_CHUNK_PRODUCTS = 1 << 20

#: a job is reserved at its output *ceiling* while that ceiling is at most
#: ``host_mem_bytes // (CEILING_SHARE * slots)``: at most ``slots`` jobs
#: hold reservations at once, so everything the ceilings over-reserve
#: stays under ``1 / CEILING_SHARE`` of the budget.  Only a larger job
#: pays for a sampled estimate (docs/SERVING.md)
CEILING_SHARE = 4

#: bounds on a request head (request line + headers); the body has
#: ``ServerConfig.max_body_bytes``
MAX_HEAD_BYTES = 32 << 10
MAX_HEAD_LINES = 128
HEAD_TIMEOUT_S = 10.0


def price_job(a, b, products: int, sample_above: int) -> Tuple[int, str]:
    """Host bytes admission charges (and the fair queue bills) for
    ``A x B`` -> ``(cost_bytes, "ceiling" | "sampled")``.

    Operands plus the output held as CSR.  The output is priced at
    ``min(products, rows x cols)`` nonzeros, which it can never exceed;
    only when that price is above ``sample_above`` is it worth a sampled
    estimate, and the job is charged the point estimate instead."""
    operands = csr_bytes(a.n_rows, a.nnz) + csr_bytes(b.n_rows, b.nnz)
    ceiling = host_bytes_of(a.n_rows, min(products, a.n_rows * b.n_cols))
    if ceiling <= sample_above:
        return operands + ceiling, "ceiling"
    est = estimate_row_nnz(a, b)
    return (operands + host_bytes_of(a.n_rows, max(int(est.total_nnz), 1)),
            "sampled")


class _Refused(Exception):
    """A request head ``_handle`` answers with an error status."""

    def __init__(self, status: int, error: str) -> None:
        super().__init__(error)
        self.status, self.error = status, error


@dataclass
class ServerConfig:
    """Everything ``repro serve`` exposes as flags."""

    host: str = "127.0.0.1"
    port: int = 0                      # 0 = ephemeral (reported at start)
    unix_socket: Optional[str] = None  # additionally serve on this path
    slots: int = 4                     # concurrent jobs on the pool
    host_mem_bytes: int = DEFAULT_HOST_BUDGET
    cache_bytes: int = DEFAULT_CACHE_BYTES
    quotas: Dict[str, TenantQuota] = field(default_factory=dict)
    default_quota: TenantQuota = field(default_factory=TenantQuota)
    trace_dir: Optional[str] = None    # per-job Chrome traces land here
    max_body_bytes: int = MAX_BODY_BYTES


class SpgemmServer:
    """One serving process: cache + scheduler + HTTP front end."""

    def __init__(self, config: Optional[ServerConfig] = None) -> None:
        self.config = config or ServerConfig()
        self.cache = OperandCache(self.config.cache_bytes)
        self.scheduler = JobScheduler(
            self._run_job,
            slots=self.config.slots,
            host_budget_bytes=self.config.host_mem_bytes,
            quotas=self.config.quotas,
            default_quota=self.config.default_quota,
            on_event=self._on_event,
        )
        self._records: Dict[int, JobRecord] = {}
        self._retained: collections.deque = collections.deque()
        self._operands: Dict[int, Tuple[Any, Any]] = {}
        self._event_queues: Dict[int, asyncio.Queue] = {}
        self._done_events: Dict[int, asyncio.Event] = {}
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._servers = []
        self._started = time.monotonic()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self.scheduler.start()
        srv = await asyncio.start_server(
            self._handle, self.config.host, self.config.port
        )
        self._servers.append(srv)
        self.config.port = srv.sockets[0].getsockname()[1]
        if self.config.unix_socket:
            self._servers.append(
                await asyncio.start_unix_server(
                    self._handle, path=self.config.unix_socket
                )
            )

    @property
    def address(self) -> Tuple[str, int]:
        return (self.config.host, self.config.port)

    async def stop(self) -> None:
        for srv in self._servers:
            srv.close()
            await srv.wait_closed()
        self._servers.clear()
        self.scheduler.stop()
        if self.config.unix_socket:
            Path(self.config.unix_socket).unlink(missing_ok=True)

    # ------------------------------------------------------------------
    # job pipeline
    # ------------------------------------------------------------------
    def _prepare_job(self, spec: JobSpec, record: JobRecord) -> None:
        """Resolve both operands, price the job and pick its grid — all
        from one product count.

        Runs on an executor thread (generator runs, file parses, and
        sampling are real CPU work).  ``_operands`` holds the job's
        ``(a, b)`` from here until its terminal state, so an operand
        evicted from the cache's LRU meanwhile is still the one the job
        runs on, and still found by its hash."""
        mats = []
        for side, op_spec in (("a", spec.a_spec), ("b", spec.b_spec)):
            _, matrix, hit = self._resolve_cached(op_spec)
            mats.append(matrix)
            record.cache_hits[side] = hit
        a, b = mats
        if a.n_cols != b.n_rows:
            raise ValueError(
                f"operand shapes do not chain: {a.shape} x {b.shape}"
            )
        products = int(product_prefix(a, b)[-1])
        if spec.grid is not None:
            rp, cp = spec.grid
        elif products < ONE_CHUNK_PRODUCTS:
            rp, cp = 1, 1
        else:
            rp, cp = min(4, max(1, a.n_rows // 256)), 1
        # refuses a grid finer than the operands (panel_boundaries)
        record.grid = ChunkGrid.regular(a.n_rows, b.n_cols, rp, cp)
        record.chunks_total = record.grid.num_chunks
        record.cost_bytes, record.priced = price_job(
            a, b, products,
            self.config.host_mem_bytes // (CEILING_SHARE * self.config.slots),
        )
        self._operands[record.job_id] = (a, b)

    def _resolve_cached(self, op_spec: Dict[str, Any]):
        """One operand spec -> (key, matrix, cache_hit)."""
        if not isinstance(op_spec, dict):
            raise ValueError("operand spec must be a JSON object")
        if set(op_spec) == {"hash"}:
            key = op_spec["hash"]
            matrix = self.cache.get(key, count=True)
            if matrix is None:
                raise ValueError(f"operand {key[:12]}... is not in the cache")
            return key, matrix, True
        spec_key = None
        if "inline" not in op_spec:
            # deterministic spec: try the alias fast path first
            spec_key = canonical_spec(op_spec)
            key = self.cache.lookup_alias(spec_key)
            if key is not None:
                matrix = self.cache.get(key, count=True)
                if matrix is not None:
                    return key, matrix, True
        key, matrix, hit = self.cache.get_or_put(resolve_operand(op_spec))
        if spec_key is not None:
            self.cache.alias(spec_key, key)
        return key, matrix, hit

    def _run_job(self, record: JobRecord) -> None:
        """Execute one admitted job on a scheduler pool thread."""
        spec = record.spec
        job_tracer = Tracer(stream=f"job{record.job_id}") if spec.trace \
            else None
        try:
            a, b = self._operands[record.job_id]
            with record.lock:
                record.state = JobState.RUNNING
                record.started_at = time.monotonic()

            def on_chunk(cid, stats):
                with record.lock:
                    record.chunks_done += 1
                self._emit(record, {
                    "event": "chunk", "job_id": record.job_id,
                    "chunk": cid, "nnz": stats.nnz_out,
                    "seconds": stats.measured_seconds,
                })

            t0 = time.perf_counter()
            profile, matrix = execute_chunk_grid(
                a, b, record.grid,
                workers=spec.workers,
                backend=spec.backend,
                assemble=True,
                name=f"job{record.job_id}",
                kernel=spec.kernel,
                tracer=job_tracer,
                chunk_events=on_chunk,
            )
            wall = time.perf_counter() - t0
            record.engine_done_at = time.monotonic()
            result = {
                "crc32": crc32_matrix(matrix),
                "nnz": matrix.nnz,
                "shape": list(matrix.shape),
                "wall_seconds": wall,
                "chunks": profile.grid.num_chunks,
            }
            if spec.return_result:
                # the arrays themselves: encode_json writes them natively
                result["matrix"] = {
                    "shape": list(matrix.shape),
                    "row_offsets": matrix.row_offsets,
                    "col_ids": matrix.col_ids,
                    "data": matrix.data,
                }
            if job_tracer is not None and self.config.trace_dir:
                trace_dir = Path(self.config.trace_dir)
                trace_dir.mkdir(parents=True, exist_ok=True)
                path = trace_dir / f"job{record.job_id}.json"
                write_chrome_trace(path, tracer_events(job_tracer))
                result["trace"] = str(path)
            with record.lock:
                record.result = result
                record.state = JobState.DONE
                record.finished_at = time.monotonic()
            self._emit(record, {"event": "done", **record.snapshot()})
        except Exception as exc:
            with record.lock:
                record.state = JobState.FAILED
                record.error = f"{type(exc).__name__}: {exc}"
                record.finished_at = time.monotonic()
            self._emit(record, {"event": "failed", **record.snapshot()})
        finally:
            self._operands.pop(record.job_id, None)

    # ------------------------------------------------------------------
    # events (pool/scheduler threads -> event loop)
    # ------------------------------------------------------------------
    def _on_event(self, record: JobRecord, event: Dict[str, Any]) -> None:
        self._emit(record, event)

    def _emit(self, record: JobRecord, event: Dict[str, Any]) -> None:
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        terminal = event.get("event") in ("done", "failed", "rejected")
        if not terminal and record.job_id not in self._event_queues:
            return  # progress events have one reader: the NDJSON stream

        def deliver() -> None:
            queue = self._event_queues.get(record.job_id)
            if queue is not None:
                queue.put_nowait(event)
            if terminal:
                done = self._done_events.get(record.job_id)
                if done is not None:
                    done.set()
                elif queue is None:
                    # no connection is waiting for this result
                    self._retained.append(record)
                    if len(self._retained) > RETAINED_PAYLOADS:
                        self._retained.popleft().drop_payload()

        try:
            loop.call_soon_threadsafe(deliver)
        except RuntimeError:
            pass  # loop shut down mid-flight

    # ------------------------------------------------------------------
    # HTTP front end
    # ------------------------------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            try:
                head = await asyncio.wait_for(self._read_head(reader),
                                              HEAD_TIMEOUT_S)
            except asyncio.TimeoutError:
                # a stalled peer: nothing in flight to hear out
                await self._respond(writer, 408, {
                    "error": f"request head unfinished after {HEAD_TIMEOUT_S} s"
                })
                return
            if head is None:
                return
            method, path, length = head
            body = await reader.readexactly(length) if length else b""
            await self._route(method.upper(), path, body, writer)
        except _Refused as refusal:
            await self._respond(writer, refusal.status,
                                {"error": refusal.error})
            await self._hear_out(reader)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    @staticmethod
    async def _hear_out(reader: asyncio.StreamReader) -> None:
        """Drop what a refused peer is still sending, until it stops or
        the head deadline passes: closing on unread input resets the
        connection, and the reset can overtake the refusal."""
        async def discard() -> None:
            while await reader.read(1 << 16):
                pass

        try:
            await asyncio.wait_for(discard(), HEAD_TIMEOUT_S)
        except (asyncio.TimeoutError, ConnectionError):
            pass

    async def _read_head(self, reader: asyncio.StreamReader
                         ) -> Optional[Tuple[str, str, int]]:
        """Request line and headers -> ``(method, path, body length)``;
        ``None`` when the peer closed before the blank line.  Bounded in
        bytes and lines; whatever cannot be sized raises
        :class:`_Refused`."""
        too_large = _Refused(431, "request head too large")
        lines = []
        room = MAX_HEAD_BYTES
        while True:
            try:
                line = await reader.readline()
            except ValueError:  # longer than the stream's own line limit
                raise too_large from None
            room -= len(line)
            if room < 0 or len(lines) > MAX_HEAD_LINES:
                raise too_large
            if not line.endswith(b"\n"):
                return None
            if line in (b"\r\n", b"\n"):
                break
            lines.append(line.decode("latin-1"))
        try:
            method, path, _ = lines[0].split(" ", 2)
        except (IndexError, ValueError):
            raise _Refused(400, "bad request line") from None
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            key, _, value = line.partition(":")
            headers[key.strip().lower()] = value.strip()
        if "transfer-encoding" in headers:
            raise _Refused(501, "Transfer-Encoding is not supported; "
                                "send the body with a Content-Length")
        try:
            length = int(headers.get("content-length") or 0)
            if length < 0:
                raise ValueError(length)
        except ValueError:
            raise _Refused(400, "bad Content-Length") from None
        if length > self.config.max_body_bytes:
            raise _Refused(413, "body too large")
        return method, path, length

    async def _route(self, method: str, path: str, body: bytes,
                     writer: asyncio.StreamWriter) -> None:
        if method == "GET" and path == "/v1/health":
            await self._respond(writer, 200, {
                "ok": True, "uptime_seconds": time.monotonic() - self._started,
            })
            return
        if method == "GET" and path == "/v1/stats":
            await self._respond(writer, 200, self.stats())
            return
        if method == "GET" and path.startswith("/v1/jobs/"):
            try:
                job_id = int(path.rsplit("/", 1)[1])
            except ValueError:
                await self._respond(writer, 400, {"error": "bad job id"})
                return
            record = self._records.get(job_id)
            if record is None:
                await self._respond(writer, 404, {"error": "no such job"})
                return
            await self._respond(writer, 200, record.snapshot())
            return
        if method == "POST" and path == "/v1/operands":
            await self._post_operand(body, writer)
            return
        if method == "POST" and path == "/v1/jobs":
            await self._post_job(body, writer)
            return
        await self._respond(writer, 404, {"error": f"no route {method} {path}"})

    async def _post_operand(self, body: bytes,
                            writer: asyncio.StreamWriter) -> None:
        try:
            payload = decode_json(body or b"{}")
            spec = payload["spec"] if "spec" in payload else payload
            loop = asyncio.get_running_loop()
            key, matrix, hit = await loop.run_in_executor(
                None, self._resolve_cached, spec
            )
        except Exception as exc:
            await self._respond(writer, 400, {
                "error": f"{type(exc).__name__}: {exc}"
            })
            return
        await self._respond(writer, 200, {
            "hash": key, "cached": hit, "nbytes": matrix.nbytes(),
        })

    async def _post_job(self, body: bytes,
                        writer: asyncio.StreamWriter) -> None:
        try:
            payload = decode_json(body or b"{}")
            spec = JobSpec.from_payload(payload)
        except Exception as exc:
            await self._respond(writer, 400, {
                "state": JobState.REJECTED.value,
                "error": f"{type(exc).__name__}: {exc}",
            })
            return
        stream = payload.get("stream", False)
        wait = payload.get("wait", True)
        record = JobRecord(spec=spec)
        self._records[record.job_id] = record
        if stream:
            self._event_queues[record.job_id] = asyncio.Queue()
        elif wait:
            self._done_events[record.job_id] = asyncio.Event()
        try:
            try:
                await asyncio.get_running_loop().run_in_executor(
                    None, self._prepare_job, spec, record
                )
            except Exception as exc:
                with record.lock:
                    record.state = JobState.REJECTED
                    record.error = f"{type(exc).__name__}: {exc}"
                await self._respond(writer, 400, record.snapshot())
                return
            record.enqueued_at = time.monotonic()
            accepted, reason = self.scheduler.submit(record)
            if not accepted:
                self._operands.pop(record.job_id, None)
                await self._respond(writer, 429, record.snapshot())
                return
            queued_event = {"event": "queued", **record.snapshot()}
            if stream:
                await self._stream_events(writer, record, queued_event)
            elif wait:
                await self._done_events[record.job_id].wait()
                await self._respond(writer, 200, record.snapshot())
            else:
                await self._respond(writer, 202, queued_event)
        finally:
            self._event_queues.pop(record.job_id, None)
            self._done_events.pop(record.job_id, None)
            answered = stream or wait or record.state is JobState.REJECTED
            if answered and record.state in _TERMINAL:
                # the final snapshot went to this connection (or its
                # client left): nothing will ask for the payload again
                record.drop_payload()

    async def _stream_events(self, writer: asyncio.StreamWriter,
                             record: JobRecord, first: Dict[str, Any]) -> None:
        """NDJSON event stream: one JSON object per line, connection
        close marks the end (no chunked framing needed)."""
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/x-ndjson\r\n"
            "Cache-Control: no-store\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1"))
        queue = self._event_queues[record.job_id]
        try:
            writer.write(encode_json(first) + b"\n")
            await writer.drain()
            while True:
                event = await queue.get()
                writer.write(encode_json(event) + b"\n")
                await writer.drain()
                if event.get("event") in ("done", "failed", "rejected"):
                    break
        except (ConnectionError, RuntimeError):
            pass  # client went away; the job itself keeps running

    async def _respond(self, writer: asyncio.StreamWriter, status: int,
                       obj: Dict[str, Any]) -> None:
        reason = {200: "OK", 202: "Accepted", 400: "Bad Request",
                  404: "Not Found", 408: "Request Timeout",
                  413: "Payload Too Large", 429: "Too Many Requests",
                  431: "Request Header Fields Too Large",
                  501: "Not Implemented"}.get(status, "OK")
        body = encode_json(obj)
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1"))
        writer.write(body)
        try:
            await writer.drain()
        except ConnectionError:
            pass

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        by_state: Dict[str, int] = {}
        by_pricing: Dict[str, int] = {}
        for record in self._records.values():
            by_state[record.state.value] = by_state.get(record.state.value, 0) + 1
            if record.priced is not None:
                by_pricing[record.priced] = by_pricing.get(record.priced, 0) + 1
        scheduler = self.scheduler.stats()
        return {
            "uptime_seconds": time.monotonic() - self._started,
            "cache": self.cache.stats(),
            "scheduler": scheduler,
            "jobs_by_state": by_state,
            "jobs_by_pricing": by_pricing,
            "host_mem_peak_reserved": scheduler["host_peak_bytes"],
        }
