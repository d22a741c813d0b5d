"""Remote shard worker: one process hosting one shard's full executor.

``repro shard-worker --listen tcp:127.0.0.1:0`` runs this loop.  The
worker is deliberately *stateless between runs*: it accepts one
connection at a time, answers ``run`` requests by executing the framed
``(A shard, B)`` operands through the ordinary
:func:`~repro.core.executor.execute_chunk_grid` — its own backend,
worker pool, kernel dispatch, and governor, exactly as an in-process
shard would — and streams every finished chunk straight back as a
CRC-stamped binary frame — the executor's ``checkpoint`` here is the
node's, reached over the wire.  All durable state (checkpoint manifests,
chunk stores, resume decisions) lives on the *node*: a worker that dies
loses nothing but its in-flight chunks, and a reconnecting node simply
re-sends the run request with the chunks it already holds listed in
``skip``.

Liveness is pushed, not polled: a daemon thread sends a monotonically
counted ``hb`` frame every ``heartbeat_interval / 2`` seconds — the
process backend's shared-memory heartbeat slot
(:mod:`repro.core.governor.watchdog`) extended across the wire.  The
node arms a :class:`~repro.core.governor.watchdog.HeartbeatLease` per
worker and declares the worker stalled when the lease expires.

Chunk frames and heartbeats share one send lock, so frames never
interleave; a send failure anywhere marks the connection dead and
aborts the current run (the node owns recovery).

Chaos hooks (tests / CI only, requested per run by the node):
``faults`` forwards an encoded :class:`~repro.core.executor.faults.\
FaultSpec` list into the executor (``kill`` hard-exits this process
mid-run); ``debug.sever_after`` hard-closes the socket halfway through
the Nth chunk frame; ``debug.heartbeat_stall`` wedges the heartbeat
thread (holding the send lock) so the node's lease expires while the
process is still alive.
"""

from __future__ import annotations

import os
import socket
import struct
import sys
import threading
import time
import traceback
from typing import Dict, Optional

import numpy as np

from ...core.chunks import ChunkGrid, ChunkStats
from ...core.executor import execute_chunk_grid
from ...core.executor.faults import NO_RETRY, RetryPolicy
from ...core.governor import GovernorConfig
from ...core.governor.integrity import crc32_matrix_of_layout
from ...core.spill import Checkpoint
from ...sparse.codec import crc32_bytes, csr_nbytes
from ...sparse.formats import CSRMatrix
from .wire import (
    PROTOCOL_VERSION,
    Frame,
    TransportClosed,
    TransportError,
    create_listener,
    csr_arrays,
    csr_from_arrays,
    pack_frame,
    recv_frame,
    send_frame,
)

__all__ = ["ShardWorker", "shard_worker_main", "encode_run_config",
           "decode_run_config"]

#: default wire heartbeat period (seconds) when a run does not set one
DEFAULT_HEARTBEAT_INTERVAL = 0.25


def encode_run_config(*, workers: int, window: Optional[int],
                      backend: Optional[str], kernel: Optional[str],
                      retry: Optional[RetryPolicy], crash_budget: int,
                      governor: GovernorConfig) -> dict:
    """The ``config`` object of a run frame: how the remote worker must
    drive its executor.  JSON-safe; :func:`decode_run_config` is the
    inverse, and the two are the only places that know the key names.
    ``retries`` / ``retry_delay`` duplicate two ``retry`` fields for
    workers that predate the full record."""
    retry = retry if retry is not None else NO_RETRY
    return {
        "workers": workers,
        "window": window,
        "backend": backend,
        "kernel": kernel,
        "retries": retry.max_attempts,
        "retry_delay": retry.base_delay,
        "retry": retry.to_record(),
        "crash_budget": crash_budget,
        "deadline_seconds": governor.deadline_seconds,
        "heartbeat_interval_governor": governor.heartbeat_interval,
        "device_pool_bytes": governor.device_pool_bytes,
        "max_resplit_depth": governor.max_resplit_depth,
        "host_mem_budget_bytes": governor.host_mem_budget_bytes,
    }


def decode_run_config(cfg: dict) -> dict:
    """A run frame's ``config`` as ``execute_chunk_grid`` keyword
    arguments (``governor`` is ``None`` when no limit is set).  Missing
    keys take the engine's defaults; unknown keys are ignored."""
    retry = cfg.get("retry") or {  # a node that predates the record
        "max_attempts": cfg.get("retries") or 1,
        "base_delay": cfg.get("retry_delay", NO_RETRY.base_delay),
    }
    governor = GovernorConfig(
        deadline_seconds=cfg.get("deadline_seconds"),
        heartbeat_interval=cfg.get("heartbeat_interval_governor"),
        device_pool_bytes=cfg.get("device_pool_bytes"),
        max_resplit_depth=int(cfg.get("max_resplit_depth") or 8),
        host_mem_budget_bytes=cfg.get("host_mem_budget_bytes"),
    )
    return {
        "workers": int(cfg.get("workers") or 1),
        "window": cfg.get("window"),
        "backend": cfg.get("backend"),
        "kernel": cfg.get("kernel"),
        "retry": RetryPolicy.from_record(retry),
        "crash_budget": int(cfg.get("crash_budget") or 0),
        "governor": governor if governor.enabled else None,
    }


class _Shutdown(Exception):
    """Internal: the node asked this worker process to exit."""


class _NodeCheckpoint(Checkpoint):
    """The node's checkpoint as this worker sees it: ``completed`` is the
    run frame's ``skip`` list, and a chunk lands by going home — its CRC
    and one ``chunk`` frame.  A send failure raises out of the engine's
    sink stage, aborting the run — the node drives all recovery.

    The chunk's buffers are read once, for the frame payload's CRC32;
    the chunk CRC and the frame CRC are both derived from it.
    """

    def __init__(self, connection: "_Connection",
                 skip: Dict[int, ChunkStats]) -> None:
        super().__init__(completed=skip)
        self._connection = connection

    def land(self, stats: ChunkStats, matrix: CSRMatrix) -> None:
        meta, arrays = csr_arrays(matrix, prefix="c_")
        payload_crc = crc32_bytes(*arrays.values())
        meta["stats"] = stats.to_record()
        meta["crc32"] = crc32_matrix_of_layout(
            matrix.shape, payload_crc, csr_nbytes(matrix.n_rows, matrix.nnz))
        self._connection.send_chunk("chunk", meta, arrays,
                                    payload_crc=payload_crc)


class _Connection:
    """One accepted node connection: send lock, heartbeats, chaos hooks."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.send_lock = threading.Lock()
        self.dead = False
        self.chunks_sent = 0
        # chaos hooks, re-armed per run request
        self.sever_after = 0       # 0 = disabled
        self.heartbeat_stall = 0.0
        self._stalled_once = False

    def send(self, kind: str, meta: Optional[dict] = None,
             arrays=None) -> None:
        with self.send_lock:
            self._send_locked(kind, meta, arrays)

    def _send_locked(self, kind, meta, arrays, payload_crc=None) -> None:
        if self.dead:
            raise TransportClosed("connection already marked dead")
        try:
            send_frame(self.sock, kind, meta, arrays, payload_crc=payload_crc)
        except (TransportError, OSError):
            self.dead = True
            raise

    def send_chunk(self, kind: str, meta: dict, arrays, *,
                   payload_crc: int) -> None:
        with self.send_lock:
            self.chunks_sent += 1
            if self.sever_after and self.chunks_sent == self.sever_after:
                self._sever(kind, meta, arrays)
            self._send_locked(kind, meta, arrays, payload_crc)

    def _sever(self, kind, meta, arrays) -> None:
        """Chaos: put *half* a frame on the wire, then hard-close."""
        self.dead = True
        frame = pack_frame(kind, meta, arrays)
        try:
            self.sock.sendall(frame[: max(1, len(frame) // 2)])
            # RST instead of FIN: the node must see a torn stream, not a
            # tidy end-of-stream
            self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                 struct.pack("ii", 1, 0))
        except OSError:
            pass
        finally:
            try:
                self.sock.close()
            except OSError:
                pass
        raise TransportClosed("chaos: connection severed mid-frame")

    def heartbeat_loop(self, interval: float, stop: threading.Event) -> None:
        counter = 0
        while not stop.wait(interval / 2.0):
            try:
                with self.send_lock:
                    if (self.heartbeat_stall > 0 and not self._stalled_once
                            and self.chunks_sent >= 1):
                        # chaos: wedge *with the send lock held* so chunk
                        # frames stall too — total silence on the wire
                        self._stalled_once = True
                        time.sleep(self.heartbeat_stall)
                    counter += 1
                    self._send_locked("hb", {"counter": counter}, None)
            except (TransportError, OSError):
                return


class ShardWorker:
    """The remote shard worker loop (see module docstring)."""

    def __init__(self, address: str, *, announce: bool = False,
                 announce_to=None) -> None:
        self._listener, self.address = create_listener(address)
        if announce:
            out = announce_to if announce_to is not None else sys.stdout
            print(f"LISTENING {self.address}", file=out, flush=True)
        self._shutdown = False

    def serve_forever(self) -> None:
        try:
            while not self._shutdown:
                try:
                    sock, _ = self._listener.accept()
                except OSError:
                    break
                try:
                    self._serve_connection(sock)
                except _Shutdown:
                    self._shutdown = True
                except (TransportError, OSError):
                    pass  # connection lost; wait for the node to return
                finally:
                    try:
                        sock.close()
                    except OSError:
                        pass
        finally:
            self.close()

    def close(self) -> None:
        try:
            self._listener.close()
        except OSError:
            pass
        kind = self.address.partition(":")[0]
        if kind == "unix":
            path = self.address.partition(":")[2]
            try:
                os.unlink(path)
            except OSError:
                pass

    # ------------------------------------------------------------------
    # per-connection protocol
    # ------------------------------------------------------------------
    def _serve_connection(self, sock: socket.socket) -> None:
        sock.settimeout(None)
        conn = _Connection(sock)
        conn.send("hello", {"proto": PROTOCOL_VERSION, "pid": os.getpid(),
                            "address": self.address})
        while True:
            frame = recv_frame(sock)
            if frame.kind == "run":
                self._handle_run(conn, frame)
                if conn.dead:
                    raise TransportClosed("connection died during run")
            elif frame.kind == "ping":
                conn.send("pong", {})
            elif frame.kind == "shutdown":
                try:
                    conn.send("bye", {})
                except TransportError:
                    pass
                raise _Shutdown()
            # unknown kinds are ignored: forward-compatible protocol

    def _handle_run(self, conn: _Connection, frame: Frame) -> None:
        meta = frame.meta
        hb_interval = float(meta.get("heartbeat_interval")
                            or DEFAULT_HEARTBEAT_INTERVAL)
        debug = meta.get("debug") or {}
        conn.sever_after = int(debug.get("sever_after") or 0)
        conn.heartbeat_stall = float(debug.get("heartbeat_stall") or 0.0)
        conn._stalled_once = False
        stop = threading.Event()
        hb = threading.Thread(
            target=conn.heartbeat_loop, args=(hb_interval, stop),
            name="shard-worker-hb", daemon=True,
        )
        hb.start()
        try:
            self._execute_run(conn, frame)
        except (TransportError, OSError):
            raise  # connection-level failure; nothing left to report on it
        except BaseException as exc:
            if not conn.dead:
                conn.send("error", {
                    "exc_type": type(exc).__name__,
                    "message": str(exc),
                    "traceback": "".join(traceback.format_exception(
                        type(exc), exc, exc.__traceback__)),
                })
        finally:
            stop.set()
            hb.join(timeout=2.0)

    def _execute_run(self, conn: _Connection, frame: Frame) -> None:
        meta = frame.meta
        a = csr_from_arrays(meta, frame.arrays, prefix="a_")
        b = csr_from_arrays(meta, frame.arrays, prefix="b_")
        grid = ChunkGrid(
            row_bounds=np.asarray(meta["grid"]["row_bounds"], dtype=np.int64),
            col_bounds=np.asarray(meta["grid"]["col_bounds"], dtype=np.int64),
        )
        skip = {int(rec["chunk_id"]): ChunkStats.from_record(rec)
                for rec in meta.get("skip", [])}
        conn.send("run-ack", {"chunks": grid.num_chunks,
                              "skipped": len(skip)})
        t0 = time.perf_counter()
        execute_chunk_grid(
            a, b, grid,
            checkpoint=_NodeCheckpoint(conn, skip),
            name=str(meta.get("name") or "remote-shard"),
            faults=meta.get("faults") or None,
            **decode_run_config(meta.get("config") or {}),
        )
        conn.send("done", {
            "wall_seconds": time.perf_counter() - t0,
            "chunks": grid.num_chunks,
            "computed": grid.num_chunks - len(skip),
        })


def shard_worker_main(listen: str, *, announce: bool = False) -> int:
    """Entry point for ``repro shard-worker``."""
    worker = ShardWorker(listen, announce=announce)
    try:
        worker.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        worker.close()
    return 0
