"""Node-side pool of remote shard workers: drive, watch, reconnect.

The :class:`RemoteShardPool` owns N :class:`RemoteWorker` connections
(optionally the worker *processes* too, spawned via ``repro
shard-worker``) and :func:`run_remote_span` drives one shard's chunk
strip over one of them:

* **operand broadcast** — the run request frames the shard's A slice
  and the full B in binary CSR; the measured ``sendall`` wall is the
  shard's *B-broadcast transfer wall* (what the alpha-beta model used
  to guess);
* **chunk gather** — every finished chunk streams back as a CRC-stamped
  frame, is checked end to end against the worker's CRC (both checks
  from one pass over its bytes) and lands in the shard's
  :class:`~repro.core.spill.Checkpoint`; per-frame wire seconds
  accumulate into the shard's measured *C-gather wall*;
* **liveness** — a :class:`~repro.core.governor.watchdog.HeartbeatLease`
  is renewed by every received frame (heartbeats and chunks alike) and
  polled between reads; an expired lease means the worker is stalled
  even though its socket is open;
* **reconnect** — any transport fault (severed socket, torn frame,
  expired lease) tears the connection down and retries it under an
  exponential-backoff :class:`~repro.core.executor.faults.RetryPolicy`
  whose jitter is deterministic in ``(attempt, shard id)`` — chaos runs
  replay byte-identically.  A successful reconnect re-sends the run
  request with every chunk the checkpoint already holds listed in
  ``skip``, so the worker recomputes only what was in flight —
  bit-identical by chunk determinism.  A failure of the *node's own*
  landing (its store, its manifest) is not a transport fault: it ends
  the span with that exception, the worker still alive;
* **permanent loss** — a worker whose reconnect budget is exhausted is
  marked dead and surfaces as :class:`TransportWorkerLost`; the caller
  (``run_sharded``) re-places the span's remaining chunks on a
  surviving worker or degrades to an in-process shard under a
  :class:`TransportDegradedWarning`.

Chaos injection (``faults`` / ``debug`` in the run request) is sent
until the *first* transport fault only: a request re-sent after it — to
the same worker or a replacement — must not re-kill the recovered run,
mirroring the latch rule of :class:`~repro.core.executor.faults.FaultSpec`.
"""

from __future__ import annotations

import os
import select
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from threading import Lock
from typing import Callable, Dict, List, Optional, Sequence, Set

import numpy as np

from ...core.chunks import ChunkStats
from ...core.executor.faults import RetryPolicy
from ...core.governor.integrity import crc32_matrix, crc32_matrix_of_layout
from ...core.governor.watchdog import HeartbeatLease
from ...sparse.shm import cleanup_segments
from .wire import (
    PROTOCOL_VERSION,
    FrameCorruption,
    TransportError,
    connect_address,
    csr_from_arrays,
    recv_frame,
    send_frame,
)
from .worker import DEFAULT_HEARTBEAT_INTERVAL

__all__ = [
    "DEFAULT_RECONNECT",
    "TransportDegradedWarning",
    "TransportWorkerLost",
    "RemoteShardError",
    "RemoteWorker",
    "RemoteShardPool",
    "RemoteRunResult",
    "run_remote_span",
]

#: default reconnect policy: 3 retry attempts behind exponential backoff
#: with deterministic jitter (salted by shard id — replayable chaos)
DEFAULT_RECONNECT = RetryPolicy(max_attempts=4, base_delay=0.05,
                                max_delay=1.0, jitter=0.5)


class TransportDegradedWarning(RuntimeWarning):
    """A remote shard was lost and its span re-placed in-process."""


class TransportWorkerLost(TransportError):
    """A remote worker is permanently gone (reconnect budget exhausted)."""

    def __init__(self, worker_id: int, address: str, reason: str) -> None:
        super().__init__(
            f"shard worker {worker_id} at {address} lost: {reason}"
        )
        self.worker_id = worker_id
        self.address = address
        self.reason = reason


class RemoteShardError(RuntimeError):
    """The remote run itself failed (a compute error, not a transport
    fault) — carries the worker-side traceback for the node's error
    report.  Not retried over the transport: the same deterministic
    failure would recur."""

    def __init__(self, exc_type: str, message: str, remote_traceback: str) -> None:
        super().__init__(f"remote shard run failed: {exc_type}: {message}")
        self.exc_type = exc_type
        self.remote_traceback = remote_traceback


def _kill_group(process: subprocess.Popen) -> None:
    """SIGKILL an owned worker *and everything it started*, then reap it.

    Owned workers lead their own process group (see
    :meth:`RemoteShardPool.spawn`).  A signal to the worker alone leaves
    its process-backend executor children and its resource tracker
    behind: orphaned to pid 1, they block on the dead worker's task
    queue forever.
    """
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.wait(timeout=10.0)


class RemoteWorker:
    """One remote shard worker endpoint (connection + owned process)."""

    def __init__(self, worker_id: int, address: str, *,
                 process: Optional[subprocess.Popen] = None,
                 connect_timeout: float = 10.0) -> None:
        self.worker_id = worker_id
        self.address = address
        self.process = process
        self.connect_timeout = connect_timeout
        #: serializes runs on this worker (one run per connection at a
        #: time; failover re-placement queues behind the owner's run)
        self.lock = Lock()
        self.sock: Optional[socket.socket] = None
        self.hello: dict = {}
        #: cleared when the reconnect budget is exhausted; a dead worker
        #: is never picked as a failover target
        self.alive = True
        self.reconnects = 0
        self._group_killed = False

    @property
    def connected(self) -> bool:
        return self.sock is not None

    def connect(self) -> None:
        """One connection attempt: socket + ``hello`` handshake.

        A TCP connect can succeed against a wedged worker's listen
        backlog — only the ``hello`` frame proves a live serve loop, so
        the handshake runs under ``connect_timeout`` too.
        """
        self.disconnect()
        sock = connect_address(self.address, timeout=self.connect_timeout)
        try:
            sock.settimeout(self.connect_timeout)
            frame = recv_frame(sock)
            if frame.kind != "hello":
                raise TransportError(
                    f"expected hello from {self.address}, got {frame.kind!r}"
                )
            proto = frame.meta.get("proto")
            if proto != PROTOCOL_VERSION:
                raise TransportError(
                    f"worker at {self.address} speaks protocol {proto!r}, "
                    f"node speaks {PROTOCOL_VERSION}"
                )
        except BaseException:
            try:
                sock.close()
            except OSError:
                pass
            raise
        self.sock = sock
        self.hello = frame.meta

    def disconnect(self) -> None:
        if self.sock is not None:
            try:
                self.sock.close()
            except OSError:
                pass
            self.sock = None

    def request_shutdown(self, timeout: float = 2.0) -> None:
        """Ask the worker process to exit (best-effort, for owned pools)."""
        try:
            if self.sock is None:
                self.connect()
            self.sock.settimeout(timeout)
            send_frame(self.sock, "shutdown", {})
            recv_frame(self.sock)  # bye (or EOF — either is fine)
        except (TransportError, OSError):
            pass
        finally:
            self.disconnect()

    def kill(self) -> None:
        """Chaos helper / teardown: SIGKILL the owned worker's process
        group (the worker and its executor children), once — also when
        the worker itself is already dead, since its children may not be."""
        if self.process is not None and not self._group_killed:
            self._group_killed = True
            _kill_group(self.process)
        self.disconnect()
        self.sweep_shm()

    def sweep_shm(self) -> None:
        """Reclaim ``/dev/shm`` segments a hard-killed worker left.

        Segment names embed the creating pid, so the sweep can only
        touch the dead worker's own run prefixes — a SIGKILL skips the
        worker's atexit sweep, making this the last line of defence
        against leaked shared memory."""
        if self.process is not None and self.process.poll() is not None:
            cleanup_segments(f"repro-{self.process.pid}-")


class RemoteShardPool:
    """N remote shard workers behind one handle.

    Build it with :meth:`spawn` (local ``repro shard-worker``
    subprocesses over unix sockets or localhost TCP — the pool owns and
    reaps them) or :meth:`connect` (externally launched workers, e.g.
    on other hosts reachable by TCP).  More shards than workers is
    fine: spans map onto workers round-robin and serialize on each
    worker's lock.
    """

    def __init__(self, workers: Sequence[RemoteWorker], *,
                 tmpdir: Optional[str] = None,
                 owns_processes: bool = False) -> None:
        if not workers:
            raise ValueError("a RemoteShardPool needs >= 1 worker")
        self.workers: List[RemoteWorker] = list(workers)
        self._tmpdir = tmpdir
        self._owns = owns_processes

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def spawn(cls, count: int, *, kind: str = "unix",
              python: Optional[str] = None,
              startup_timeout: float = 30.0,
              connect_timeout: float = 10.0) -> "RemoteShardPool":
        """Launch ``count`` local worker processes and connect to them.

        ``kind="unix"`` binds one unix socket per worker under a fresh
        temp dir; ``kind="tcp"`` binds ephemeral localhost TCP ports
        (each worker announces its real port on stdout).  Every worker
        starts its own session, so the pool can signal it together with
        the executor processes it forks (:func:`_kill_group`).
        """
        if kind not in ("unix", "tcp"):
            raise ValueError(f"socket kind must be 'unix' or 'tcp', got {kind!r}")
        tmpdir = tempfile.mkdtemp(prefix="repro-transport-")
        env = os.environ.copy()
        pkg_root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (pkg_root, env.get("PYTHONPATH")) if p)
        workers: List[RemoteWorker] = []
        procs: List[subprocess.Popen] = []
        try:
            for t in range(count):
                listen = (f"unix:{tmpdir}/worker{t}.sock" if kind == "unix"
                          else "tcp:127.0.0.1:0")
                proc = subprocess.Popen(
                    [python or sys.executable, "-m", "repro", "shard-worker",
                     "--listen", listen, "--announce"],
                    stdout=subprocess.PIPE, text=True, env=env,
                    start_new_session=True,
                )
                procs.append(proc)
                address = cls._read_announcement(proc, startup_timeout)
                workers.append(RemoteWorker(t, address, process=proc,
                                            connect_timeout=connect_timeout))
            for w in workers:
                w.connect()
        except BaseException:
            for proc in procs:
                if proc.poll() is None:
                    _kill_group(proc)
            shutil.rmtree(tmpdir, ignore_errors=True)
            raise
        return cls(workers, tmpdir=tmpdir, owns_processes=True)

    @classmethod
    def connect(cls, addresses: Sequence[str], *,
                connect_timeout: float = 10.0) -> "RemoteShardPool":
        """Attach to already-running workers (``tcp:...`` / ``unix:...``)."""
        workers = [RemoteWorker(t, addr, connect_timeout=connect_timeout)
                   for t, addr in enumerate(addresses)]
        for w in workers:
            w.connect()
        return cls(workers)

    @staticmethod
    def _read_announcement(proc: subprocess.Popen, timeout: float) -> str:
        """Wait for the worker's ``LISTENING <addr>`` line on stdout."""
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or proc.poll() is not None:
                raise TransportError(
                    "shard worker failed to announce its address "
                    f"(exit code {proc.poll()})"
                )
            ready, _, _ = select.select([proc.stdout], [], [],
                                        min(remaining, 0.25))
            if not ready:
                continue
            line = proc.stdout.readline()
            if not line:
                continue
            if line.startswith("LISTENING "):
                return line.split(" ", 1)[1].strip()

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def worker_for(self, shard_id: int) -> RemoteWorker:
        """The span's home worker (round-robin when shards > workers)."""
        return self.workers[shard_id % len(self.workers)]

    def failover_targets(self, exclude: Set[int]) -> List[RemoteWorker]:
        """Live candidate workers for a dead span, idle ones first."""
        candidates = [w for w in self.workers
                      if w.alive and w.worker_id not in exclude]
        return sorted(candidates,
                      key=lambda w: (w.lock.locked(), w.worker_id))

    def mark_lost(self, worker: RemoteWorker, reason: str) -> None:
        worker.alive = False
        worker.disconnect()

    # ------------------------------------------------------------------
    # chaos / lifecycle
    # ------------------------------------------------------------------
    def kill_worker(self, worker_id: int) -> None:
        """SIGKILL one owned worker process (chaos testing)."""
        self.workers[worker_id].kill()

    def close(self) -> None:
        for w in self.workers:
            if self._owns and w.alive:
                w.request_shutdown()
            else:
                w.disconnect()
        if self._owns:
            for w in self.workers:
                if w.process is not None:
                    if w.process.poll() is None:
                        w.process.terminate()
                        try:
                            w.process.wait(timeout=5.0)
                        except subprocess.TimeoutExpired:
                            pass
                    if w.process.returncode != 0:
                        # only a worker that exited by itself stopped its
                        # own executor children; one that was signalled
                        # (here, or from outside) did not
                        w.kill()
                    if w.process.stdout is not None:
                        w.process.stdout.close()
                    w.sweep_shm()
        if self._tmpdir is not None:
            shutil.rmtree(self._tmpdir, ignore_errors=True)

    def __enter__(self) -> "RemoteShardPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# driving one span over one worker
# ----------------------------------------------------------------------
@dataclass
class RemoteRunResult:
    """Measured transport accounting for one span's remote run."""

    wall_seconds: float = 0.0
    #: measured wall of the operand-broadcast send(s) (A slice + B)
    bcast_seconds: float = 0.0
    #: measured wire seconds of the gathered chunk frames
    gather_seconds: float = 0.0
    bytes_sent: int = 0
    bytes_received: int = 0
    reconnects: int = 0
    heartbeats: int = 0


def run_remote_span(
    worker: RemoteWorker,
    *,
    run_meta: dict,
    run_arrays: Dict[str, object],
    chaos: dict,
    checkpoint,
    heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
    lease_grace: float = 3.0,
    reconnect: Optional[RetryPolicy] = None,
    salt: int = 0,
    mark_lost: Optional[Callable[[RemoteWorker, str], None]] = None,
) -> RemoteRunResult:
    """Drive one shard span to completion on ``worker``.

    ``checkpoint`` (a :class:`~repro.core.spill.Checkpoint`) is the
    span's state on the node: its ``completed`` — resumed chunks plus
    chunks received on earlier attempts — is read on every (re)send to
    build the skip list, and every received chunk whose CRC matches the
    worker's lands in it.  A mismatch is a transport fault: the stream
    is dropped and the chunk recomputed, never trusted.  ``chaos`` holds
    the run request's ``faults`` / ``debug`` hooks and is **emptied** at
    the first transport fault, so neither this worker's re-sent request
    nor a re-placement the caller makes with the same dict re-injects
    them.

    Raises :class:`TransportWorkerLost` when the reconnect budget runs
    out, :class:`RemoteShardError` when the remote run itself fails, and
    whatever ``checkpoint.land`` raised when the node cannot take a
    chunk (the connection is dropped mid-run; the worker stays alive).
    """
    policy = reconnect if reconnect is not None else DEFAULT_RECONNECT
    result = RemoteRunResult()
    t0 = time.perf_counter()
    attempt = 0
    while True:
        try:
            if worker.sock is None:
                worker.connect()
            refused = _drive_once(
                worker, {**run_meta, **chaos}, run_arrays, checkpoint,
                heartbeat_interval, lease_grace, result)
        except RemoteShardError:
            raise
        except (TransportError, OSError) as exc:
            worker.disconnect()
            failure = exc
            attempt += 1
            # chaos already fired (or the fault predates it) — a re-sent
            # request must not re-inject it into the recovered worker
            chaos.clear()
            while True:
                if not policy.should_retry(failure, attempt):
                    reason = f"{type(failure).__name__}: {failure}"
                    if mark_lost is not None:
                        mark_lost(worker, reason)
                    else:
                        worker.alive = False
                    raise TransportWorkerLost(
                        worker.worker_id, worker.address, reason
                    ) from failure
                time.sleep(policy.delay_for(attempt, salt=salt))
                try:
                    worker.connect()
                    worker.reconnects += 1
                    result.reconnects += 1
                    break
                except (TransportError, OSError) as retry_exc:
                    failure = retry_exc
                    attempt += 1
            continue
        if refused is not None:
            # the node's own store or manifest failed, not the transport
            # (raised here, clear of the handler its OSError would match):
            # another attempt or another worker would fail the same way
            worker.disconnect()
            raise refused
        result.wall_seconds = time.perf_counter() - t0
        return result


#: a chunk frame's arrays when its payload is exactly the chunk's layout
_CHUNK_LAYOUT = [("c_row_offsets", np.int64), ("c_col_ids", np.int64),
                 ("c_data", np.float64)]


def _chunk_crc(frame, matrix) -> int:
    """The node-side ``crc32_matrix`` of a received chunk: derived from
    the frame's payload CRC when the payload is exactly the chunk's three
    layout buffers, computed from the matrix otherwise."""
    arrays = frame.arrays
    if ([(name, arr.dtype) for name, arr in arrays.items()] == _CHUNK_LAYOUT
            and sum(arr.nbytes for arr in arrays.values())
            == frame.payload_nbytes):
        return crc32_matrix_of_layout(matrix.shape, frame.payload_crc,
                                      frame.payload_nbytes)
    return crc32_matrix(matrix)


def _drive_once(worker, meta, run_arrays, checkpoint,
                heartbeat_interval, lease_grace, result
                ) -> Optional[Exception]:
    """One request (``meta``, the caller's to fill in) and its response
    stream; transport faults raise.  Returns
    ``None`` at the worker's ``done``, or — at once — the exception with
    which ``checkpoint`` refused a received chunk."""
    sock = worker.sock
    meta["heartbeat_interval"] = heartbeat_interval
    meta["skip"] = [st.to_record() for st in checkpoint.completed.values()]
    sock.settimeout(60.0)
    t_send = time.perf_counter()
    result.bytes_sent += send_frame(sock, "run", meta, run_arrays)
    result.bcast_seconds += time.perf_counter() - t_send
    lease = HeartbeatLease(heartbeat_interval, grace=lease_grace)
    poll = max(min(heartbeat_interval / 2.0, 0.2), 0.02)
    while True:
        sock.settimeout(poll)
        try:
            frame = recv_frame(sock)
        except socket.timeout:
            if lease.expired():
                raise TransportError(
                    f"heartbeat lease expired: worker {worker.worker_id} "
                    f"silent for > {lease.deadline_seconds:.3g}s"
                ) from None
            continue
        lease.beat(frame.meta.get("counter") if frame.kind == "hb" else None)
        if frame.kind == "hb":
            result.heartbeats += 1
        elif frame.kind == "chunk":
            result.bytes_received += frame.nbytes
            result.gather_seconds += frame.wire_seconds
            stats = ChunkStats.from_record(frame.meta["stats"])
            matrix = csr_from_arrays(frame.meta, frame.arrays, prefix="c_")
            crc = frame.meta.get("crc32")
            actual = _chunk_crc(frame, matrix)
            if crc is not None and int(crc) != actual:
                # a chunk that fails its end-to-end CRC poisons the
                # stream: reconnect and let the worker recompute it
                raise FrameCorruption(
                    f"chunk {stats.chunk_id} failed its end-to-end check: "
                    f"worker-side CRC {int(crc):#010x} != node-side "
                    f"{actual:#010x}"
                )
            try:
                checkpoint.land(stats, matrix, crc=actual)
            except Exception as exc:
                return exc
        elif frame.kind == "done":
            return None
        elif frame.kind == "error":
            raise RemoteShardError(
                frame.meta.get("exc_type", "Exception"),
                frame.meta.get("message", ""),
                frame.meta.get("traceback", ""),
            )
        # run-ack and unknown kinds renew the lease and are ignored
