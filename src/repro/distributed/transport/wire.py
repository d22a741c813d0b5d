"""Socket carrier for shard transport messages.

One frame of :mod:`repro.sparse.codec` carries one protocol message
between the node and a remote shard worker — CSR operands and result
chunks travel as their raw ``row_offsets`` / ``col_ids`` / ``data``
buffers, never pickled.  The frame format, its CRC32 and every decode
check live in the codec (DESIGN.md, "Byte layout"); this module adds
what a *stream* needs: exact reads, the typed failures the node's
reconnect logic keys on, and addresses.

A frame that fails to decode — a torn write, a bit-flip on the wire —
surfaces as a typed :class:`FrameCorruption` instead of a silently
wrong operand.  A clean EOF between frames is a normal connection end;
an EOF or a timeout *inside* a frame is a severed connection and raises
:class:`TransportClosed` — callers (the node-side pool) treat all of
these as reconnectable transport faults, never as data.

Addresses are strings — ``tcp:HOST:PORT`` or ``unix:PATH`` — so the
same worker binary, CLI flag, and test can run over localhost TCP or a
unix domain socket.
"""

from __future__ import annotations

import os
import socket
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from ...sparse import codec
from ...sparse.codec import FrameError, csr_arrays, frame_parts, pack_frame
from ...sparse.formats import CSRMatrix

__all__ = [
    "PROTOCOL_VERSION",
    "TransportError",
    "TransportClosed",
    "FrameCorruption",
    "Frame",
    "pack_frame",
    "send_frame",
    "recv_frame",
    "csr_arrays",
    "csr_from_arrays",
    "parse_address",
    "format_address",
    "create_listener",
    "connect_address",
]

#: bump on any incompatible frame/message change; ``hello`` carries it
#: and the node refuses a worker speaking a different version.
PROTOCOL_VERSION = 1

#: once a frame has started arriving, the rest of it gets at least this
#: long (seconds) however short the caller's idle-poll timeout is
_MID_FRAME_TIMEOUT = 30.0

#: the most a read allocates ahead of the bytes that arrived
_RECV_BUFFER_CAP = 16 << 20


class TransportError(RuntimeError):
    """Base class for shard-transport failures (all reconnectable)."""


class TransportClosed(TransportError):
    """The peer closed (or the kernel severed) the connection."""


class FrameCorruption(TransportError):
    """A frame failed its CRC32 or did not parse.

    The transport treats this exactly like a severed connection: the
    stream can no longer be trusted, so the node drops it and
    re-requests the remaining work over a fresh connection (chunks are
    deterministic — the redo is bit-identical)."""


@dataclass
class Frame:
    """One decoded message: kind, scalar meta, named arrays."""

    kind: str
    meta: dict = field(default_factory=dict)
    arrays: Dict[str, np.ndarray] = field(default_factory=dict)
    #: total framed size (prefix struct + header + payload)
    nbytes: int = 0
    #: wall seconds spent reading the frame *after* its first bytes
    #: arrived — the measured wire time, excluding the wait for the
    #: peer to start sending (that wait is compute, not transfer)
    wire_seconds: float = 0.0
    #: the payload's own CRC32 and length — the one pass over it, from
    #: which the frame's CRC was derived (and a chunk's can be)
    payload_crc: int = 0
    payload_nbytes: int = 0


def _recv_exact(sock: socket.socket, n: int, *, mid_frame: bool) -> np.ndarray:
    """Read exactly ``n`` bytes, ``recv_into`` one buffer (writable:
    decoded arrays alias it); raise :class:`TransportClosed` on EOF,
    reset, or a timeout once part of a frame has been consumed.

    Memory follows what actually arrives, never what a (possibly
    corrupted) length field announced: the buffer starts at most
    :data:`_RECV_BUFFER_CAP` bytes long and doubles only when the bytes
    read so far fill it, so it never exceeds the larger of the cap and
    twice the bytes arrived."""
    buf = np.empty(min(n, _RECV_BUFFER_CAP), dtype=np.uint8)
    got = 0
    while got < n:
        if got == buf.size:
            grown = np.empty(min(n, 2 * got), dtype=np.uint8)
            grown[:got] = buf
            buf = grown
        try:
            part = sock.recv_into(buf[got:])
        except socket.timeout as exc:
            if not (mid_frame or got):
                raise  # nothing consumed: the caller's idle poll
            # the bytes already read are gone — the stream is desynchronised
            raise TransportClosed(f"timed out mid-frame: {exc}") from exc
        except (ConnectionError, BrokenPipeError) as exc:
            raise TransportClosed(f"connection reset mid-read: {exc}") from exc
        if not part:
            where = "mid-frame" if mid_frame or got else "between frames"
            raise TransportClosed(f"peer closed the connection {where}")
        got += part
    return buf


def send_frame(sock: socket.socket, kind: str, meta: Optional[dict] = None,
               arrays: Optional[Dict[str, np.ndarray]] = None, *,
               payload_crc: Optional[int] = None) -> int:
    """Frame and send one message; returns the bytes put on the wire.

    ``sendall`` under the caller's send lock — frames from the
    heartbeat thread and the chunk sink must never interleave.  The
    array parts go out as they are, never joined into one copy;
    ``payload_crc`` is :func:`~repro.sparse.codec.frame_parts`'.
    """
    prefix, header, *payload = frame_parts(kind, meta, arrays,
                                           payload_crc=payload_crc)
    try:
        sock.sendall(prefix + header)
        for part in payload:
            sock.sendall(part)
    except (ConnectionError, BrokenPipeError, OSError) as exc:
        raise TransportClosed(f"send failed: {exc}") from exc
    return len(prefix) + len(header) + sum(part.nbytes for part in payload)


def recv_frame(sock: socket.socket) -> Frame:
    """Read and verify one frame (blocking; honors the socket timeout).

    A ``socket.timeout`` while waiting for the *first* byte propagates
    to the caller (that is the heartbeat-lease poll); once a frame has
    started arriving the read runs to completion, and a timeout from
    then on is a :class:`TransportClosed`.  The decoded arrays own
    their memory (they alias the receive buffer, which nothing else
    holds).  The payload is read once for its CRC: the frame's check is
    derived from that value, which the frame keeps as ``payload_crc``.
    """
    prefix = _recv_exact(sock, codec.FRAME_PREFIX.size, mid_frame=False)
    t0 = time.perf_counter()
    try:
        header_len, payload_len, crc = codec.unpack_prefix(prefix)
        # the frame has started: finish it even under a short poll timeout
        timeout = sock.gettimeout()
        if timeout is not None:
            sock.settimeout(max(timeout, _MID_FRAME_TIMEOUT))
        try:
            header = _recv_exact(sock, header_len, mid_frame=True)
            payload = _recv_exact(sock, payload_len, mid_frame=True)
        finally:
            sock.settimeout(timeout)
        payload_crc = codec.crc32_bytes(payload)
        kind, meta, arrays = codec.unpack_body(header, payload, crc,
                                               payload_crc=payload_crc)
    except FrameError as exc:
        raise FrameCorruption(str(exc)) from exc
    return Frame(kind=kind, meta=meta, arrays=arrays,
                 nbytes=len(prefix) + header_len + payload_len,
                 wire_seconds=time.perf_counter() - t0,
                 payload_crc=payload_crc, payload_nbytes=payload_len)


def csr_from_arrays(meta: dict, arrays: Dict[str, np.ndarray],
                    prefix: str = "") -> CSRMatrix:
    """Decode a CSR matrix framed by :func:`csr_arrays` (validated —
    a corrupt structure raises before it can reach a kernel)."""
    try:
        return codec.csr_from_arrays(meta, arrays, prefix)
    except FrameError as exc:
        raise FrameCorruption(str(exc)) from exc


# ----------------------------------------------------------------------
# addresses
# ----------------------------------------------------------------------
def parse_address(address: str) -> Tuple[str, object]:
    """``tcp:HOST:PORT`` -> ``("tcp", (host, port))``;
    ``unix:PATH`` -> ``("unix", path)``."""
    scheme, _, rest = address.partition(":")
    if scheme == "tcp":
        host, _, port = rest.rpartition(":")
        if not host or not port:
            raise ValueError(f"malformed tcp address {address!r} "
                             "(want tcp:HOST:PORT)")
        return "tcp", (host, int(port))
    if scheme == "unix":
        if not rest:
            raise ValueError(f"malformed unix address {address!r} "
                             "(want unix:PATH)")
        return "unix", rest
    raise ValueError(f"unknown address scheme {scheme!r} in {address!r} "
                     "(want tcp: or unix:)")


def format_address(kind: str, target) -> str:
    if kind == "tcp":
        return f"tcp:{target[0]}:{target[1]}"
    return f"unix:{target}"


def create_listener(address: str, backlog: int = 8) -> Tuple[socket.socket, str]:
    """Bind + listen on an address; returns ``(socket, bound address)``.

    ``tcp:HOST:0`` binds an ephemeral port — the returned address
    carries the real one (the worker announces it to its spawner)."""
    kind, target = parse_address(address)
    if kind == "tcp":
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind(target)
        bound = sock.getsockname()
        resolved = format_address("tcp", (target[0], bound[1]))
    else:
        if os.path.exists(target):
            os.unlink(target)  # stale socket from a killed worker
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.bind(target)
        resolved = format_address("unix", target)
    sock.listen(backlog)
    return sock, resolved


def connect_address(address: str, timeout: Optional[float] = None) -> socket.socket:
    """Connect to a worker address (one attempt; backoff is the
    caller's reconnect policy)."""
    kind, target = parse_address(address)
    if kind == "tcp":
        sock = socket.create_connection(target, timeout=timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    else:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(timeout)
        sock.connect(target)
    return sock
