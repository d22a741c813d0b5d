"""Wire-level tests for the shard transport framing.

Everything here runs over a ``socketpair`` — no listeners, no worker
processes — pinning the frame format itself: length-prefixed binary
framing, CRC32 over header+payload, the binary CSR codec, and the
typed failures (clean EOF vs severed stream vs corruption) the
node-side reconnect logic keys on.
"""

import socket
import struct

import numpy as np
import pytest

from repro.distributed.transport import wire
from repro.distributed.transport.wire import (
    FrameCorruption,
    TransportClosed,
    connect_address,
    create_listener,
    csr_arrays,
    csr_from_arrays,
    format_address,
    pack_frame,
    parse_address,
    recv_frame,
    send_frame,
)
from repro.core.executor import RetryPolicy
from repro.core.governor import GovernorConfig
from repro.distributed.transport.worker import (
    decode_run_config,
    encode_run_config,
)
from repro.sparse.generators import random_csr


def pair():
    return socket.socketpair()


class TestFrameRoundtrip:
    def test_meta_only(self):
        left, right = pair()
        try:
            sent = send_frame(left, "hb", {"counter": 7})
            frame = recv_frame(right)
            assert frame.kind == "hb"
            assert frame.meta == {"counter": 7}
            assert frame.arrays == {}
            assert frame.nbytes == sent
        finally:
            left.close()
            right.close()

    def test_arrays_roundtrip_exact(self):
        left, right = pair()
        arrays = {
            "x": np.arange(10, dtype=np.int64),
            "y": np.linspace(0, 1, 5, dtype=np.float64),
            "z": np.array([], dtype=np.int32),
        }
        try:
            send_frame(left, "blob", {"n": 3}, arrays)
            frame = recv_frame(right)
            assert set(frame.arrays) == {"x", "y", "z"}
            for name, arr in arrays.items():
                got = frame.arrays[name]
                assert got.dtype == arr.dtype
                assert np.array_equal(got, arr)
        finally:
            left.close()
            right.close()

    def test_received_arrays_own_their_memory(self):
        left, right = pair()
        try:
            send_frame(left, "blob", {}, {"x": np.arange(4, dtype=np.int64)})
            frame = recv_frame(right)
            frame.arrays["x"][0] = 99  # would raise on a frombuffer view
            assert frame.arrays["x"][0] == 99
        finally:
            left.close()
            right.close()

    def test_frame_larger_than_the_read_buffer(self, monkeypatch):
        # the buffer doubles as the bytes fill it; the frame is intact
        import threading

        monkeypatch.setattr(wire, "_RECV_BUFFER_CAP", 1000)
        x = np.arange(50_000, dtype=np.float64)
        left, right = pair()
        sender = threading.Thread(target=send_frame,
                                  args=(left, "blob", {}, {"x": x}))
        sender.start()
        try:
            frame = recv_frame(right)
        finally:
            sender.join(timeout=10.0)
            left.close()
            right.close()
        assert not sender.is_alive()
        assert np.array_equal(frame.arrays["x"], x)
        assert frame.payload_nbytes == x.nbytes

    def test_wire_seconds_measured(self):
        left, right = pair()
        try:
            send_frame(left, "blob", {}, {"x": np.zeros(1000)})
            frame = recv_frame(right)
            assert frame.wire_seconds >= 0.0
        finally:
            left.close()
            right.close()


def wire_bytes(send):
    """Every byte ``send(sock)`` puts on a socket (the frames here fit
    in the socket buffer)."""
    left, right = pair()
    try:
        send(left)
        left.close()
        got = bytearray()
        while True:
            part = right.recv(1 << 16)
            if not part:
                return bytes(got)
            got += part
    finally:
        right.close()


class TestSendPathBytes:
    """The send path writes frame parts unjoined and derives a chunk's
    two CRCs from one pass: every message kind must still be the
    ``pack_frame`` bytes, so ``bytes_sent`` / ``bytes_received`` repeat."""

    def test_chunk_frame_of_the_worker(self):
        from repro.core.chunks import ChunkStats
        from repro.core.governor.integrity import crc32_matrix
        from repro.distributed.transport.worker import (
            _Connection,
            _NodeCheckpoint,
        )

        mat = random_csr(30, 20, 90, seed=4)
        stats = ChunkStats(chunk_id=3, row_panel=1, col_panel=1, rows=30,
                           width=20, flops=180, a_panel_bytes=1,
                           b_panel_bytes=2, input_nnz=3, nnz_out=mat.nnz,
                           measured_seconds=0.5)
        meta, arrays = csr_arrays(mat, prefix="c_")
        meta["stats"] = stats.to_record()
        meta["crc32"] = crc32_matrix(mat)
        got = wire_bytes(
            lambda sock: _NodeCheckpoint(_Connection(sock), {}).land(stats, mat))
        assert got == pack_frame("chunk", meta, arrays)

    @pytest.mark.parametrize("kind, meta, with_arrays", [
        ("run", {"name": "shard0", "grid": {"row_bounds": [0, 30]},
                 "skip": []}, True),
        ("hb", {"counter": 12}, False),
        ("done", {"wall_seconds": 0.25, "chunks": 4, "computed": 3}, False),
    ])
    def test_other_kinds(self, kind, meta, with_arrays):
        arrays = None
        if with_arrays:
            a_meta, arrays = csr_arrays(random_csr(30, 25, 80, seed=6),
                                        prefix="a_")
            meta = {**meta, **a_meta}
        want = pack_frame(kind, meta, arrays)
        sent = []
        got = wire_bytes(
            lambda sock: sent.append(send_frame(sock, kind, meta, arrays)))
        assert got == want
        assert sent == [len(want)]


class TestFrameFailures:
    def test_clean_eof_between_frames(self):
        left, right = pair()
        left.close()
        try:
            with pytest.raises(TransportClosed, match="between frames"):
                recv_frame(right)
        finally:
            right.close()

    def test_eof_mid_frame_is_severed(self):
        left, right = pair()
        frame = pack_frame("chunk", {"stats": {}}, {"x": np.zeros(100)})
        left.sendall(frame[: len(frame) // 2])
        left.close()
        try:
            with pytest.raises(TransportClosed, match="mid-frame"):
                recv_frame(right)
        finally:
            right.close()

    def test_idle_timeout_propagates(self):
        # nothing consumed: this is the pool's heartbeat-lease poll
        left, right = pair()
        right.settimeout(0.02)
        try:
            with pytest.raises(socket.timeout):
                recv_frame(right)
        finally:
            left.close()
            right.close()

    @pytest.mark.parametrize("sent", [5, 16 + 3])
    def test_timeout_mid_frame_is_severed(self, monkeypatch, sent):
        # part of a frame arrived (a torn prefix, or a whole prefix
        # announcing a payload that never comes) and then the peer went
        # silent: the consumed bytes are gone, so the stream cannot be
        # polled again — it must tear like any other mid-frame loss
        monkeypatch.setattr(wire, "_MID_FRAME_TIMEOUT", 0.05)
        left, right = pair()
        frame = pack_frame("chunk", {"stats": {}}, {"x": np.zeros(100)})
        left.sendall(frame[:sent])
        right.settimeout(0.02)
        try:
            with pytest.raises(TransportClosed, match="timed out mid-frame"):
                recv_frame(right)
            assert right.gettimeout() == 0.02  # caller's poll restored
        finally:
            left.close()
            right.close()

    def test_crc_flip_detected(self):
        left, right = pair()
        frame = bytearray(pack_frame("blob", {"k": 1},
                                     {"x": np.arange(8, dtype=np.int64)}))
        frame[-1] ^= 0xFF  # flip one payload byte; stored CRC now lies
        left.sendall(bytes(frame))
        try:
            with pytest.raises(FrameCorruption, match="checksum"):
                recv_frame(right)
        finally:
            left.close()
            right.close()

    def test_bad_magic_detected(self):
        left, right = pair()
        frame = bytearray(pack_frame("blob", {}))
        frame[0:4] = b"XXXX"
        left.sendall(bytes(frame))
        try:
            with pytest.raises(FrameCorruption, match="magic"):
                recv_frame(right)
        finally:
            left.close()
            right.close()

    def test_implausible_length_rejected_before_allocation(self):
        left, right = pair()
        # a "frame" claiming a 2 TiB payload must fail fast
        prefix = struct.pack(">4sIQI", b"RSW1", 8, 1 << 41, 0)
        left.sendall(prefix + b"x" * 8)
        try:
            with pytest.raises(FrameCorruption, match="implausible"):
                recv_frame(right)
        finally:
            left.close()
            right.close()

    def test_announced_length_allocates_only_what_arrives(self):
        # a plausible but lying length (1 GiB announced, 8 bytes sent):
        # the read buffer stays at the cap, not at the announcement
        import tracemalloc

        left, right = pair()
        header = b'{"kind":"blob"}'
        left.sendall(struct.pack(">4sIQI", b"RSW1", len(header), 1 << 30, 0)
                     + header + b"x" * 8)
        left.close()
        tracemalloc.start()
        try:
            with pytest.raises(TransportClosed, match="mid-frame"):
                recv_frame(right)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            right.close()
        assert peak < wire._RECV_BUFFER_CAP + (1 << 20)

    def test_manifest_overrun_detected(self):
        # header manifest claims more array bytes than the payload holds
        left, right = pair()
        good = pack_frame("blob", {}, {"x": np.arange(4, dtype=np.int64)})
        import json

        from repro.core.governor.integrity import crc32_bytes

        header = json.dumps({
            "kind": "blob", "meta": {},
            "arrays": [{"name": "x", "dtype": "<i8", "shape": [400]}],
        }, separators=(",", ":")).encode()
        payload = good[-32:]  # 4 int64s only
        crc = crc32_bytes(header, payload)
        left.sendall(struct.pack(">4sIQI", b"RSW1", len(header),
                                 len(payload), crc) + header + payload)
        try:
            with pytest.raises(FrameCorruption, match="overruns"):
                recv_frame(right)
        finally:
            left.close()
            right.close()


class TestCSRCodec:
    def test_roundtrip_bit_identical(self):
        mat = random_csr(40, 30, 200, seed=5)
        meta, arrays = csr_arrays(mat, prefix="a_")
        back = csr_from_arrays(meta, arrays, prefix="a_")
        assert back == mat  # CSRMatrix equality is exact (bit-identical)

    def test_empty_matrix(self):
        mat = random_csr(10, 10, 0, seed=1)
        meta, arrays = csr_arrays(mat, prefix="c_")
        back = csr_from_arrays(meta, arrays, prefix="c_")
        assert back == mat

    def test_corrupt_structure_rejected(self):
        mat = random_csr(20, 20, 60, seed=2)
        meta, arrays = csr_arrays(mat, prefix="a_")
        bad = dict(arrays)
        bad["a_col_ids"] = bad["a_col_ids"].copy()
        bad["a_col_ids"][0] = 10_000  # column outside the matrix
        with pytest.raises(FrameCorruption, match="validation"):
            csr_from_arrays(meta, bad, prefix="a_")

    def test_missing_array_rejected(self):
        mat = random_csr(20, 20, 60, seed=2)
        meta, arrays = csr_arrays(mat, prefix="a_")
        arrays.pop("a_data")
        with pytest.raises(FrameCorruption):
            csr_from_arrays(meta, arrays, prefix="a_")


class TestAddresses:
    def test_tcp_roundtrip(self):
        assert parse_address("tcp:127.0.0.1:9000") == ("tcp",
                                                       ("127.0.0.1", 9000))
        assert format_address("tcp", ("127.0.0.1", 9000)) == \
            "tcp:127.0.0.1:9000"

    def test_unix_roundtrip(self):
        assert parse_address("unix:/tmp/w.sock") == ("unix", "/tmp/w.sock")
        assert format_address("unix", "/tmp/w.sock") == "unix:/tmp/w.sock"

    @pytest.mark.parametrize("bad", ["tcp:nohost", "unix:", "http:x:1", "x"])
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_address(bad)

    def test_tcp_ephemeral_port_resolved(self):
        sock, resolved = create_listener("tcp:127.0.0.1:0")
        try:
            kind, (host, port) = parse_address(resolved)
            assert kind == "tcp" and port > 0
            peer = connect_address(resolved, timeout=5.0)
            peer.close()
        finally:
            sock.close()

    def test_unix_listener_and_stale_rebind(self, tmp_path):
        addr = f"unix:{tmp_path}/w.sock"
        sock, resolved = create_listener(addr)
        sock.close()
        # a stale socket file from a killed worker must not block rebinding
        sock2, resolved2 = create_listener(addr)
        try:
            assert resolved2 == addr
            peer = connect_address(addr, timeout=5.0)
            peer.close()
        finally:
            sock2.close()


class TestRunConfig:
    """The run frame's ``config``: what the caller passed is what the
    remote executor gets — every numeric retry field included."""

    DEFAULTS = dict(workers=1, window=None, backend=None, kernel=None,
                    crash_budget=0)
    EVERYTHING = dict(workers=3, window=5, backend="process", kernel="esc",
                      crash_budget=2)

    @staticmethod
    def over_the_wire(config):
        left, right = pair()
        try:
            send_frame(left, "run", {"config": config})
            return recv_frame(right).meta["config"]
        finally:
            left.close()
            right.close()

    @pytest.mark.parametrize("plain,retry,governor", [
        (DEFAULTS, None, GovernorConfig()),
        (DEFAULTS, RetryPolicy(), GovernorConfig()),
        (EVERYTHING,
         RetryPolicy(max_attempts=4, base_delay=0.003, max_delay=0.7,
                     backoff=1.0, jitter=0.0),
         GovernorConfig(deadline_seconds=1.5, heartbeat_interval=0.2,
                        host_mem_budget_bytes=1 << 20,
                        device_pool_bytes=1 << 16, max_resplit_depth=3)),
    ])
    def test_roundtrip_is_exact(self, plain, retry, governor):
        sent = encode_run_config(retry=retry, governor=governor, **plain)
        got = decode_run_config(self.over_the_wire(sent))
        assert got.pop("retry") == (retry or RetryPolicy())
        assert got.pop("governor") == (governor if governor.enabled else None)
        assert got == plain

    def test_a_node_without_the_retry_record_still_decodes(self):
        """Frames from before the full record carried two retry fields."""
        got = decode_run_config({"retries": 3, "retry_delay": 0.01})
        assert got["retry"] == RetryPolicy(max_attempts=3, base_delay=0.01)
        assert decode_run_config({})["retry"] == RetryPolicy()

    def test_retry_record_is_the_numeric_fields(self):
        policy = RetryPolicy(max_attempts=2, retryable=lambda exc: False)
        record = policy.to_record()
        assert sorted(record) == ["backoff", "base_delay", "jitter",
                                  "max_attempts", "max_delay"]
        # the predicate does not travel: the far side gets the default
        assert RetryPolicy.from_record(record) == RetryPolicy(max_attempts=2)
