"""The one CSR byte layout and frame (repro.sparse.codec), through every
carrier: shared-memory segment, socket frame, chunk file.

Two contracts.  *Round trip*: any valid CSR matrix — 0 rows, 0 nnz,
empty rows, explicit zeros, nan/inf/denormals — comes back bit-identical
from each carrier.  *Hardening*: bytes that are not exactly one intact
frame (every truncation, every single-bit flip, hostile manifests)
yield only the carrier's typed error — never a raw numpy / struct /
json error, and never a matrix.  The chunk file is its frame byte for
byte, so it is damaged the same way as the socket's bytes; the two
deflated layouts chunk files were written in before still read back
bit-identical, and their damage is typed too.
"""

import json
import os
import socket
import subprocess
import sys
import tempfile
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.chunks import ChunkGrid
from repro.core.governor.integrity import (
    ChunkCorruption,
    crc32_matrix,
    crc32_matrix_of_layout,
)
from repro.core.spill import DiskChunkStore, operand_grid_hash
from repro.distributed.transport.wire import (
    FrameCorruption,
    TransportClosed,
    csr_from_arrays,
    recv_frame,
)
from repro.serve.cache import content_hash
from repro.sparse import codec
from repro.sparse.codec import (
    FRAME_PREFIX,
    FrameError,
    crc32_bytes,
    crc32_combine,
    csr_arrays,
    csr_buffers,
    csr_from_buffer,
    csr_nbytes,
    frame_parts,
    pack_frame,
    unpack_frame,
)
from repro.sparse.formats import CSRMatrix
from repro.sparse.generators import banded, random_csr, rmat
from repro.sparse.shm import SharedCSR, run_prefix
from repro.spgemm import native

needs_native = pytest.mark.skipif(
    native.native_crc32_error() is not None,
    reason=f"native CRC32 fold unavailable: {native.native_crc32_error()}",
)

SPECIAL_VALUES = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -2.2e-308, 1.0]


def special_matrix():
    """Empty rows, an explicit zero, nan/inf/denormal/-0.0 values."""
    return CSRMatrix(
        4, 5, [0, 0, 3, 3, 6], [0, 2, 4, 1, 3, 4],
        [0.0, np.nan, np.inf, -np.inf, 5e-324, -0.0],
    )


@st.composite
def csr_matrices(draw):
    n_rows = draw(st.integers(0, 6))
    n_cols = draw(st.integers(0, 6))
    rows = [
        sorted(draw(st.sets(st.integers(0, n_cols - 1), max_size=n_cols)))
        if n_cols else []
        for _ in range(n_rows)
    ]
    nnz = sum(len(r) for r in rows)
    values = draw(st.lists(
        st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
        | st.sampled_from(SPECIAL_VALUES),
        min_size=nnz, max_size=nnz,
    ))
    offsets = np.concatenate([[0], np.cumsum([len(r) for r in rows])])
    cols = [c for r in rows for c in r]
    return CSRMatrix(n_rows, n_cols, offsets, cols, values)


def assert_bit_identical(got, want):
    assert got.shape == want.shape
    for g, w in zip(csr_buffers(got), csr_buffers(want)):
        assert g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()  # bytes: nan payloads and -0.0 count


def through_shm(mat):
    with SharedCSR.create(mat, f"{run_prefix('codec')}-m") as owner:
        with SharedCSR.attach(owner.descriptor) as view:
            return view.copy_matrix()


def through_socket(frame_bytes):
    """Send ``frame_bytes`` and hang up; decode whatever the reader makes
    of it (the frames here fit in the socket buffer)."""
    left, right = socket.socketpair()
    try:
        left.sendall(frame_bytes)
        left.close()
        got = recv_frame(right)
        return csr_from_arrays(got.meta, got.arrays)
    finally:
        left.close()
        right.close()


@pytest.fixture(scope="module")
def store():
    with tempfile.TemporaryDirectory(prefix="codec-test-") as directory:
        disk = DiskChunkStore(directory)
        disk.put(0, 0, CSRMatrix.empty(1, 1))  # registers chunk (0, 0)'s path
        yield disk
        disk.close()


def through_file(store, file_bytes):
    """Plant ``file_bytes`` as chunk (0, 0)'s file and read it back."""
    store._path(0, 0).write_bytes(file_bytes)
    return store.get(0, 0)


def written_file(store, mat):
    """Chunk (0, 0)'s file as ``put`` writes ``mat``."""
    store.put(0, 0, mat)
    return store._path(0, 0).read_bytes()


def deflated_index(frame, n_values):
    """A chunk file as written before files held their frame raw: the
    index section deflated, the ``n_values`` value bytes after it."""
    cut = len(frame) - n_values
    return zlib.compress(frame[:cut], zlib.Z_BEST_SPEED) + frame[cut:]


def whole_frame_deflated(frame, n_values):
    """A chunk file as written before that: the whole frame deflated."""
    return zlib.compress(frame, zlib.Z_BEST_SPEED)


#: the layouts chunk files were written in before, which still read
DEFLATED_LAYOUTS = (deflated_index, whole_frame_deflated)


def chunk_frame(mat):
    return pack_frame("chunk", *csr_arrays(mat))


# ----------------------------------------------------------------------
# round trip
# ----------------------------------------------------------------------
class TestRoundTrip:
    @given(csr_matrices())
    @settings(max_examples=60, deadline=None)
    def test_every_carrier_is_bit_identical(self, store, mat):
        assert_bit_identical(through_shm(mat), mat)
        assert_bit_identical(through_socket(chunk_frame(mat)), mat)
        assert written_file(store, mat) == chunk_frame(mat)
        assert_bit_identical(store.get(0, 0), mat)
        for deflated in DEFLATED_LAYOUTS:
            assert_bit_identical(
                through_file(store, deflated(chunk_frame(mat), mat.data.nbytes)), mat)

    def test_one_matrix_frame_payload_is_the_layout(self):
        mat = special_matrix()
        frame = chunk_frame(mat)
        payload = frame[len(frame) - csr_nbytes(mat.n_rows, mat.nnz):]
        assert payload == b"".join(buf.tobytes() for buf in csr_buffers(mat))
        assert_bit_identical(
            csr_from_buffer(payload, mat.n_rows, mat.n_cols, mat.nnz), mat)

    def test_buffers_alias_the_matrix(self):
        mat = random_csr(10, 10, 30, seed=1)
        for buf, field in zip(csr_buffers(mat),
                              (mat.row_offsets, mat.col_ids, mat.data)):
            assert np.shares_memory(buf, field)

    def test_from_buffer_views_a_longer_buffer(self):
        mat = random_csr(6, 6, 12, seed=2)
        buf = bytearray(b"".join(b.tobytes() for b in csr_buffers(mat)) + b"pad")
        view = csr_from_buffer(buf, 6, 6, mat.nnz)
        assert view == mat
        view.data[0] = 42.0  # a view: writes land in the buffer
        assert csr_from_buffer(buf, 6, 6, mat.nnz).data[0] == 42.0

    def test_from_buffer_rejects_short_buffer_and_bad_structure(self):
        mat = random_csr(6, 6, 12, seed=2)
        raw = b"".join(b.tobytes() for b in csr_buffers(mat))
        with pytest.raises(ValueError, match="cannot hold"):
            csr_from_buffer(raw[:-1], 6, 6, mat.nnz)
        with pytest.raises(ValueError, match="out of range"):
            csr_from_buffer(raw, 6, 2, mat.nnz)  # col ids exceed 2 columns
        csr_from_buffer(raw, 6, 2, mat.nnz, check=False)  # caller's promise


# ----------------------------------------------------------------------
# hardening
# ----------------------------------------------------------------------
FUZZED = {
    "0x0": lambda: CSRMatrix.empty(0, 0),
    "3x4-empty": lambda: CSRMatrix.empty(3, 4),
    "special": special_matrix,
}


@pytest.fixture(params=sorted(FUZZED))
def frame(request):
    return chunk_frame(FUZZED[request.param]())


class TestHardening:
    def test_every_truncation_is_typed(self, store, frame):
        for n in range(len(frame)):
            cut = frame[:n]
            with pytest.raises(FrameError):
                unpack_frame(cut)
            with pytest.raises(ChunkCorruption) as err:
                through_file(store, cut)
            assert (err.value.row_panel, err.value.col_panel) == (0, 0)
            assert err.value.path == str(store._path(0, 0))
            with pytest.raises(TransportClosed):
                through_socket(cut)

    def test_every_single_bit_flip_is_typed(self, store, frame):
        for bit in range(8 * len(frame)):
            bad = bytearray(frame)
            bad[bit // 8] ^= 1 << (bit % 8)
            bad = bytes(bad)
            with pytest.raises(FrameError):
                unpack_frame(bad)
            with pytest.raises(ChunkCorruption):
                through_file(store, bad)
            # a flipped length field makes the reader run into the hang-up
            with pytest.raises((FrameCorruption, TransportClosed)):
                through_socket(bad)

    def test_damaged_deflate_stream_is_typed(self, store, frame):
        # the disk carrier's own wrapper over a file in either deflated
        # layout: every truncation and a trailing byte are typed; a
        # single-bit flip is typed too, unless it lands on a redundant
        # bit of the deflate encoding and still inflates to the intact
        # frame
        intact = through_file(store, frame)
        n_values = unpack_frame(frame)[2]["data"].nbytes
        for deflated in DEFLATED_LAYOUTS:
            written = deflated(frame, n_values)
            assert_bit_identical(through_file(store, written), intact)
            for bad in [*(written[:n] for n in range(len(written))), written + b"\0"]:
                with pytest.raises(ChunkCorruption):
                    through_file(store, bad)
            for bit in range(8 * len(written)):
                bad = bytearray(written)
                bad[bit // 8] ^= 1 << (bit % 8)
                try:
                    assert_bit_identical(through_file(store, bytes(bad)), intact)
                except ChunkCorruption:
                    pass

    @pytest.mark.parametrize("name", sorted(FUZZED))
    def test_file_as_put_writes_it_is_typed(self, store, name):
        # the file is the frame and has no redundant bits: every
        # truncation, a trailing byte and every single-bit flip anywhere
        # in it are typed, with the chunk's coordinates
        written = written_file(store, FUZZED[name]())
        damaged = [written[:n] for n in range(len(written))] + [written + b"\0"]
        for bit in range(8 * len(written)):
            bad = bytearray(written)
            bad[bit // 8] ^= 1 << (bit % 8)
            damaged.append(bytes(bad))
        for bad in damaged:
            with pytest.raises(ChunkCorruption) as err:
                through_file(store, bad)
            assert (err.value.row_panel, err.value.col_panel) == (0, 0)

    def test_trailing_bytes_are_not_a_frame(self, frame):
        with pytest.raises(FrameError, match="do not add up"):
            unpack_frame(frame + b"\0")

    @pytest.mark.parametrize("header", [
        b"\xff\xfe not utf-8",
        b"[1, 2, 3]",
        b'{"meta": {}}',
        b'{"kind": "x", "arrays": 7}',
        b'{"kind": "x", "arrays": [7]}',
        b'{"kind": "x", "arrays": [{"name": "a", "shape": [1]}]}',
        b'{"kind": "x", "arrays": [{"name": "a", "dtype": "nope", "shape": [1]}]}',
        b'{"kind": "x", "arrays": [{"name": "a", "dtype": "|O", "shape": [1]}]}',
        b'{"kind": "x", "arrays": [{"name": "a", "dtype": "<i8", "shape": [-1]}]}',
        b'{"kind": "x", "arrays": [{"name": "a", "dtype": "<i8", "shape": [-2, -1]}]}',
        b'{"kind": "x", "arrays": [{"name": "a", "dtype": "<i8", "shape": "ab"}]}',
        b'{"kind": "x", "arrays": [{"name": "a", "dtype": "<i8", "shape": [3]}]}',
        b'{"kind": "x", "arrays": [{"name": "a", "dtype": "<i8", "shape": [4611686018427387904, 4]}]}',
    ])
    def test_hostile_header_with_a_valid_crc_is_typed(self, header):
        # the CRC only proves the sender wrote these bytes, not that
        # they describe arrays: 16 payload bytes, headers that lie
        payload = np.arange(2, dtype=np.int64).tobytes()
        forged = FRAME_PREFIX.pack(b"RSW1", len(header), len(payload),
                                   crc32_bytes(header, payload)) + header + payload
        with pytest.raises(FrameError):
            unpack_frame(forged)

    def test_misaligned_array_is_copied_out_aligned(self):
        got = unpack_frame(pack_frame("blob", {}, {
            "odd": np.arange(3, dtype=np.uint8),
            "x": np.arange(4, dtype=np.int64),
        }))[2]
        assert got["x"].flags.aligned
        assert np.array_equal(got["x"], np.arange(4))

    def test_frame_that_is_not_a_csr_matrix_is_typed(self, store):
        not_csr = pack_frame("chunk", {"shape": [2, 2]},
                             {"row_offsets": np.array([0, 1, 5])})
        with pytest.raises(ChunkCorruption, match="validation"):
            through_file(store, not_csr)
        with pytest.raises(FrameCorruption, match="validation"):
            through_socket(not_csr)


# ----------------------------------------------------------------------
# the three fingerprints fed from csr_buffers: values captured at the
# commit before the walkers were folded (PR 14, a08f49b)
# ----------------------------------------------------------------------
GOLDEN = [
    (lambda: random_csr(40, 30, 200, seed=5), 0x1C6C3BA6,
     "890b2398e81511acd1dc29f0033c1e1dd5499c4ca597971d27acf51ebcc80855"),
    (lambda: rmat(7, 4.0, seed=3), 0x27F34B3A,
     "b6dee3b71dc39fc487a80921d6a89397ed77d5e0f0515ad6bb3d0ecd8c3c9361"),
    (lambda: banded(64, 3, seed=2), 0x75869519,
     "7d5dc873922752f90141ff866ac360eaef1f9da5c49612b49621d256122ff115"),
    (lambda: CSRMatrix.empty(0, 0), 0xA3C1CA20,
     "9677be93749b7e29abb5e7eed777fe23e7f643e13c2a220615a752f0575d69f3"),
    (lambda: CSRMatrix.empty(5, 7), 0xFB148911,
     "0c24e055f3272babd06e10fbc33485758256207bb9d42cc25c1560b98b120c96"),
    (special_matrix, 0x99527DF9,
     "66fbec9262f3d533c61674af75c7434aa1875a80e8d69e171aaf1855d1281ada"),
]


class TestGoldenFingerprints:
    @pytest.mark.parametrize("make, crc, sha", GOLDEN)
    def test_crc32_matrix_and_content_hash(self, make, crc, sha):
        mat = make()
        assert crc32_matrix(mat) == crc
        assert content_hash(mat) == sha

    def test_operand_grid_hash(self):
        a = rmat(7, 4.0, seed=3)
        assert operand_grid_hash(a, a, ChunkGrid.regular(128, 128, 3, 2)) == (
            "4ee3b54fd704c1a70793575b376fd62387473c8edb09f100b5bc9fdc24deabe6")
        r, t = random_csr(40, 30, 200, seed=5), random_csr(30, 17, 90, seed=6)
        assert operand_grid_hash(r, t, ChunkGrid.regular(40, 17, 2, 3)) == (
            "04e32de2440cd3be802f80dddf110da72e3b77ce1fa6cc222a2e3ac4710385b7")
        assert operand_grid_hash(
            CSRMatrix.empty(5, 7), CSRMatrix.empty(7, 2),
            ChunkGrid.regular(5, 2, 1, 1),
        ) == "ba612b5e15c9ad3bec771f3982e683437c71a9eb86f576d9415ee17094cc1d9c"

    def test_fingerprints_take_no_copy_of_a_field(self):
        # the walkers used to .tobytes() every field; feeding the
        # buffers in place must not allocate anything operand-sized
        import tracemalloc

        mat = random_csr(2000, 2000, 200_000, seed=9)
        tracemalloc.start()
        crc32_matrix(mat), content_hash(mat)
        operand_grid_hash(mat, mat, ChunkGrid.regular(2000, 2000, 2, 2))
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < mat.data.nbytes // 4


class TestCrc32Combine:
    """One pass per byte: both CRCs of a chunk frame are derived from its
    payload's, and must be exactly the values a second pass would give."""

    @given(st.binary(max_size=300), st.binary(max_size=3000))
    @settings(max_examples=300, deadline=None)
    def test_combine_is_the_crc_of_the_concatenation(self, a, b):
        assert crc32_combine(zlib.crc32(a), zlib.crc32(b), len(b)) == \
            zlib.crc32(a + b)

    @pytest.mark.parametrize("len_b", [1 << 16, (1 << 20) + 7, 3 << 20])
    def test_long_second_part(self, len_b):
        a = b"head"
        b = np.random.default_rng(len_b).bytes(len_b)
        assert crc32_combine(zlib.crc32(a), zlib.crc32(b), len_b) == \
            zlib.crc32(a + b)

    @given(csr_matrices())
    @settings(max_examples=60, deadline=None)
    def test_matrix_crc_from_its_layout_crc(self, mat):
        layout_crc = crc32_bytes(*csr_buffers(mat))
        assert crc32_matrix_of_layout(
            mat.shape, layout_crc, csr_nbytes(mat.n_rows, mat.nnz)
        ) == crc32_matrix(mat)

    @given(csr_matrices())
    @settings(max_examples=60, deadline=None)
    def test_frame_from_a_given_payload_crc_is_the_same_bytes(self, mat):
        meta, arrays = csr_arrays(mat)
        given_crc = crc32_bytes(*arrays.values())
        parts = frame_parts("chunk", meta, arrays, payload_crc=given_crc)
        assert b"".join(parts) == pack_frame("chunk", meta, arrays)

    @pytest.mark.parametrize("crc1, crc2", [
        (1 << 32, 2), (1 << 40, 2), (-1, 2), (1, 1 << 32), (1, -1)])
    def test_crc_outside_32_bits_is_refused(self, crc1, crc2):
        with pytest.raises(ValueError, match="32-bit"):
            crc32_combine(crc1, crc2, 3)

    def test_negative_length_is_refused_not_looped_on(self):
        # in a child with a deadline: a shift loop that never ends must
        # fail this test, not hang the suite
        child = subprocess.run(
            [sys.executable, "-c",
             "from repro.sparse.codec import crc32_combine\n"
             "try:\n    crc32_combine(1, 2, -1)\n"
             "except ValueError as exc:\n    print(exc)\n"],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
        assert "non-negative" in child.stdout, child.stderr


# ----------------------------------------------------------------------
# the CRC engines: the native fold and zlib give zlib.crc32's value
# ----------------------------------------------------------------------
@pytest.fixture(params=["zlib", pytest.param("fold", marks=needs_native)])
def engine(request, monkeypatch):
    """``crc32_bytes`` pinned to one engine: zlib as on a CPU without
    PCLMULQDQ, or the fold for every part however short."""
    if request.param == "zlib":
        monkeypatch.setattr(native, "native_crc32_error",
                            lambda: "CPU lacks pclmul")
        monkeypatch.setattr(native, "native_crc32", None)  # calling it fails
    else:
        monkeypatch.setattr(codec, "_FOLD_MIN_BYTES", 0)
    return request.param


RNG_BYTES = np.random.default_rng(0xDEADBEEF).bytes((4 << 20) + 16)
SEEDS = [0, 1, 0xDEADBEEF, 0xFFFFFFFF]


@needs_native
class TestCrc32Fold:
    def test_every_short_length_at_every_offset(self):
        buf = np.frombuffer(RNG_BYTES, dtype=np.uint8)
        for offset in range(16):
            for n in range(301):
                view = buf[offset:offset + n]
                # and a copy that ends where its allocation ends, so a
                # read past it is an AddressSanitizer report
                for part in (view, view.copy()):
                    for seed in SEEDS:
                        assert native.native_crc32(part, seed) == \
                            zlib.crc32(part, seed), (offset, n, seed)

    def test_random_lengths_up_to_4_mib(self):
        rng = np.random.default_rng(0)
        buf = np.frombuffer(RNG_BYTES, dtype=np.uint8)
        for _ in range(40):
            n = int(rng.integers(0, 4 << 20))
            offset = int(rng.integers(0, 16))
            seed = SEEDS[int(rng.integers(0, len(SEEDS)))]
            part = buf[offset:offset + n]
            assert native.native_crc32(part, seed) == zlib.crc32(part, seed)

    def test_unsupported_cpu_gives_the_same_values(self, monkeypatch):
        parts = [RNG_BYTES[:100], RNG_BYTES[100:(1 << 20) + 3],
                 np.frombuffer(RNG_BYTES, dtype=np.float64, count=9000)]
        folded = crc32_bytes(*parts)
        monkeypatch.setattr(native, "native_crc32_error",
                            lambda: "CPU lacks pclmul")
        monkeypatch.setattr(native, "native_crc32", None)  # calling it fails
        assert crc32_bytes(*parts) == folded == zlib.crc32(b"".join(
            bytes(memoryview(p)) for p in parts))


class TestCrc32Bytes:
    @given(st.lists(st.integers(0, 9000), max_size=5), st.integers(0, 15))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_parts_are_one_rolling_crc(self, engine, sizes, offset):
        buf = memoryview(RNG_BYTES)[offset:]
        parts, at = [], 0
        for size in sizes:
            parts.append(buf[at:at + size])
            at += size
        assert crc32_bytes(*parts) == zlib.crc32(bytes(buf[:at]))

    @pytest.mark.parametrize("dtype", ["<i8", "<f8", "<i4", "u1"])
    @pytest.mark.parametrize("count", [0, 1, 511, 513, 9001])
    def test_views_of_layout_dtypes(self, engine, dtype, count):
        arr = np.frombuffer(RNG_BYTES, dtype=dtype, count=count + 3)
        for view in (arr, arr[3:], arr[:count], arr[1:count + 1].reshape(1, -1)):
            assert crc32_bytes(view) == zlib.crc32(view.tobytes())

    def test_matrix_fingerprint(self, engine):
        mat = random_csr(400, 300, 5000, seed=4)
        want = zlib.crc32(np.asarray(mat.shape, dtype=np.int64).tobytes()
                          + b"".join(b.tobytes() for b in csr_buffers(mat)))
        assert crc32_matrix(mat) == want

    @pytest.mark.parametrize("part, error", [
        (np.arange(2000)[::2], ValueError),
        (np.zeros((64, 128), order="F"), ValueError),
        (np.zeros((2, 2), order="F"), ValueError),
        ("not bytes", TypeError),
        (7, TypeError),
        ([1, 2, 3], TypeError),
    ])
    def test_refusals_are_zlibs(self, engine, part, error):
        with pytest.raises(error):
            zlib.crc32(part)
        with pytest.raises(error):
            crc32_bytes(part)
        with pytest.raises(error):
            crc32_bytes(b"head", part)

    @pytest.mark.parametrize("scalar", [np.float64(2.5), np.int64(-3),
                                        np.array(7)])
    def test_zero_d_scalar_is_accepted(self, engine, scalar):
        assert crc32_bytes(scalar) == zlib.crc32(scalar)


def test_frame_header_is_the_documented_json():
    frame = pack_frame("chunk", {"shape": [1, 1]}, {"x": np.zeros(1)})
    header_len = FRAME_PREFIX.unpack(frame[:FRAME_PREFIX.size])[1]
    header = json.loads(frame[FRAME_PREFIX.size:FRAME_PREFIX.size + header_len])
    assert header == {"kind": "chunk", "meta": {"shape": [1, 1]},
                      "arrays": [{"name": "x", "dtype": "<f8", "shape": [1]}]}
