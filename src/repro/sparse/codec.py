"""The one CSR byte layout, and the one frame that carries it.

Every carrier that moves a CSR matrix out of a Python object — a
shared-memory segment (:mod:`repro.sparse.shm`), a socket
(:mod:`repro.distributed.transport.wire`), a spilled or checkpointed
chunk file (:mod:`repro.core.spill`) — agrees on two decisions, both
made here and nowhere else; the carriers do I/O only.  DESIGN.md,
"Byte layout", says which carrier adds what.

**Layout** — three contiguous native-endian buffers, in this order::

    [ row_offsets : (n_rows + 1) x int64 ]
    [ col_ids     :  nnz x int64        ]
    [ data        :  nnz x float64      ]

**Frame** — one self-describing message, CRC32 over header + payload::

    +--------+------------+-------------+---------+----------------+---------+
    | magic  | header len | payload len | crc32   | header (JSON)  | payload |
    | 4 B    | u32 BE     | u64 BE      | u32 BE  | header_len B   | raw B   |
    +--------+------------+-------------+---------+----------------+---------+

The JSON header names the message ``kind``, its scalar ``meta`` fields,
and the dtype/shape manifest of the arrays concatenated in the payload.
A matrix is framed as its three layout buffers (:func:`csr_arrays`), so
the payload of a one-matrix frame *is* the layout.  Every decode
failure is a typed :class:`FrameError`, never a raw ``struct`` /
``json`` / numpy error.

**One CRC pass per byte.**  A carrier that already holds the payload's
own CRC32 passes it as ``payload_crc``; the frame's CRC is then derived
from it with :func:`crc32_combine` instead of reading the payload again.
The value is the same either way.  The socket carrier does this for
every frame, so a chunk's payload is read once per side for both of its
checks: the frame CRC, and the end-to-end ``crc32_matrix`` value, which
is the same payload behind the matrix's shape bytes.  A chunk file
keeps the single rolling CRC.  That pass runs at memory speed: parts
of 4 KiB or more go to the native library's fold where the CPU has
PCLMULQDQ, the rest to zlib, and the value is the same either way.
"""

from __future__ import annotations

import functools
import json
import math
import struct
import zlib
from typing import Dict, List, Optional, Tuple

import numpy as np

from .formats import CSRMatrix, INDEX_DTYPE, VALUE_DTYPE

__all__ = [
    "CSR_FIELDS",
    "FRAME_PREFIX",
    "FrameError",
    "crc32_bytes",
    "crc32_combine",
    "csr_buffers",
    "csr_nbytes",
    "csr_from_buffer",
    "csr_arrays",
    "csr_from_arrays",
    "frame_parts",
    "pack_frame",
    "unpack_prefix",
    "unpack_body",
    "unpack_frame",
]

#: the CSR fields, in layout order
CSR_FIELDS = ("row_offsets", "col_ids", "data")

_INDEX_ITEMSIZE = np.dtype(INDEX_DTYPE).itemsize
_VALUE_ITEMSIZE = np.dtype(VALUE_DTYPE).itemsize

_MAGIC = b"RSW1"
#: magic, header_len, payload_len, crc32
FRAME_PREFIX = struct.Struct(">4sIQI")
#: sanity caps — a corrupted length field must fail fast, not allocate
_MAX_HEADER_BYTES = 64 << 20
_MAX_PAYLOAD_BYTES = 1 << 40


class FrameError(RuntimeError):
    """Bytes that are not a valid frame: bad magic, implausible or
    inconsistent lengths, CRC32 mismatch, unparseable header, an array
    manifest that overruns the payload, or a framed CSR matrix that
    fails validation.  Carriers re-raise it as their own typed error
    (``FrameCorruption`` on a socket, ``ChunkCorruption`` for a file)."""


#: shorter parts go to zlib: the fold's cffi call costs ~2 µs, so the two
#: cross between 4 and 6 KiB (2-vCPU x86-64 host, zlib 1.2.13)
_FOLD_MIN_BYTES = 4096


@functools.lru_cache(maxsize=None)
def _native():
    from ..spgemm import native  # bound on first use: spgemm imports sparse
    return native


def crc32_bytes(*parts) -> int:
    """CRC32 over a sequence of buffers (a single rolling checksum):
    ``zlib.crc32``'s value, by the native library's fold when the CPU has
    one (module docstring), else by zlib."""
    native = _native()
    fold = native.native_crc32_error() is None
    crc = 0
    for part in parts:
        if fold and memoryview(part).nbytes >= _FOLD_MIN_BYTES:
            crc = native.native_crc32(part, crc)
        else:
            crc = zlib.crc32(part, crc)
    return crc & 0xFFFFFFFF


#: the CRC32 polynomial, bit-reversed as zlib stores it
_CRC32_POLY = 0xEDB88320


def _gf2_mult(a: int, b: int) -> int:
    """``a x b`` modulo the CRC32 polynomial (bit-reversed operands)."""
    m, p = 1 << 31, 0
    while True:
        if a & m:
            p ^= b
            if a & (m - 1) == 0:
                return p
        m >>= 1
        b = (b >> 1) ^ _CRC32_POLY if b & 1 else b >> 1


#: ``x^(2^k)`` modulo the polynomial, k = 0..31
_X2N = [1 << 30]
for _ in range(31):
    _X2N.append(_gf2_mult(_X2N[-1], _X2N[-1]))


@functools.lru_cache(maxsize=256)
def _zeros_shift(nbytes: int) -> int:
    """``x^(8 nbytes)``: the operator that appends ``nbytes`` zero bytes
    to a CRC (cached: a chunk's two values share its payload length)."""
    p, k = 1 << 31, 3
    while nbytes:
        if nbytes & 1:
            p = _gf2_mult(_X2N[k & 31], p)
        nbytes >>= 1
        k += 1
    return p


def crc32_combine(crc1: int, crc2: int, len2: int) -> int:
    """CRC32 of ``a + b`` from ``crc1 = crc32(a)``, ``crc2 = crc32(b)``
    and ``len2 = len(b)``, without the bytes — zlib's function of that
    name (GF(2) shift of ``crc1`` past ``len2`` bytes).  A negative
    ``len2`` or a CRC outside ``[0, 2**32)`` raises :class:`ValueError`."""
    if len2 < 0 or not (0 <= crc1 <= 0xFFFFFFFF and 0 <= crc2 <= 0xFFFFFFFF):
        raise ValueError(f"crc32_combine({crc1}, {crc2}, {len2}): CRCs "
                         "are 32-bit, lengths non-negative")
    return (_gf2_mult(_zeros_shift(len2), crc1) ^ crc2) & 0xFFFFFFFF


# ----------------------------------------------------------------------
# layout
# ----------------------------------------------------------------------
def csr_buffers(mat) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The fields of ``mat`` in layout order, as contiguous arrays that
    alias the matrix (no copy — a ``CSRMatrix`` already holds them
    contiguous in the layout dtypes)."""
    return (
        np.ascontiguousarray(mat.row_offsets, dtype=INDEX_DTYPE),
        np.ascontiguousarray(mat.col_ids, dtype=INDEX_DTYPE),
        np.ascontiguousarray(mat.data, dtype=VALUE_DTYPE),
    )


def csr_nbytes(n_rows: int, nnz: int) -> int:
    """Bytes of a CSR block in the layout: offsets + column ids + values."""
    return (n_rows + 1) * _INDEX_ITEMSIZE + nnz * (_INDEX_ITEMSIZE + _VALUE_ITEMSIZE)


def csr_from_buffer(buf, n_rows: int, n_cols: int, nnz: int, *,
                    check: bool = True) -> CSRMatrix:
    """A ``CSRMatrix`` whose arrays are views over ``buf``, which holds
    the layout at offset 0 (and may be longer, as a page-rounded
    shared-memory segment is)."""
    if n_rows < 0 or nnz < 0 or len(buf) < csr_nbytes(n_rows, nnz):
        raise ValueError(
            f"buffer of {len(buf)} bytes cannot hold a CSR block of "
            f"{n_rows} rows and {nnz} stored elements"
        )
    off_ci = (n_rows + 1) * _INDEX_ITEMSIZE
    off_da = off_ci + nnz * _INDEX_ITEMSIZE
    return CSRMatrix(
        n_rows, n_cols,
        np.ndarray(n_rows + 1, dtype=INDEX_DTYPE, buffer=buf),
        np.ndarray(nnz, dtype=INDEX_DTYPE, buffer=buf, offset=off_ci),
        np.ndarray(nnz, dtype=VALUE_DTYPE, buffer=buf, offset=off_da),
        check=check,
    )


# ----------------------------------------------------------------------
# a CSR matrix as the named arrays of a frame
# ----------------------------------------------------------------------
def csr_arrays(mat: CSRMatrix, prefix: str = "") -> Tuple[dict, Dict[str, np.ndarray]]:
    """``(meta, arrays)`` encoding of a CSR matrix for one frame;
    ``prefix`` lets one frame carry several matrices."""
    meta = {f"{prefix}shape": [int(mat.n_rows), int(mat.n_cols)]}
    arrays = {f"{prefix}{name}": buf
              for name, buf in zip(CSR_FIELDS, csr_buffers(mat))}
    return meta, arrays


def csr_from_arrays(meta: dict, arrays: Dict[str, np.ndarray],
                    prefix: str = "") -> CSRMatrix:
    """Decode a CSR matrix framed by :func:`csr_arrays` (validated —
    a corrupt structure raises before it can reach a kernel)."""
    try:
        n_rows, n_cols = meta[f"{prefix}shape"]
        return CSRMatrix(
            int(n_rows), int(n_cols),
            *(arrays[f"{prefix}{name}"] for name in CSR_FIELDS),
            check=True,
        )
    except (KeyError, ValueError, IndexError, TypeError) as exc:
        raise FrameError(
            f"framed CSR matrix (prefix {prefix!r}) failed validation: {exc}"
        ) from exc


# ----------------------------------------------------------------------
# frame
# ----------------------------------------------------------------------
def frame_parts(kind: str, meta: Optional[dict] = None,
                arrays: Optional[Dict[str, np.ndarray]] = None, *,
                payload_crc: Optional[int] = None) -> List:
    """One frame as ``[prefix, header, array bytes...]`` — buffers to
    write in order.  The array parts alias the caller's arrays, so a
    carrier can hand them to ``writelines`` without a concatenated copy.
    ``payload_crc``, the arrays' CRC32 back to back when the caller has
    it, spares the second pass over them (module docstring).
    """
    manifest = []
    payload = []
    for name, arr in (arrays or {}).items():
        buf = np.ascontiguousarray(arr)
        manifest.append({"name": name, "dtype": buf.dtype.str,
                         "shape": list(buf.shape)})
        payload.append(buf.reshape(-1).view(np.uint8))
    header = json.dumps(
        {"kind": kind, "meta": meta or {}, "arrays": manifest},
        separators=(",", ":"),
    ).encode("utf-8")
    payload_len = sum(part.nbytes for part in payload)
    if payload_crc is None:
        crc = crc32_bytes(header, *payload)
    else:
        crc = crc32_combine(crc32_bytes(header), payload_crc, payload_len)
    prefix = FRAME_PREFIX.pack(_MAGIC, len(header), payload_len, crc)
    return [prefix, header, *payload]


def pack_frame(kind: str, meta: Optional[dict] = None,
               arrays: Optional[Dict[str, np.ndarray]] = None) -> bytes:
    """The full encoding of one message (prefix struct included)."""
    return b"".join(frame_parts(kind, meta, arrays))


def unpack_prefix(prefix) -> Tuple[int, int, int]:
    """``(header_len, payload_len, crc32)`` of a frame's fixed-size
    prefix, with the magic and both length caps checked."""
    if len(prefix) != FRAME_PREFIX.size:
        raise FrameError(
            f"frame prefix is {len(prefix)} bytes, want {FRAME_PREFIX.size}"
        )
    magic, header_len, payload_len, crc = FRAME_PREFIX.unpack(prefix)
    if magic != _MAGIC:
        raise FrameError(f"bad frame magic {magic!r}")
    if header_len > _MAX_HEADER_BYTES or payload_len > _MAX_PAYLOAD_BYTES:
        raise FrameError(
            f"implausible frame lengths (header {header_len}, "
            f"payload {payload_len}) — corrupted stream"
        )
    return header_len, payload_len, crc


def unpack_body(header, payload, crc: int, *, payload_crc: Optional[int] = None
                ) -> Tuple[str, dict, Dict[str, np.ndarray]]:
    """Verify and decode a frame's header and payload against the CRC
    its prefix recorded; returns ``(kind, meta, arrays)``.
    ``payload_crc`` is the payload's own CRC32 when the carrier already
    computed it: the frame's is derived from it, not re-read.

    The arrays are views over ``payload`` — writable when it is (a
    ``bytearray``) — except where an entry's offset is misaligned for
    its dtype, which is copied out."""
    if payload_crc is None:
        actual = crc32_bytes(header, payload)
    else:
        actual = crc32_combine(crc32_bytes(header), payload_crc, len(payload))
    if actual != crc:
        raise FrameError(
            f"frame checksum mismatch (stored {crc:#010x}, "
            f"recomputed {actual:#010x})"
        )
    arrays: Dict[str, np.ndarray] = {}
    offset = 0
    try:
        decoded = json.loads(bytes(header).decode("utf-8"))
        kind = decoded["kind"]
        meta = decoded.get("meta", {})
        for entry in decoded.get("arrays", []):
            dtype = np.dtype(entry["dtype"])
            shape = tuple(int(s) for s in entry["shape"])
            if dtype.hasobject or dtype.itemsize == 0 or min(shape, default=0) < 0:
                raise ValueError(f"{dtype} {shape} is not a plain array")
            count = math.prod(shape)
            nbytes = count * dtype.itemsize
            if offset + nbytes > len(payload):
                raise FrameError(
                    f"array {entry['name']!r} overruns the frame payload"
                )
            arr = np.frombuffer(payload, dtype=dtype, count=count,
                                offset=offset).reshape(shape)
            arrays[entry["name"]] = arr if arr.flags.aligned else arr.copy()
            offset += nbytes
    except (ValueError, KeyError, AttributeError, TypeError) as exc:
        raise FrameError(f"unparseable frame header: {exc}") from exc
    return kind, meta, arrays


def unpack_frame(buf) -> Tuple[str, dict, Dict[str, np.ndarray]]:
    """Decode one whole frame held in ``buf`` — which must be exactly
    one frame: the prefix's lengths have to add up to ``len(buf)``.
    The decoded arrays own their memory."""
    view = memoryview(buf)
    header_len, payload_len, crc = unpack_prefix(view[:FRAME_PREFIX.size])
    body = FRAME_PREFIX.size + header_len
    if body + payload_len != len(view):
        raise FrameError(
            f"frame lengths (header {header_len}, payload {payload_len}) "
            f"do not add up to the {len(view)} bytes present"
        )
    return unpack_body(view[FRAME_PREFIX.size:body], bytearray(view[body:]), crc)
