"""End-to-end integrity checksums for chunk data at rest.

Every chunk that leaves process memory — spilled to a
:class:`~repro.core.spill.DiskChunkStore`, checkpointed next to a
:class:`~repro.core.spill.RunManifest` — is stamped with a CRC32 over
its full CSR content (shape + structure + values) and verified when it
is read back.  A truncated, bit-flipped, or otherwise unparseable file
then surfaces as a typed :class:`ChunkCorruption` instead of a raw numpy
error deep inside assembly — and, crucially, instead of a silently
wrong answer.  ``ChunkCorruption`` is an ``Exception``, so the default
:class:`~repro.core.executor.faults.RetryPolicy` classifies it as
retryable: the recovery for corrupt data is simply to recompute the
chunk (chunks are deterministic, so the redo is bit-identical).

CRC32 is deliberate: this is a *storage integrity* check against torn
writes and media corruption, not an authenticity check.  It is zlib's
CRC-32 — same polynomial, same values — by the native library's fold
where the CPU has one, else by :func:`zlib.crc32`
(:func:`repro.sparse.codec.crc32_bytes`).  The checksum is fed from the
matrix's buffers in place
(:func:`repro.sparse.codec.csr_buffers`), and the chunk file's frame
carries a second CRC32 over its own bytes — see "Byte layout" in
DESIGN.md for which carrier adds what.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ...sparse.codec import crc32_bytes, crc32_combine, csr_buffers

__all__ = ["ChunkCorruption", "crc32_matrix", "crc32_matrix_of_layout",
           "crc32_bytes"]


class ChunkCorruption(RuntimeError):
    """Stored chunk data failed its integrity check (or did not parse).

    Carries the file path and panel coordinates when known, so an
    operator can locate (and delete) the bad file; the executor treats
    the error as retryable — the chunk is recomputed from the operands.
    """

    def __init__(self, message: str, *, path: Optional[str] = None,
                 row_panel: Optional[int] = None,
                 col_panel: Optional[int] = None) -> None:
        detail = message
        if row_panel is not None and col_panel is not None:
            detail += f" [panel ({row_panel}, {col_panel})]"
        if path is not None:
            detail += f" [{path}]"
        super().__init__(detail)
        self.path = str(path) if path is not None else None
        self.row_panel = row_panel
        self.col_panel = col_panel


def crc32_matrix(matrix) -> int:
    """CRC32 fingerprint of a CSR matrix: shape, structure, and values,
    in a fixed order, so the checksum of a stored chunk is reproducible
    from the in-memory matrix alone."""
    return crc32_bytes(np.asarray(matrix.shape, dtype=np.int64), *csr_buffers(matrix))


def crc32_matrix_of_layout(shape, layout_crc: int, layout_nbytes: int) -> int:
    """:func:`crc32_matrix` of a ``shape`` matrix whose three layout
    buffers, back to back, have CRC32 ``layout_crc`` over
    ``layout_nbytes`` bytes (a one-matrix frame's payload) — derived
    from that one pass, the buffers are not read again."""
    return crc32_combine(crc32_bytes(np.asarray(shape, dtype=np.int64)),
                         layout_crc, layout_nbytes)
