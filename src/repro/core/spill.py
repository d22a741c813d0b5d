"""Chunk stores and the checkpoint run manifest.

The paper assembles arriving chunks in (128 GB of) host memory.  When the
output exceeds even the host, chunks must spill to storage — the natural
next rung of the out-of-core ladder.  Two stores share one interface:

``MemoryChunkStore``
    the paper's behaviour: chunks held as CSR matrices in host memory.
``DiskChunkStore``
    each chunk written to its own file as it "arrives" — one CRC'd
    frame of :mod:`repro.sparse.codec` (DESIGN.md, "Byte layout"),
    the same bytes a socket carries — and re-loaded lazily; peak host
    memory stays at one chunk.
    A store pointed at a directory that already holds chunk files
    *adopts* them — which is how a resumed run finds the chunks a
    previous (killed) run already produced.  Into an empty one, a run
    writes C's strips.

Both assemble into the full matrix on demand, and both are accepted by
:func:`repro.core.api.run_out_of_core` via the ``chunk_store`` argument.

:class:`RunManifest` is the checkpoint's file: a JSON record of the
run's identity (a fresh run id plus a SHA-256 hash of the operands and
the chunk grid) and, incrementally, the full :class:`~repro.core.chunks.\
ChunkStats` record of every completed chunk; every rewrite is atomic
(temp file + ``os.replace``), so a kill mid-write leaves the previous
good manifest.  :class:`Checkpoint` pairs it with a store and is the one
place their protocol is written down — how a finished chunk *lands*
(store write, CRC, manifest mark, in that order, so the manifest never
points at data whose write had not finished) and how a resume is
verified — for the engine, the shard node and the remote worker alike
(docs/FAULT_TOLERANCE.md, "Checkpoint and resume").  Nothing is
fsynced: the order holds against a killed process, not a host crash,
after which the page cache may have lost a renamed file's data.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import uuid
import zlib
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from ..observability import as_tracer
from ..sparse.codec import (
    _MAGIC,
    FRAME_PREFIX,
    FrameError,
    crc32_bytes,
    csr_arrays,
    csr_buffers,
    csr_from_arrays,
    frame_parts,
    unpack_body,
    unpack_frame,
    unpack_prefix,
)
from ..sparse.formats import INDEX_DTYPE, VALUE_DTYPE, CSRMatrix
from ..sparse.ops import extract_columns
from .chunks import ChunkGrid, ChunkStats
from .governor.integrity import ChunkCorruption, crc32_matrix

__all__ = [
    "MemoryChunkStore",
    "DiskChunkStore",
    "SpillableChunkStore",
    "RunManifest",
    "Checkpoint",
    "LayoutCheckpoint",
    "ManifestMismatch",
    "operand_grid_hash",
]


class MemoryChunkStore:
    """Chunks kept in host memory (the paper's configuration).

    ``tracer`` (:mod:`repro.observability`) records per-chunk ``put`` /
    ``get`` latency spans and samples the bytes held by the store after
    every put — the "chunk-store bytes" gauge of the pipeline trace.
    """

    def __init__(self, *, tracer=None) -> None:
        self._chunks: Dict[Tuple[int, int], CSRMatrix] = {}
        self._shape: Optional[Tuple[int, int]] = None  # (row panels, col panels)
        # what assemble() needs to lay C out before touching a chunk
        # again: each put chunk's (column count, per-row nnz), 8 B a row
        self._counts: Dict[Tuple[int, int], Tuple[int, np.ndarray]] = {}
        # the parallel chunk executor streams arrivals from worker threads
        self._lock = threading.Lock()
        self._tracer = as_tracer(tracer)
        self._held_bytes = 0  # maintained incrementally; nbytes() is O(n)

    def put(self, row_panel: int, col_panel: int, chunk: CSRMatrix) -> None:
        with self._tracer.span(f"store_put[{row_panel},{col_panel}]", "store",
                               bytes=chunk.nbytes() if self._tracer.enabled else 0):
            with self._lock:
                prev = self._chunks.get((row_panel, col_panel))
                if prev is not None:
                    self._held_bytes -= prev.nbytes()
                self._chunks[(row_panel, col_panel)] = chunk
                self._held_bytes += chunk.nbytes()
                self._note_put(row_panel, col_panel, chunk)
        if self._tracer.enabled:
            self._tracer.gauge("chunk_store_bytes", held=self._held_bytes)

    def _grow_shape(self, row_panel: int, col_panel: int) -> None:
        rs = max(row_panel + 1, self._shape[0] if self._shape else 0)
        cs = max(col_panel + 1, self._shape[1] if self._shape else 0)
        self._shape = (rs, cs)

    def _note_put(self, row_panel: int, col_panel: int,
                  chunk: CSRMatrix) -> None:
        """Bookkeeping of one ``put`` (under the lock): the grid extent
        and the chunk's row counts."""
        self._grow_shape(row_panel, col_panel)
        self._counts[(row_panel, col_panel)] = (chunk.n_cols, chunk.row_nnz())

    def get(self, row_panel: int, col_panel: int) -> CSRMatrix:
        with self._tracer.span(f"store_get[{row_panel},{col_panel}]", "store"):
            return self._chunks[(row_panel, col_panel)]

    def discard(self, row_panel: int, col_panel: int) -> None:
        """Forget one chunk (e.g. one that failed integrity checks on
        resume) so a recompute can overwrite it; no-op when absent."""
        with self._lock:
            prev = self._chunks.pop((row_panel, col_panel), None)
            if prev is not None:
                self._held_bytes -= prev.nbytes()
            self._counts.pop((row_panel, col_panel), None)

    @property
    def held_bytes(self) -> int:
        """Host memory currently held by stored chunks (incremental
        counter; what the host-memory governor charges for the store)."""
        return self._held_bytes

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def keys(self) -> Iterator[Tuple[int, int]]:
        return iter(sorted(self._chunks))

    def grid_shape(self) -> Tuple[int, int]:
        if self._shape is None:
            raise ValueError("store is empty")
        return self._shape

    def assemble(self) -> CSRMatrix:
        """The full output matrix (requires a complete grid).

        Holds one chunk at a time beside the product: C is laid out
        (:class:`~repro.core.assemble.OutputLayout`) from the row counts
        remembered at ``put``, then each chunk is fetched, copied into
        place and dropped.  A chunk this store never ``put`` — a file
        adopted from an earlier run — has no remembered counts and is
        read one extra time, up front, just to count it.
        """
        from .assemble import OutputLayout

        rows, cols = self.grid_shape()
        have = set(self.keys())
        missing = [
            (i, j) for i in range(rows) for j in range(cols)
            if (i, j) not in have
        ]
        if missing:
            raise ValueError(f"incomplete chunk grid; missing {missing[:4]}...")

        def counts(i: int, j: int) -> Tuple[int, np.ndarray]:
            known = self._counts.get((i, j))
            if known is None:
                chunk = self.get(i, j)
                known = (chunk.n_cols, chunk.row_nnz())
            return known

        grid = [[counts(i, j) for j in range(cols)] for i in range(rows)]
        layout = OutputLayout.from_counts(
            [[row_nnz for _, row_nnz in row] for row in grid],
            [[width for width, _ in row] for row in grid],
        )
        for i in range(rows):
            for j in range(cols):
                layout.place(i, j, self.get(i, j))
        return layout.matrix()

    def nbytes(self) -> int:
        """Host memory held by the stored chunks."""
        return sum(c.nbytes() for c in self._chunks.values())

    def close(self) -> None:  # symmetry with the disk store
        self._chunks.clear()
        self._counts.clear()


def _read_chunk(fh) -> CSRMatrix:
    """The chunk in an open chunk file, which is its frame: magic and
    lengths are checked against the file's size before anything is
    allocated, then the payload is read into one buffer.  A file that
    does not start with the magic (a zlib stream cannot) was deflated."""
    prefix = fh.read(FRAME_PREFIX.size)
    if not prefix.startswith(_MAGIC):
        fh.seek(0)
        return _read_deflated_chunk(fh)
    header_len, payload_len, crc = unpack_prefix(prefix)
    present = os.fstat(fh.fileno()).st_size
    if FRAME_PREFIX.size + header_len + payload_len != present:
        raise FrameError(
            f"frame lengths (header {header_len}, payload {payload_len}) "
            f"do not add up to the {present} bytes present")
    header = fh.read(header_len)
    payload = bytearray(payload_len)
    if len(header) != header_len or fh.readinto(payload) != payload_len:
        raise FrameError("file shrank while it was read")
    _, meta, arrays = unpack_body(header, payload, crc)
    return csr_from_arrays(meta, arrays)


def _read_deflated_chunk(fh) -> CSRMatrix:
    """The chunk in a file written before chunk files held their frame
    raw: a deflate stream of the index section then the raw values, or
    of the whole frame.  Inflated and joined, it must be one frame."""
    inflate = zlib.decompressobj()
    frame = inflate.decompress(fh.read())
    if not inflate.eof:
        raise FrameError("file ends inside its deflate stream")
    _, meta, arrays = unpack_frame(frame + inflate.unused_data)
    return csr_from_arrays(meta, arrays)


class DiskChunkStore(MemoryChunkStore):
    """Chunks spilled to per-chunk frame files under a directory.

    A chunk file is its frame, byte for byte as a socket carries it.
    ``put`` writes and releases the chunk immediately, through a
    temporary file renamed into place, so a failed write leaves the
    previous copy (or none); ``get`` re-loads.
    The directory is created on demand (a temporary one when not given)
    and removed by :meth:`close`.

    Chunk files already present in the directory are **adopted** (their
    panel coordinates parsed back from the filenames): a resumed run
    pointed at the previous run's spill directory serves the completed
    chunks from disk and only writes the ones it recomputes.  A file
    written deflated, as chunk files were before they held their frame
    raw, still reads.  A temporary file left by a put that never reached
    its rename is deleted on adoption.

    A *strip run* into an empty store writes C into one file instead, a
    row panel's strip at a time; :meth:`assemble` maps it, :meth:`get`
    slices it, each once the strips' CRC32s check out.  Such a store takes
    no :meth:`put`; adoption deletes the file (nothing records it).
    """

    def __init__(self, directory: Optional[os.PathLike] = None, *,
                 tracer=None) -> None:
        super().__init__(tracer=tracer)
        self._own_dir = directory is None
        self._dir = Path(directory) if directory else Path(tempfile.mkdtemp(prefix="repro-chunks-"))
        self._dir.mkdir(parents=True, exist_ok=True)
        # (row panel, col panel) -> (chunk file, its size in bytes)
        self._files: Dict[Tuple[int, int], Tuple[Path, int]] = {}
        self._disk_bytes = 0  # their sizes' sum, kept as files come and go
        self._layout = None  # a strip run's, and its strips written:
        self._strips: Dict[int, Tuple[int, int, int]] = {}  # rp -> slots, CRC32
        self._c_file = self._dir / "c.strips"
        self._c_file.unlink(missing_ok=True)  # a strip run's, never closed
        for torn in self._dir.glob("chunk_*_*.frame.tmp"):
            torn.unlink(missing_ok=True)  # a put killed before its rename
        for path in sorted(self._dir.glob("chunk_*_*.frame")):
            try:
                rp, cp = map(int, path.stem.split("_")[1:3])
                size = path.stat().st_size
            except (ValueError, OSError):
                continue  # not one of ours, or gone
            self._files[(rp, cp)] = (path, size)
            self._disk_bytes += size
            self._grow_shape(rp, cp)

    @property
    def directory(self) -> Path:
        """The spill directory (recorded in checkpoint manifests)."""
        return self._dir

    def _path(self, row_panel: int, col_panel: int) -> Path:
        return self._dir / f"chunk_{row_panel}_{col_panel}.frame"

    def put(self, row_panel: int, col_panel: int, chunk: CSRMatrix) -> None:
        if self._layout is not None:
            raise RuntimeError("a strip run's store takes no chunk files")
        key = (row_panel, col_panel)
        path = self._path(row_panel, col_panel)
        tmp = path.with_name(path.name + ".tmp")  # outside the adoption glob
        with self._tracer.span(f"store_put[{row_panel},{col_panel}]", "store",
                               bytes=chunk.nbytes() if self._tracer.enabled else 0):
            # every chunk at rest carries its frame's CRC32, verified on
            # get(); distinct per-chunk file, so the write needs no lock.
            # The frame's parts alias the chunk: no joined copy is made
            parts = frame_parts("chunk", *csr_arrays(chunk))
            try:
                with open(tmp, "wb") as fh:
                    fh.writelines(parts)
                    size = fh.tell()
                os.replace(tmp, path)
            except BaseException:
                tmp.unlink(missing_ok=True)
                raise
            with self._lock:
                _, before = self._files.get(key, (path, 0))
                self._files[key] = (path, size)
                self._disk_bytes += size - before
                self._note_put(row_panel, col_panel, chunk)
        if self._tracer.enabled:
            self._tracer.gauge("chunk_store_bytes", held=self.nbytes())

    def open_strips(self, layout) -> None:
        """Size a strip run's file, C's ``col_ids | data``, by its ``layout``."""
        self._disk_bytes = 16 * int(layout.row_offsets[-1])
        with open(self._c_file, "wb") as fh:
            fh.truncate(self._disk_bytes)
        self._layout = layout
        self._shape = (layout.row_bounds.size - 1, layout.col_bounds.size - 1)

    def write_strip(self, row_panel: int, first: int, col_ids: np.ndarray,
                    data: np.ndarray) -> None:
        """Write a strip (C's slots from ``first`` on) and keep its CRC32."""
        with self._tracer.span(f"store_strip[{row_panel}]", "store",
                               bytes=col_ids.nbytes + data.nbytes):
            with open(self._c_file, "r+b") as fh:
                fh.seek(8 * first)
                fh.write(col_ids)
                fh.seek(self._disk_bytes // 2 + 8 * first)
                fh.write(data)
            self._strips[row_panel] = (first, first + col_ids.size,
                                       crc32_bytes(col_ids, data))

    def _mapped(self, row_panels) -> CSRMatrix:
        """C, the file mapped copy-on-write, once ``row_panels`` pass their CRC32."""
        layout, nnz = self._layout, self._disk_bytes // 16
        try:  # (an empty file cannot be mapped)
            both = (np.memmap(self._c_file, INDEX_DTYPE, "c", shape=(2, nnz))
                    if nnz else np.empty((2, 0), dtype=INDEX_DTYPE))
        except (OSError, ValueError) as exc:  # missing, or short
            raise ChunkCorruption(f"C file unreadable: {exc}",
                                  path=self._c_file) from exc
        c = CSRMatrix(int(layout.row_bounds[-1]), int(layout.col_bounds[-1]),
                      layout.row_offsets.copy(), both[0],
                      both[1].view(VALUE_DTYPE), check=False)
        for rp in row_panels:
            first, end, crc = self._strips[rp]
            if crc32_bytes(c.col_ids[first:end], c.data[first:end]) != crc:
                raise ChunkCorruption(f"row panel {rp}'s strip fails its CRC32",
                                      path=self._c_file, row_panel=rp)
        return c

    def get(self, row_panel: int, col_panel: int) -> CSRMatrix:
        with self._tracer.span(f"store_get[{row_panel},{col_panel}]", "store"):
            if self._layout is not None:
                strip = self._mapped([row_panel]).row_slice(
                    *self._layout.row_bounds[row_panel:row_panel + 2])
                return extract_columns(
                    strip, *self._layout.col_bounds[col_panel:col_panel + 2])
            path, _ = self._files[(row_panel, col_panel)]
            try:
                with open(path, "rb") as fh:
                    return _read_chunk(fh)
            except (FrameError, zlib.error, OSError) as exc:
                # truncated / garbage / bit-flipped file -> typed
                # corruption with the path and panel coords
                raise ChunkCorruption(
                    f"chunk file corrupt: {exc}",
                    path=path, row_panel=row_panel, col_panel=col_panel,
                ) from exc

    def discard(self, row_panel: int, col_panel: int) -> None:
        with self._lock:
            path, size = self._files.pop((row_panel, col_panel), (None, 0))
            self._disk_bytes -= size
            self._counts.pop((row_panel, col_panel), None)
        if path is not None:
            Path(path).unlink(missing_ok=True)

    def keys(self) -> Iterator[Tuple[int, int]]:
        if self._layout is not None:  # the chunks of the strips written
            return iter([(rp, cp) for rp in sorted(self._strips)
                         for cp in range(self._shape[1])])
        return iter(sorted(self._files))

    def assemble(self) -> CSRMatrix:
        """The full output matrix (requires a complete grid).  After a
        strip run, the file mapped: nothing read into a buffer or placed."""
        if self._layout is None:
            return super().assemble()
        if len(self._strips) < self._shape[0]:
            raise ValueError("incomplete chunk grid: a row panel has no strip")
        return self._mapped(self._strips)

    def nbytes(self) -> int:
        """Bytes on disk (each file its frame; a strip run's, C), counted
        as files are written, adopted and discarded — no ``stat``."""
        return self._disk_bytes

    def close(self) -> None:
        self._c_file.unlink(missing_ok=True)
        self._layout, self._strips = None, {}
        for path, _ in self._files.values():
            path.unlink(missing_ok=True)
        self._files.clear()
        self._disk_bytes = 0
        self._counts.clear()
        if self._own_dir:
            try:
                self._dir.rmdir()
            except OSError:
                pass


class SpillableChunkStore(MemoryChunkStore):
    """A memory store that migrates chunks to disk under pressure.

    Behaves exactly like :class:`MemoryChunkStore` until someone calls
    :meth:`spill` — typically the host-memory governor, when admission
    would exceed the budget.  Spilling moves the largest in-memory
    chunks into a lazily created :class:`DiskChunkStore` (CRC-stamped
    like any disk chunk); ``get`` serves from memory first and falls
    back to disk transparently, so assembly and resume never notice
    where a chunk physically lives.
    """

    def __init__(self, directory: Optional[os.PathLike] = None, *,
                 tracer=None) -> None:
        super().__init__(tracer=tracer)
        self._spill_directory = directory
        self._disk: Optional[DiskChunkStore] = None
        self.spilled_bytes_total = 0  # cumulative bytes migrated to disk
        if directory is not None and Path(directory).exists():
            # adopt chunks a previous (killed) run already spilled here
            disk = DiskChunkStore(directory, tracer=tracer)
            if len(disk):
                self._disk = disk
                for rp, cp in disk.keys():
                    self._grow_shape(rp, cp)

    def _disk_store(self) -> DiskChunkStore:
        if self._disk is None:
            self._disk = DiskChunkStore(self._spill_directory,
                                        tracer=self._tracer)
        return self._disk

    def put(self, row_panel: int, col_panel: int, chunk: CSRMatrix) -> None:
        super().put(row_panel, col_panel, chunk)
        if self._disk is not None:
            # a recompute supersedes any spilled copy of the same chunk
            self._disk.discard(row_panel, col_panel)

    def spill(self, min_bytes: int) -> int:
        """Migrate in-memory chunks to disk until ``min_bytes`` of host
        memory are freed (largest first — fewest files for the most
        relief); returns the bytes actually freed."""
        freed = 0
        while freed < min_bytes:
            with self._lock:
                if not self._chunks:
                    break
                key = max(self._chunks, key=lambda k: self._chunks[k].nbytes())
                chunk = self._chunks[key]
            # written before it leaves memory: a failed write loses nothing
            self._disk_store().put(key[0], key[1], chunk)
            with self._lock:
                if self._chunks.get(key) is not chunk:
                    # a put superseded it meanwhile: the copy just written is stale
                    self._disk.discard(key[0], key[1])
                    continue
                del self._chunks[key]
                self._held_bytes -= chunk.nbytes()
            freed += chunk.nbytes()
            self.spilled_bytes_total += chunk.nbytes()
        if freed and self._tracer.enabled:
            self._tracer.gauge("chunk_store_bytes", held=self._held_bytes,
                               spilled=self.spilled_bytes_total)
            self._tracer.bump("governor", spills=1)
        return freed

    def get(self, row_panel: int, col_panel: int) -> CSRMatrix:
        with self._lock:
            chunk = self._chunks.get((row_panel, col_panel))
        if chunk is not None:
            return chunk
        if self._disk is not None:
            return self._disk.get(row_panel, col_panel)
        raise KeyError((row_panel, col_panel))

    def discard(self, row_panel: int, col_panel: int) -> None:
        super().discard(row_panel, col_panel)
        if self._disk is not None:
            self._disk.discard(row_panel, col_panel)

    def keys(self) -> Iterator[Tuple[int, int]]:
        on_disk = self._disk.keys() if self._disk is not None else ()
        return iter(sorted({*self._chunks, *on_disk}))

    def nbytes(self) -> int:
        """Total stored bytes: host memory plus disk."""
        disk = self._disk.nbytes() if self._disk is not None else 0
        return super().nbytes() + disk

    def close(self) -> None:
        super().close()
        if self._disk is not None:
            self._disk.close()
            self._disk = None


# ----------------------------------------------------------------------
# checkpoint / resume
# ----------------------------------------------------------------------
class ManifestMismatch(ValueError):
    """A manifest does not belong to the (operands, grid) being resumed."""


def operand_grid_hash(a: CSRMatrix, b: CSRMatrix, grid: ChunkGrid) -> str:
    """SHA-256 fingerprint binding a manifest to its exact computation.

    Hashes the full CSR content of both operands plus the grid bounds —
    a resumed run with different inputs (or a different partitioning)
    must be rejected, not silently mixed with stale chunks.
    """
    h = hashlib.sha256()
    for mat in (a, b):
        h.update(repr(mat.shape).encode())
        for buf in csr_buffers(mat):
            h.update(buf)
    h.update(grid.row_bounds.tobytes())
    h.update(grid.col_bounds.tobytes())
    return h.hexdigest()


class RunManifest:
    """Incremental JSON checkpoint of one chunk-grid execution.

    Written and read back through a :class:`Checkpoint`, which calls
    :meth:`mark_done` *after* each chunk's store write.  Every update
    rewrites the file atomically, so the manifest on disk is always a
    consistent prefix of the run — if the process is killed; nothing is
    fsynced, so not if the host crashes.

    Thread-safe: lane threads complete chunks concurrently (the executor
    additionally serializes landings, but the manifest does not rely on
    that).
    """

    VERSION = 1

    def __init__(self, path: os.PathLike, header: dict,
                 completed: Optional[Dict[int, ChunkStats]] = None,
                 chunk_crcs: Optional[Dict[int, int]] = None) -> None:
        self.path = Path(path)
        self._header = header
        self._completed: Dict[int, ChunkStats] = dict(completed or {})
        #: chunk id -> CRC32 of the chunk matrix recorded at sink time;
        #: resume verifies stored chunks against these before trusting them
        self._chunk_crcs: Dict[int, int] = dict(chunk_crcs or {})
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, path: os.PathLike, a: CSRMatrix, b: CSRMatrix,
               grid: ChunkGrid, *,
               store_dir: Optional[os.PathLike] = None) -> "RunManifest":
        """Start a fresh manifest for ``C = A x B`` over ``grid`` and
        write it (with zero completed chunks) immediately."""
        header = {
            "version": cls.VERSION,
            "run_id": uuid.uuid4().hex,
            "grid_hash": operand_grid_hash(a, b, grid),
            "num_chunks": grid.num_chunks,
            "row_bounds": grid.row_bounds.tolist(),
            "col_bounds": grid.col_bounds.tolist(),
            "store_dir": str(store_dir) if store_dir is not None else None,
        }
        manifest = cls(path, header)
        manifest._write()
        return manifest

    @classmethod
    def load(cls, path: os.PathLike) -> "RunManifest":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ManifestMismatch(
                f"manifest {path} is not valid JSON (truncated or "
                f"corrupted): {exc}"
            ) from exc
        if not isinstance(payload, dict):
            raise ManifestMismatch(
                f"manifest {path} holds a JSON {type(payload).__name__}, "
                "not an object — refusing to resume from it")
        # integrity: the manifest carries a CRC32 over its own canonical
        # serialization; a bit-flip in stats or header must not be
        # silently resumed against.  Manifests written before the field
        # existed load without the check.
        recorded_crc = payload.pop("manifest_crc32", None)
        if recorded_crc is not None:
            actual = cls._payload_crc(payload)
            if actual != recorded_crc:
                raise ManifestMismatch(
                    f"manifest {path} failed its integrity check "
                    f"(stored {recorded_crc!r}, recomputed {actual}) — "
                    "refusing to resume from it"
                )
        version = payload.get("version")
        if version != cls.VERSION:
            raise ManifestMismatch(
                f"unsupported manifest version {version!r} in {path}"
            )
        try:
            header = {k: payload[k] for k in (
                "version", "run_id", "grid_hash", "num_chunks",
                "row_bounds", "col_bounds", "store_dir",
            )}
            completed = {}
            chunk_crcs = {}
            for cid, record in payload.get("chunks", {}).items():
                if record.get("crc32") is not None:
                    chunk_crcs[int(cid)] = int(record["crc32"])
                completed[int(cid)] = ChunkStats.from_record(record)
            manifest = cls(path, header, completed, chunk_crcs)
            if manifest.grid.num_chunks != manifest.num_chunks:
                raise ValueError(f"{manifest.num_chunks} chunks recorded "
                                 "for a grid of another size")
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            # valid JSON, but not the shape of a manifest
            raise ManifestMismatch(
                f"manifest {path} is malformed ({type(exc).__name__}: "
                f"{exc}) — refusing to resume from it"
            ) from exc
        return manifest

    @staticmethod
    def _payload_crc(payload: dict) -> int:
        """CRC32 over the canonical (sorted, compact) JSON serialization
        of the manifest payload, excluding the CRC field itself."""
        body = json.dumps(payload, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
        return crc32_bytes(body)

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    @property
    def run_id(self) -> str:
        return self._header["run_id"]

    @property
    def num_chunks(self) -> int:
        return int(self._header["num_chunks"])

    @property
    def store_dir(self) -> Optional[str]:
        return self._header["store_dir"]

    @property
    def grid(self) -> ChunkGrid:
        return ChunkGrid(
            row_bounds=np.asarray(self._header["row_bounds"], dtype=np.int64),
            col_bounds=np.asarray(self._header["col_bounds"], dtype=np.int64),
        )

    def validate(self, a: CSRMatrix, b: CSRMatrix, grid: ChunkGrid) -> None:
        """Reject a manifest recorded for different operands or grid."""
        actual = operand_grid_hash(a, b, grid)
        if actual != self._header["grid_hash"]:
            raise ManifestMismatch(
                f"manifest {self.path} (run {self.run_id}) was recorded "
                "for different operands or a different chunk grid — "
                "refusing to resume against it"
            )

    # ------------------------------------------------------------------
    # progress
    # ------------------------------------------------------------------
    def mark_done(self, stats: ChunkStats,
                  crc32: Optional[int] = None) -> None:
        """Record one completed chunk and persist the manifest atomically.

        :meth:`Checkpoint.land` calls this after the chunk's store
        write — completion on disk implies the data is on disk.
        ``crc32`` (the chunk matrix's integrity checksum) lets a resume
        verify the stored chunk before trusting it."""
        with self._lock:
            self._completed[stats.chunk_id] = stats
            if crc32 is not None:
                self._chunk_crcs[stats.chunk_id] = int(crc32)
            self._write()

    def completed_stats(self) -> Dict[int, ChunkStats]:
        """``{chunk_id: ChunkStats}`` of every recorded chunk."""
        with self._lock:
            return dict(self._completed)

    def chunk_crc(self, chunk_id: int) -> Optional[int]:
        """The CRC32 recorded for a completed chunk (``None`` when the
        manifest predates integrity stamping)."""
        with self._lock:
            return self._chunk_crcs.get(chunk_id)

    def verified_stats(self, store) -> Tuple[Dict[int, ChunkStats], int]:
        """The resume integrity gate: re-read each checkpointed chunk
        from ``store`` and verify it against the CRC recorded at sink
        time.  Returns ``(verified_stats, dropped)`` — dropped chunks
        (corrupt, mismatched, or missing) are evicted from the store so
        the executor recomputes them; the recompute re-checkpoints with
        a fresh CRC."""
        verified = {}
        dropped = 0
        for cid, stats in self.completed_stats().items():
            rp, cp = stats.row_panel, stats.col_panel
            try:
                matrix = store.get(rp, cp)
                expected = self.chunk_crc(cid)
                if expected is not None and crc32_matrix(matrix) != expected:
                    # parses, but is not the chunk the manifest
                    # checkpointed (e.g. silently overwritten)
                    raise ChunkCorruption("chunk does not match its manifest CRC",
                                          row_panel=rp, col_panel=cp)
            except (KeyError, ChunkCorruption):
                store.discard(rp, cp)  # no-op for one that vanished
                dropped += 1
            else:
                verified[cid] = stats
        return verified, dropped

    @property
    def completed_count(self) -> int:
        with self._lock:
            return len(self._completed)

    @property
    def is_complete(self) -> bool:
        return self.completed_count == self.num_chunks

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def _write(self) -> None:
        payload = dict(self._header)
        chunks = {}
        for cid, st in sorted(self._completed.items()):
            record = st.to_record()
            if cid in self._chunk_crcs:
                record["crc32"] = self._chunk_crcs[cid]
            chunks[str(cid)] = record
        payload["chunks"] = chunks
        payload["manifest_crc32"] = self._payload_crc(payload)
        tmp = self.path.with_name(self.path.name + ".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
        os.replace(tmp, self.path)


class Checkpoint:
    """Where a run's finished chunks land and a resume picks them up: an
    optional chunk store, an optional :class:`RunManifest`, and the one
    statement of the protocol between them.

    ``completed`` is the live ``{chunk_id: ChunkStats}`` of the chunks a
    run may skip — what a resume verified, plus everything :meth:`land`
    has taken since.  :func:`~repro.core.executor.execute_chunk_grid`
    (``checkpoint=``) skips it, lands each chunk it computes and fetches
    the skipped ones back from ``store``; a shard node lands the
    chunks its remote worker streams home through the same method.
    ``resumed`` / ``dropped`` count the recorded chunks a resume kept and
    the ones that failed its CRC gate (evicted; they recompute).
    """

    def __init__(self, store=None, manifest: Optional[RunManifest] = None,
                 completed: Optional[Dict[int, ChunkStats]] = None,
                 dropped: int = 0) -> None:
        self.store = store
        self.manifest = manifest
        self.completed: Dict[int, ChunkStats] = dict(completed or {})
        self.resumed = len(self.completed)
        self.dropped = dropped

    @classmethod
    def open(cls, a: CSRMatrix, b: CSRMatrix, grid: Optional[ChunkGrid], *,
             store=None, path=None, resume: bool = False) -> "Checkpoint":
        """The checkpoint of ``C = A x B`` over ``grid``.

        ``resume`` loads the manifest at ``path`` (a path, or a loaded
        :class:`RunManifest`), validates it against the operands and the
        grid (``None``: the grid it recorded) and CRC-checks every chunk
        it records against ``store``: what is corrupt or missing is
        evicted and left to recompute.  Without a store the recorded
        chunks are skipped unverified — there is nothing to verify, and
        nothing to fetch them back from.  Otherwise a fresh manifest is
        created at ``path`` (``None``: a store alone), recording the
        store's directory."""
        if not resume:
            manifest = None if path is None else RunManifest.create(
                path, a, b, grid,
                store_dir=getattr(store, "directory", None))
            return cls(store, manifest)
        manifest = (path if isinstance(path, RunManifest)
                    else RunManifest.load(path))
        manifest.validate(a, b, grid if grid is not None else manifest.grid)
        if store is None:
            return cls(store, manifest, manifest.completed_stats())
        return cls(store, manifest, *manifest.verified_stats(store))

    def land(self, stats: ChunkStats, matrix: CSRMatrix,
             crc: Optional[int] = None) -> None:
        """Take one finished chunk: store write, then the manifest mark
        (with the chunk's CRC — ``crc`` when the caller already computed
        it), then ``completed`` — a process killed between any two
        leaves the manifest a subset of what is stored.  Nothing is
        fsynced, so a host crash is not covered.  Callers serialize
        landings (the engine's sink lock; one connection per span)."""
        if self.store is not None:
            self.store.put(stats.row_panel, stats.col_panel, matrix)
        if self.manifest is not None:
            self.manifest.mark_done(
                stats, crc32=crc32_matrix(matrix) if crc is None else crc)
        self.completed[stats.chunk_id] = stats


class LayoutCheckpoint(Checkpoint):
    """A checkpoint that keeps no chunk: each one lands straight at its
    final address in an :class:`~repro.core.assemble.OutputLayout` that
    several runs share — this run's row panel 0 is the layout's
    ``first_row_panel``.  A chunk that arrives before the layout is
    sealed waits for the seal; ``place`` refuses one whose rows differ
    from the sealed counts.  Nothing is recorded, so nothing resumes."""

    def __init__(self, layout, first_row_panel: int = 0) -> None:
        super().__init__()
        self.layout = layout
        self.first_row_panel = first_row_panel

    def land(self, stats: ChunkStats, matrix: CSRMatrix,
             crc: Optional[int] = None) -> None:
        self.layout.wait_sealed()
        self.layout.place(self.first_row_panel + stats.row_panel,
                          stats.col_panel, matrix)
        self.completed[stats.chunk_id] = stats
