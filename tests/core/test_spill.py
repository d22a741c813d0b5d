"""Tests for the chunk stores (host-side spill)."""

import zlib

import pytest

from repro.core.api import run_out_of_core
from repro.core.chunks import ChunkGrid
from repro.core.governor.integrity import ChunkCorruption
from repro.core.spill import (
    DiskChunkStore,
    MemoryChunkStore,
    SpillableChunkStore,
)
from repro.device.specs import v100_node
from repro.sparse.generators import random_csr
from repro.spgemm.reference import spgemm_scipy
from repro.sparse.ops import drop_explicit_zeros


@pytest.fixture(params=["memory", "disk"])
def store(request, tmp_path):
    if request.param == "memory":
        s = MemoryChunkStore()
    else:
        s = DiskChunkStore(tmp_path / "chunks")
    yield s
    s.close()


class TestStores:
    def test_put_get_roundtrip(self, store):
        m = random_csr(10, 10, 20, seed=1)
        store.put(0, 0, m)
        assert store.get(0, 0) == m
        assert len(store) == 1

    def test_assemble_from_run(self, store):
        a = random_csr(40, 40, 160, seed=2)
        node = v100_node(1 << 30)
        grid = ChunkGrid.regular(40, 40, 2, 3)
        result = run_out_of_core(
            a, a, node, grid=grid, keep_output=False, chunk_store=store
        )
        assert result.matrix is None
        assert len(store) == 6
        c = store.assemble()
        assert drop_explicit_zeros(c).allclose(spgemm_scipy(a, a))

    def test_incomplete_grid_rejected(self, store):
        store.put(0, 0, random_csr(5, 5, 5, seed=3))
        store.put(1, 1, random_csr(5, 5, 5, seed=4))
        with pytest.raises(ValueError, match="incomplete"):
            store.assemble()

    def test_empty_store(self, store):
        with pytest.raises(ValueError, match="empty"):
            store.grid_shape()

    def test_nbytes_positive(self, store):
        store.put(0, 0, random_csr(30, 30, 100, seed=5))
        assert store.nbytes() > 0

    def test_keys_sorted(self, store):
        store.put(1, 0, random_csr(4, 4, 4, seed=6))
        store.put(0, 1, random_csr(4, 4, 4, seed=7))
        assert list(store.keys()) == [(0, 1), (1, 0)]


class TestDiskSpecifics:
    def test_files_created_and_removed(self, tmp_path):
        store = DiskChunkStore(tmp_path / "spill")
        store.put(0, 0, random_csr(8, 8, 10, seed=8))
        files = list((tmp_path / "spill").glob("chunk_*"))
        assert len(files) == 1
        store.close()
        assert not list((tmp_path / "spill").glob("chunk_*"))

    def test_temp_dir_default(self):
        store = DiskChunkStore()
        store.put(0, 0, random_csr(4, 4, 4, seed=9))
        assert store.get(0, 0).nnz > 0
        store.close()


class TestIntegrity:
    """Every chunk at rest carries a CRC32; ``get`` raises a *typed*
    :class:`ChunkCorruption` — with the file path and panel coords — on
    anything from a truncated file to a silent bit flip."""

    def _stored(self, tmp_path, rp=1, cp=2):
        store = DiskChunkStore(tmp_path / "chunks")
        self.chunk = random_csr(12, 12, 30, seed=10)
        store.put(rp, cp, self.chunk)
        return store, store._path(rp, cp)

    def test_truncated_file_raises_typed_corruption(self, tmp_path):
        store, path = self._stored(tmp_path)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(ChunkCorruption) as exc_info:
            store.get(1, 2)
        err = exc_info.value
        assert str(err.path) == str(path)
        assert (err.row_panel, err.col_panel) == (1, 2)

    def test_garbage_file_raises_typed_corruption(self, tmp_path):
        store, path = self._stored(tmp_path)
        path.write_bytes(b"not a frame at all, but long enough to hold a prefix")
        with pytest.raises(ChunkCorruption):
            store.get(1, 2)

    def test_silent_bit_flip_caught_by_crc(self, tmp_path):
        # same length, same header, one value bit flipped — only the
        # checksum can tell the payload is not the chunk that was written
        store, path = self._stored(tmp_path)
        raw = bytearray(zlib.decompress(path.read_bytes()))
        raw[-1] ^= 0x01
        path.write_bytes(zlib.compress(raw))
        with pytest.raises(ChunkCorruption, match="checksum mismatch"):
            store.get(1, 2)

    def test_bit_flip_in_the_deflate_stream_is_typed(self, tmp_path):
        store, path = self._stored(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(ChunkCorruption):
            store.get(1, 2)

    def test_trailing_bytes_rejected(self, tmp_path):
        # a valid frame followed by anything is not a chunk file, inside
        # the deflate stream or after it
        store, path = self._stored(tmp_path)
        intact = path.read_bytes()
        path.write_bytes(zlib.compress(zlib.decompress(intact) + b"\0"))
        with pytest.raises(ChunkCorruption, match="do not add up"):
            store.get(1, 2)
        path.write_bytes(intact + b"\0")
        with pytest.raises(ChunkCorruption, match="one deflate stream"):
            store.get(1, 2)

    def test_structurally_invalid_chunk_rejected(self, tmp_path):
        # a well-formed frame (valid CRC) whose CSR breaks an invariant
        from repro.sparse.codec import csr_arrays, pack_frame

        store, path = self._stored(tmp_path)
        meta, arrays = csr_arrays(self.chunk)
        arrays["col_ids"] = arrays["col_ids"].copy()
        arrays["col_ids"][0] = 10_000  # column outside the matrix
        path.write_bytes(zlib.compress(pack_frame("chunk", meta, arrays)))
        with pytest.raises(ChunkCorruption, match="validation"):
            store.get(1, 2)

    def test_pre_frame_npz_chunks_are_recomputed_on_resume(self, tmp_path):
        # a checkpoint directory written before chunk files were frames
        # holds only chunk_R_C.npz files: none is adopted, so resume
        # recomputes every chunk and still returns the bit-identical C
        from repro.core.spill import RunManifest
        from repro.sparse.io import save_npz

        a = random_csr(40, 40, 160, seed=16)
        node = v100_node(1 << 30)
        grid = ChunkGrid.regular(40, 40, 2, 2)
        chunks = tmp_path / "chunks"
        manifest = tmp_path / "run.json"
        store = DiskChunkStore(chunks)
        reference = run_out_of_core(
            a, a, node, grid=grid, chunk_store=store, checkpoint=manifest,
        ).matrix
        for rp, cp in list(store.keys()):
            save_npz(chunks / f"chunk_{rp}_{cp}.npz", store.get(rp, cp))
            store.discard(rp, cp)

        legacy = DiskChunkStore(chunks)
        assert len(legacy) == 0
        result = run_out_of_core(
            a, a, node, chunk_store=legacy, resume=RunManifest.load(manifest),
        )
        assert result.meta["resumed_chunks"] == 0
        assert result.meta["corrupt_recomputed"] == grid.num_chunks
        assert result.matrix == reference
        assert len(legacy) == grid.num_chunks


class TestSpillableStore:
    def test_spill_moves_largest_chunks_to_disk(self, tmp_path):
        store = SpillableChunkStore(tmp_path / "spill")
        small = random_csr(6, 6, 8, seed=11)
        big = random_csr(40, 40, 400, seed=12)
        store.put(0, 0, small)
        store.put(0, 1, big)
        before = store.held_bytes
        freed = store.spill(1)
        assert freed >= big.nbytes()
        assert store.held_bytes < before
        assert store.spilled_bytes_total == freed
        # served transparently from disk, bit-identical
        assert store.get(0, 1) == big
        assert store.get(0, 0) == small

    def test_put_replaces_stale_disk_copy(self, tmp_path):
        store = SpillableChunkStore(tmp_path / "spill")
        first = random_csr(20, 20, 100, seed=13)
        store.put(0, 0, first)
        store.spill(first.nbytes())
        second = random_csr(20, 20, 100, seed=14)
        store.put(0, 0, second)
        assert store.get(0, 0) == second

    def test_adopts_previous_runs_spill_dir(self, tmp_path):
        chunk = random_csr(10, 10, 25, seed=15)
        first = SpillableChunkStore(tmp_path / "spill")
        first.put(0, 0, chunk)
        first.spill(chunk.nbytes())  # now durably on disk
        adopted = SpillableChunkStore(tmp_path / "spill")
        assert len(adopted) >= 1
        assert adopted.get(0, 0) == chunk
