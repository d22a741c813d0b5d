"""Tests for the chunk stores (host-side spill)."""

import errno
import os
import zlib
from pathlib import Path

import pytest

from repro.core import spill
from repro.core.api import run_out_of_core
from repro.core.assemble import assemble_chunks
from repro.core.chunks import ChunkGrid
from repro.core.executor import RetryPolicy, execute_chunk_grid
from repro.core.governor import GovernorConfig
from repro.core.governor.integrity import ChunkCorruption
from repro.core.spill import (
    Checkpoint,
    DiskChunkStore,
    MemoryChunkStore,
    SpillableChunkStore,
)
from repro.device.specs import v100_node
from repro.observability import Tracer
from repro.sparse.codec import csr_arrays, csr_buffers, frame_parts, pack_frame
from repro.sparse.generators import random_csr, rmat
from tests.reference import spgemm_scipy
from repro.sparse.ops import drop_explicit_zeros


def deflated_index_file(chunk):
    """A chunk file as written before files held their frame raw: the
    frame's index section (prefix, header, ``row_offsets``, ``col_ids``)
    as one deflate stream, then the values."""
    *index, values = frame_parts("chunk", *csr_arrays(chunk))
    return zlib.compress(b"".join(index), zlib.Z_BEST_SPEED) + values.tobytes()


def bit_identical(got, want):
    return got.shape == want.shape and all(
        g.tobytes() == w.tobytes()
        for g, w in zip(csr_buffers(got), csr_buffers(want)))


def full_disk_at(monkeypatch, call):
    """Make the ``call``-th buffer written to every file the spill store
    opens for writing raise ``ENOSPC`` — the earlier ones reach the file —
    as a disk that fills up mid-write would."""

    class Filling:
        def __init__(self, fh):
            self._fh = fh
            self._calls = 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self._fh.close()

        def __getattr__(self, name):
            return getattr(self._fh, name)

        def write(self, data):
            self._calls += 1
            if self._calls == call:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return self._fh.write(data)

        def writelines(self, parts):
            for part in parts:
                self.write(part)

    def filling_open(file, mode="r", *args, **kwargs):
        fh = open(file, mode, *args, **kwargs)
        return Filling(fh) if "w" in mode else fh

    monkeypatch.setattr(spill, "open", filling_open, raising=False)


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

    def test_file_is_the_frame(self, tmp_path):
        store = DiskChunkStore(tmp_path / "chunks")
        chunk = random_csr(30, 30, 200, seed=17)
        store.put(0, 0, chunk)
        frame = pack_frame("chunk", *csr_arrays(chunk))
        assert store._path(0, 0).read_bytes() == frame
        assert store.nbytes() == len(frame)
        store.close()

    def test_deflated_index_file_still_reads(self, tmp_path):
        # the layout written before files held their frame raw: the
        # index section deflated, the values raw after the stream
        store = DiskChunkStore(tmp_path / "chunks")
        chunk = random_csr(30, 30, 200, seed=31)
        store._path(2, 1).write_bytes(deflated_index_file(chunk))
        adopted = DiskChunkStore(tmp_path / "chunks")
        assert bit_identical(adopted.get(2, 1), chunk)
        adopted.close()

    def test_whole_frame_deflated_file_still_reads(self, tmp_path):
        # the layout before that: one deflate stream holding the whole
        # frame, nothing after it
        store = DiskChunkStore(tmp_path / "chunks")
        chunk = random_csr(30, 30, 200, seed=18)
        store._path(2, 1).write_bytes(
            zlib.compress(pack_frame("chunk", *csr_arrays(chunk)), 1))
        adopted = DiskChunkStore(tmp_path / "chunks")
        assert bit_identical(adopted.get(2, 1), chunk)
        adopted.close()

    def test_adoption_deletes_a_torn_temp_file(self, tmp_path):
        # a put killed before its rename leaves chunk_R_C.frame.tmp: no
        # adopting store reads it, so it is deleted, not left behind
        directory = tmp_path / "chunks"
        store = DiskChunkStore(directory)
        chunk = random_csr(12, 12, 30, seed=30)
        store.put(0, 0, chunk)
        torn = directory / "chunk_0_1.frame.tmp"
        torn.write_bytes(pack_frame("chunk", *csr_arrays(chunk))[:40])
        adopted = DiskChunkStore(directory)
        assert list(adopted.keys()) == [(0, 0)]
        assert bit_identical(adopted.get(0, 0), chunk)
        adopted.close()
        assert not list(directory.iterdir())

    def test_failed_put_leaves_no_file(self, tmp_path, monkeypatch):
        store = DiskChunkStore(tmp_path / "chunks")
        full_disk_at(monkeypatch, 3)
        with pytest.raises(OSError, match="No space left"):
            store.put(0, 0, random_csr(8, 8, 10, seed=19))
        assert not list((tmp_path / "chunks").iterdir())
        assert len(store) == 0 and len(DiskChunkStore(tmp_path / "chunks")) == 0

    def test_failed_put_leaves_no_residue_in_own_directory(self, monkeypatch):
        store = DiskChunkStore()
        full_disk_at(monkeypatch, 3)
        with pytest.raises(OSError):
            store.put(0, 0, random_csr(8, 8, 10, seed=20))
        store.close()
        assert not store.directory.exists()

    def test_failed_reput_keeps_the_previous_chunk(self, tmp_path, monkeypatch):
        store = DiskChunkStore(tmp_path / "chunks")
        first = random_csr(12, 12, 30, seed=21)
        store.put(0, 0, first)
        written = store._path(0, 0).read_bytes()
        full_disk_at(monkeypatch, 3)
        with pytest.raises(OSError):
            store.put(0, 0, random_csr(12, 12, 30, seed=22))
        assert store._path(0, 0).read_bytes() == written
        assert bit_identical(store.get(0, 0), first)
        assert [p.name for p in (tmp_path / "chunks").iterdir()] == ["chunk_0_0.frame"]
        store.close()

    def test_nbytes_is_the_files_sizes_without_stat(self, tmp_path, monkeypatch):
        directory = tmp_path / "chunks"

        def on_disk():
            return sum(p.stat().st_size for p in directory.iterdir())

        # traced: put samples nbytes() after every chunk
        store = DiskChunkStore(directory, tracer=Tracer())
        stats = []

        def spy(real):
            def stat(*args, **kwargs):
                stats.append(args[0])
                return real(*args, **kwargs)
            return stat

        with monkeypatch.context() as patch:
            patch.setattr(Path, "stat", spy(Path.stat))
            patch.setattr(os, "stat", spy(os.stat))
            for key, seed in [((0, 0), 23), ((0, 1), 24), ((1, 0), 25)]:
                store.put(*key, random_csr(20, 20, 60, seed=seed))
            store.put(0, 0, random_csr(20, 20, 150, seed=26))  # re-put
        assert stats == []
        assert store.nbytes() == on_disk() > 0
        store.discard(0, 1)
        assert store.nbytes() == on_disk()
        assert DiskChunkStore(directory).nbytes() == store.nbytes()  # adopted
        store.close()
        assert store.nbytes() == 0


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
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(ChunkCorruption, match="checksum mismatch"):
            store.get(1, 2)

    def test_bit_flip_in_the_deflate_stream_is_typed(self, tmp_path):
        # a file written with its index section deflated
        store, path = self._stored(tmp_path)
        raw = bytearray(deflated_index_file(self.chunk))
        raw[(len(raw) - self.chunk.data.nbytes) // 2] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(ChunkCorruption):
            store.get(1, 2)

    def test_trailing_bytes_rejected(self, tmp_path):
        # a valid frame followed by anything is not a chunk file: after
        # the raw frame, and in a deflated file inside the stream or
        # after the values
        store, path = self._stored(tmp_path)
        frame = path.read_bytes()
        *index, values = frame_parts("chunk", *csr_arrays(self.chunk))
        for bad in [frame + b"\0",
                    zlib.compress(b"".join(index) + b"\0") + values.tobytes(),
                    deflated_index_file(self.chunk) + b"\0"]:
            path.write_bytes(bad)
            with pytest.raises(ChunkCorruption, match="do not add up"):
                store.get(1, 2)

    def test_structurally_invalid_chunk_rejected(self, tmp_path):
        # a well-formed frame (valid CRC) whose CSR breaks an invariant
        from repro.sparse.codec import csr_arrays, pack_frame

        store, path = self._stored(tmp_path)
        meta, arrays = csr_arrays(self.chunk)
        arrays["col_ids"] = arrays["col_ids"].copy()
        arrays["col_ids"][0] = 10_000  # column outside the matrix
        path.write_bytes(pack_frame("chunk", meta, arrays))
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

    def test_failed_spill_keeps_the_chunk_in_memory(self, tmp_path, monkeypatch):
        store = SpillableChunkStore(tmp_path / "spill")
        chunk = random_csr(40, 40, 400, seed=27)
        store.put(0, 0, chunk)
        before = store.held_bytes
        full_disk_at(monkeypatch, 3)
        with pytest.raises(OSError, match="No space left"):
            store.spill(1)
        assert bit_identical(store.get(0, 0), chunk)
        assert store.held_bytes == before
        assert store.spilled_bytes_total == 0
        store.close()

    @pytest.mark.parametrize("race", ["put", "discard"])
    def test_spill_racing_a_put_or_discard(self, tmp_path, monkeypatch, race):
        # the chunk changes while the spill is writing it: the newer
        # state wins, and no stale copy of the old chunk stays on disk
        store = SpillableChunkStore(tmp_path / "spill")
        old = random_csr(40, 40, 400, seed=28)
        new = random_csr(40, 40, 300, seed=29)
        store.put(0, 0, old)
        real_put = DiskChunkStore.put
        raced = []

        def racing_put(disk, rp, cp, chunk):
            if not raced:  # the first write only: the retry spills `new`
                raced.append(race)
                if race == "put":
                    store.put(rp, cp, new)
                else:
                    store.discard(rp, cp)
            real_put(disk, rp, cp, chunk)

        monkeypatch.setattr(DiskChunkStore, "put", racing_put)
        store.spill(1)
        if race == "put":
            assert bit_identical(store.get(0, 0), new)
        else:
            assert list(store.keys()) == [] and store.held_bytes == 0
            assert not list((tmp_path / "spill").glob("chunk_*"))
        store.close()

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


class TestStripRuns:
    """A run whose only sink is an empty disk store writes C once, strip
    by strip, into one file; the store answers for it as for chunks."""

    @staticmethod
    def strip_run(tmp_path, grid=(3, 4), **kwargs):
        """A strip run's store, and the chunk path's chunks of that C."""
        a = rmat(8, 6.0, seed=5)
        grid = ChunkGrid.regular(a.n_rows, a.n_cols, *grid)
        _, outputs = execute_chunk_grid(a, a, grid, keep_outputs=True)
        store = DiskChunkStore(tmp_path / "chunks")
        execute_chunk_grid(a, a, grid, checkpoint=Checkpoint(store), **kwargs)
        return store, outputs

    def test_the_store_reports_the_runs_grid(self, tmp_path):
        store, outputs = self.strip_run(tmp_path)
        assert [p.name for p in store.directory.iterdir()] == ["c.strips"]
        assert list(store.keys()) == [(i, j) for i in range(3) for j in range(4)]
        assert len(store) == 12 and store.grid_shape() == (3, 4)
        assert store.nbytes() == store._c_file.stat().st_size == 16 * sum(
            c.nnz for row in outputs for c in row) > 0
        store.close()

    def test_get_slices_the_chunk_out_of_the_file(self, tmp_path):
        store, outputs = self.strip_run(tmp_path)
        for (rp, cp) in store.keys():
            assert bit_identical(store.get(rp, cp), outputs[rp][cp])
        with pytest.raises(KeyError):
            store.get(3, 0)
        store.close()

    def test_put_is_refused(self, tmp_path):
        store, outputs = self.strip_run(tmp_path)
        with pytest.raises(RuntimeError, match="strip run"):
            store.put(0, 0, outputs[0][0])
        assert [p.name for p in store.directory.iterdir()] == ["c.strips"]
        store.close()

    def test_a_leftover_c_file_is_deleted_on_adoption(self, tmp_path):
        # a strip run killed before close(): nothing records the file
        store, _ = self.strip_run(tmp_path)
        adopted = DiskChunkStore(tmp_path / "chunks")
        assert len(adopted) == 0
        assert not list((tmp_path / "chunks").iterdir())
        adopted.close()

    @pytest.mark.parametrize("where", ["col_ids", "data"])
    def test_a_flipped_byte_is_corruption_naming_the_row_panel(self, tmp_path,
                                                              where):
        store, outputs = self.strip_run(tmp_path)
        raw = bytearray(store._c_file.read_bytes())
        # the last element of row panel 1's strip
        at = int(store._strips[1][1]) - 1
        if where == "data":
            at += store.nbytes() // 16
        raw[8 * at] ^= 0x01
        store._c_file.write_bytes(bytes(raw))
        for read in (store.assemble, lambda: store.get(1, 3)):
            with pytest.raises(ChunkCorruption, match="row panel 1") as err:
                read()
            assert err.value.row_panel == 1
        # the other strips still check out
        assert bit_identical(store.get(0, 3), outputs[0][3])
        store._c_file.write_bytes(bytes(raw[:-8]))     # and a short file
        with pytest.raises(ChunkCorruption, match="unreadable"):
            store.assemble()
        store.close()

    def test_close_leaves_the_directory_empty(self, tmp_path):
        store, _ = self.strip_run(tmp_path)
        c = store.assemble()                 # a mapping outlives the file
        total = float(c.data.sum())
        store.close()
        assert not list((tmp_path / "chunks").iterdir())
        assert float(c.data.sum()) == total
        own = DiskChunkStore()
        a = random_csr(30, 30, 90, seed=3)
        execute_chunk_grid(a, a, ChunkGrid.regular(30, 30, 2, 2),
                           checkpoint=Checkpoint(own))
        own.close()
        assert not own.directory.exists()

    def test_the_assembled_product_is_a_private_copy(self, tmp_path):
        store, outputs = self.strip_run(tmp_path)
        c = store.assemble()
        c.data[:] = 0.0
        c.col_ids[:] = 0
        again = store.assemble()
        assert bit_identical(store.get(2, 1), outputs[2][1])
        assert again.data.any()
        store.close()

    def test_the_chunk_file_path_stays_where_chunks_are_asked_for(self,
                                                                  tmp_path):
        a = random_csr(40, 40, 160, seed=2)
        grid = ChunkGrid.regular(40, 40, 2, 3)

        def files(store, checkpoint=None, **kwargs):
            execute_chunk_grid(a, a, grid,
                               checkpoint=checkpoint or Checkpoint(store),
                               **kwargs)
            names = sorted(p.name for p in store.directory.iterdir())
            store.close()
            return names

        def new(name):
            return DiskChunkStore(tmp_path / name)

        chunk_files = sorted(f"chunk_{i}_{j}.frame"
                             for i in range(2) for j in range(3))
        assert files(new("s")) == ["c.strips"]
        assert files(new("t"), backend="thread", workers=2) == ["c.strips"]
        assert files(new("k"), keep_outputs=True) == chunk_files
        assert files(new("p"), backend="process", workers=2) == chunk_files
        assert files(new("g"), governor=GovernorConfig(
            host_mem_budget_bytes=1 << 30)) == chunk_files
        # a manifest records chunk files; a non-empty store keeps them
        store = new("m")
        assert files(store, Checkpoint.open(
            a, a, grid, store=store, path=tmp_path / "run.json")) == chunk_files
        store = new("n")
        store.put(5, 5, random_csr(3, 3, 3, seed=1))
        assert files(store) == chunk_files + ["chunk_5_5.frame"]

    def test_strips_open_at_a_time(self, tmp_path, monkeypatch):
        # row-major, in order: at most ceil(window / column panels) + 1.
        # Strips open as chunks ask for slots and close only here, as the
        # one being written leaves: the peak is seen at some write
        most = []
        real = DiskChunkStore.write_strip

        def counting(store, row_panel, *strip):
            most.append(len(store._layout._strips))
            real(store, row_panel, *strip)

        monkeypatch.setattr(DiskChunkStore, "write_strip", counting)
        thread = dict(backend="thread", workers=2)
        # a straggler: chunk 0 holds its strip open while the rest finish
        late = dict(thread, faults="numeric:delay:chunk=0:delay=0.2")
        for kwargs, window, cols in [({}, 1, 4), (thread, 4, 4),
                                     (dict(thread, window=5), 5, 2),
                                     (late, 4, 4), (dict(late, window=5), 5, 2)]:
            del most[:]
            store, outputs = self.strip_run(tmp_path, grid=(6, cols), **kwargs)
            assert max(most) <= -(-window // cols) + 1, (kwargs, max(most))
            assert_bit_identical_product(store, outputs)
            store.close()

    @pytest.mark.parametrize("faults", ["numeric:raise:chunk=5",
                                        "sink:raise:chunk=7",
                                        "numeric:oom:chunk=6",
                                        "symbolic:oom:chunk=2"])
    def test_retried_and_resplit_chunks_count_once(self, tmp_path,
                                                   monkeypatch, faults):
        written = []
        real = DiskChunkStore.write_strip

        def write_strip(store, row_panel, *strip):
            written.append(row_panel)
            if written.count(row_panel) == 1 and row_panel == 1:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            real(store, row_panel, *strip)

        monkeypatch.setattr(DiskChunkStore, "write_strip", write_strip)
        store, outputs = self.strip_run(
            tmp_path, faults=faults,
            retry=RetryPolicy(max_attempts=3, base_delay=0.0))
        # row panel 1's first write failed: its last chunk landed again
        assert sorted(written) == [0, 1, 1, 2]
        assert_bit_identical_product(store, outputs)
        store.close()


def assert_bit_identical_product(store, outputs):
    assert bit_identical(store.assemble(), assemble_chunks(outputs))
