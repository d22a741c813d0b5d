"""Grids cut anywhere: a chunk grid's bounds are where A and B are cut.

Any row and column bounds strictly increasing from 0 to the operand's
extent are a grid the engine runs, not only the near-equal splits of
``panel_boundaries``.  Every path — in place, ``keep_outputs``, a strip
run read back through ``DiskChunkStore.get`` / ``assemble``, checkpoint
and resume, ``run_out_of_core`` and ``run_sharded`` over both transports
— must give the bytes of the unpartitioned two-phase product; bounds
that cut nothing sensible are refused with :class:`ValueError` before
any panel is cut or kernel runs, locally and on a remote worker.
"""

import numpy as np
import pytest

import repro.core.executor.engine as engine
import repro.core.spill as spill
import repro.sparse.partition as partition
from repro.core.api import run_out_of_core
from repro.core.assemble import assemble_chunks
from repro.core.chunks import ChunkGrid, GridSizing
from repro.core.executor import execute_chunk_grid
from repro.core.governor import GovernorConfig
from repro.core.spill import Checkpoint, DiskChunkStore, RunManifest
from repro.distributed import RemoteShardPool, ShardConfig, run_sharded
from repro.distributed.transport import RemoteShardError, csr_arrays, run_remote_span
from repro.distributed.transport.worker import encode_run_config
from repro.observability import Tracer
from repro.sparse.generators import random_csr, rmat
from repro.sparse.ops import extract_columns
from repro.spgemm.native import native_available
from repro.spgemm.twophase import spgemm_twophase
from tests.conftest import assert_same_bytes

KINDS = [k for k in ("native", "esc") if k != "native" or native_available()]

A = rmat(6, 4.0, seed=1)                        # 64 x 64
B = random_csr(64, 50, 400, seed=2)             # a rectangular product

#: (a, b, grid): the sharded reproducer's grid, an irregular row split,
#: and a rectangular product with one-column and wide panels
CASES = {
    "uneven-cols": (A, A, ChunkGrid(np.array([0, 16, 32, 48, 64]),
                                    np.array([0, 10, 64]))),
    "uneven-rows": (A, A, ChunkGrid(np.array([0, 5, 32, 48, 64]),
                                    np.array([0, 10, 64]))),
    "rectangular": (A, B, ChunkGrid(np.array([0, 1, 2, 40, 64]),
                                    np.array([0, 7, 8, 50]))),
}

#: bounds that do not cut [0, n): unsorted, a repeated cut, not from 0,
#: not to n, past n, one cut only
MALFORMED = [
    ([0, 32, 16, 64], [0, 64]),
    ([0, 16, 16, 64], [0, 64]),
    ([1, 32, 64], [0, 64]),
    ([0, 32, 63], [0, 64]),
    ([0, 32, 64], [0, 10, 65]),
    ([0, 64], [0, 70, 64]),
    ([0, 64], [64]),
]


@pytest.fixture(params=sorted(CASES))
def case(request):
    a, b, grid = CASES[request.param]
    return a, b, grid, spgemm_twophase(a, b).matrix


def chunk_of(c, grid, rp, cp):
    """Chunk ``(rp, cp)`` of ``c`` as the grid bounds cut it."""
    rb, cb = grid.row_bounds, grid.col_bounds
    return extract_columns(c.row_slice(int(rb[rp]), int(rb[rp + 1])),
                           int(cb[cp]), int(cb[cp + 1]))


class TestEveryPathIsTheProduct:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("backend,workers",
                             [("serial", 1), ("thread", 3), ("process", 2)])
    def test_in_place_and_kept_chunks(self, case, kind, backend, workers):
        a, b, grid, ref = case
        profile, c = execute_chunk_grid(a, b, grid, assemble=True, kernel=kind,
                                        backend=backend, workers=workers)
        assert_same_bytes(c, ref)
        kept_profile, outputs = execute_chunk_grid(
            a, b, grid, keep_outputs=True, kernel=kind,
            backend=backend, workers=workers)
        assert kept_profile == profile
        for rp in range(grid.num_row_panels):
            for cp in range(grid.num_col_panels):
                chunk = outputs[rp][cp]
                assert chunk.shape == (int(np.diff(grid.row_bounds)[rp]),
                                       int(np.diff(grid.col_bounds)[cp]))
                assert_same_bytes(chunk, chunk_of(ref, grid, rp, cp))
        assert_same_bytes(assemble_chunks(outputs), ref)

    def test_a_governed_run_resplits_inside_the_bounds(self, case):
        a, b, grid, ref = case
        # a pool half the largest chunk: that one, at least, is re-split
        pool = int(GridSizing(a, b, grid).device_bytes.max()) // 2
        tracer = Tracer()
        _, c = execute_chunk_grid(
            a, b, grid, assemble=True, tracer=tracer,
            governor=GovernorConfig(device_pool_bytes=pool))
        assert tracer.spans_by_cat("resplit")
        assert_same_bytes(c, ref)

    def test_run_out_of_core(self, case):
        a, b, grid, ref = case
        result = run_out_of_core(a, b, grid=grid)
        assert_same_bytes(result.matrix, ref)
        assert result.profile.grid is grid

    def test_strip_run_get_and_assemble(self, case, tmp_path):
        a, b, grid, ref = case
        store = DiskChunkStore(tmp_path / "chunks")
        try:
            run_out_of_core(a, b, grid=grid, chunk_store=store,
                            keep_output=False)
            # the strip path, not chunk files
            assert [p.name for p in (tmp_path / "chunks").iterdir()] == ["c.strips"]
            for rp in range(grid.num_row_panels):
                for cp in range(grid.num_col_panels):
                    assert_same_bytes(store.get(rp, cp),
                                      chunk_of(ref, grid, rp, cp))
            assert_same_bytes(store.assemble(), ref)
        finally:
            store.close()

    def test_strip_get_cuts_only_its_panel(self, case, tmp_path, monkeypatch):
        """``get`` on a strip run cuts its one column panel off the strip:
        nothing partitions the strip, and each ``get`` equals the chunk
        ``keep_outputs`` returns."""
        a, b, grid, _ = case
        _, outputs = execute_chunk_grid(a, b, grid, keep_outputs=True)
        store = DiskChunkStore(tmp_path / "chunks")
        try:
            run_out_of_core(a, b, grid=grid, chunk_store=store,
                            keep_output=False)

            def refuse(*args, **kwargs):
                raise AssertionError("partitioned a strip to get one chunk")
            monkeypatch.setattr(partition, "partition_columns", refuse)
            monkeypatch.setattr(engine, "partition_columns", refuse)
            cuts = []
            monkeypatch.setattr(spill, "extract_columns", lambda m, lo, hi: (
                cuts.append((int(lo), int(hi))) or extract_columns(m, lo, hi)))
            cb = grid.col_bounds.tolist()
            for rp in range(grid.num_row_panels):
                for cp in range(grid.num_col_panels):
                    del cuts[:]
                    assert_same_bytes(store.get(rp, cp), outputs[rp][cp])
                    assert cuts == [(cb[cp], cb[cp + 1])]
        finally:
            store.close()

    def test_checkpoint_and_resume(self, case, tmp_path):
        a, b, grid, ref = case
        manifest = tmp_path / "run.json"
        run_out_of_core(a, b, grid=grid, keep_output=False,
                        chunk_store=DiskChunkStore(tmp_path / "chunks"),
                        checkpoint=manifest)
        full = RunManifest.load(manifest)
        keep = dict(sorted(full.completed_stats().items())[: full.num_chunks // 2])
        RunManifest(manifest, full._header, keep,
                    {cid: full.chunk_crc(cid) for cid in keep})._write()
        store = DiskChunkStore(tmp_path / "chunks")
        try:
            resumed = run_out_of_core(a, b, grid=grid, chunk_store=store,
                                      resume=manifest)
            assert resumed.meta["resumed_chunks"] == len(keep)
            assert_same_bytes(resumed.matrix, ref)
            # the grid the manifest recorded, when none is given
            again = run_out_of_core(a, b, chunk_store=store, resume=manifest)
            np.testing.assert_array_equal(again.profile.grid.col_bounds,
                                          grid.col_bounds)
            assert_same_bytes(again.matrix, ref)
        finally:
            store.close()


@pytest.fixture(scope="module")
def socket_pool():
    with RemoteShardPool.spawn(2, kind="unix") as pool:
        yield pool


class TestShardedRuns:
    @pytest.mark.parametrize("transport", ["local", "socket"])
    @pytest.mark.parametrize("name", ["uneven-cols", "uneven-rows"])
    def test_the_reproducer_grids(self, name, transport, socket_pool):
        a, b, grid = CASES[name]
        regular = execute_chunk_grid(
            a, b, ChunkGrid.regular(a.n_rows, b.n_cols, 4, 2), assemble=True)[1]
        res = run_sharded(a, b, ShardConfig(num_shards=2, transport=transport),
                          grid=grid,
                          worker_pool=socket_pool if transport == "socket" else None)
        assert res.num_shards == 2
        assert_same_bytes(res.matrix, regular)
        assert_same_bytes(res.matrix, spgemm_twophase(a, b).matrix)

    @pytest.mark.parametrize("transport", ["local", "socket"])
    def test_checkpointed_shards(self, case, transport, socket_pool, tmp_path):
        a, b, grid, ref = case
        res = run_sharded(a, b, ShardConfig(num_shards=2, transport=transport),
                          grid=grid, checkpoint_dir=tmp_path / "ckpt",
                          worker_pool=socket_pool if transport == "socket" else None)
        assert_same_bytes(res.matrix, ref)


def refuse_to_cut(monkeypatch):
    """Make cutting a panel fail the test: a refusal must come first."""
    def cut(*args, **kwargs):
        raise AssertionError("cut a panel of a malformed grid")
    monkeypatch.setattr(engine, "partition_rows", cut)
    monkeypatch.setattr(engine, "partition_columns", cut)


@pytest.mark.parametrize("rows,cols", MALFORMED, ids=str)
class TestMalformedBoundsAreRefused:
    def test_execute_chunk_grid(self, rows, cols, monkeypatch):
        refuse_to_cut(monkeypatch)
        grid = ChunkGrid(np.array(rows), np.array(cols))
        for kwargs in ({}, {"keep_outputs": True}, {"assemble": True},
                       {"backend": "process", "workers": 2}):
            with pytest.raises(ValueError, match="boundaries"):
                execute_chunk_grid(A, A, grid, **kwargs)

    def test_run_out_of_core(self, rows, cols, monkeypatch, tmp_path):
        refuse_to_cut(monkeypatch)
        grid = ChunkGrid(np.array(rows), np.array(cols))
        with pytest.raises(ValueError, match="boundaries"):
            run_out_of_core(A, A, grid=grid)
        store = DiskChunkStore(tmp_path / "chunks")
        try:
            with pytest.raises(ValueError, match="boundaries"):
                run_out_of_core(A, A, grid=grid, chunk_store=store,
                                keep_output=False)
            assert len(store) == 0
        finally:
            store.close()

    def test_run_sharded(self, rows, cols, monkeypatch):
        refuse_to_cut(monkeypatch)
        grid = ChunkGrid(np.array(rows), np.array(cols))
        for transport in ("local", "socket"):
            # refused before a shard is planned or a worker spawned
            with pytest.raises(ValueError, match="boundaries"):
                run_sharded(A, A, ShardConfig(num_shards=2, transport=transport),
                            grid=grid)

    def test_a_remote_worker(self, rows, cols, socket_pool):
        """A run frame's grid goes through the worker engine's check."""
        a_meta, a_arrays = csr_arrays(A, prefix="a_")
        b_meta, b_arrays = csr_arrays(A, prefix="b_")
        checkpoint = Checkpoint.open(A, A, ChunkGrid.regular(64, 64, 1, 1))
        with pytest.raises(RemoteShardError) as err:
            worker = socket_pool.worker_for(0)
            with worker.lock:
                run_remote_span(
                    worker, checkpoint=checkpoint, chaos={},
                    run_meta={"name": "malformed",
                              "grid": {"row_bounds": rows, "col_bounds": cols},
                              "config": encode_run_config(
                                  workers=1, window=None, backend=None,
                                  kernel=None, retry=None, crash_budget=0,
                                  governor=GovernorConfig()),
                              **a_meta, **b_meta},
                    run_arrays={**a_arrays, **b_arrays})
        assert err.value.exc_type == "ValueError"
        assert "boundaries" in str(err.value)
        assert not checkpoint.completed
