"""Chunks a run's sizing prices at zero products run no kernel.

A banded ``A x A`` on a grid of 2 x 5 has four corner chunks no product
reaches.  Given the grid's sizing, the engine completes them without a
count or fill kernel: every path (in place, strips into a disk store,
the chunk path), backend (serial, two threads) and kernel (native, esc)
must give the C of a run without a sizing, bit for bit, and the same
profile but for wall-clock fields.  The stage hooks still fire, so a
fault aimed at such a chunk is retried where it was before.
"""

import numpy as np
import pytest

import repro.core.executor.engine as engine
from repro.core.chunks import STAT_FIELDS, ChunkGrid, GridSizing
from repro.core.executor import execute_chunk_grid
from repro.core.executor.faults import RetryPolicy
from repro.core.spill import Checkpoint, DiskChunkStore
from repro.observability import Tracer
from repro.sparse.codec import csr_buffers
from repro.sparse.generators import banded
from repro.spgemm.native import native_available

KERNELS = [pytest.param("native", marks=pytest.mark.skipif(
    not native_available(), reason="native kernel not built")), "esc"]
BACKENDS = [dict(), dict(workers=2, backend="thread")]
#: the fields that vary run to run
WALL_CLOCK = {"measured_seconds", "analysis_seconds", "symbolic_seconds",
              "numeric_seconds"}


@pytest.fixture(scope="module")
def operand():
    a = banded(400, 5, seed=3, fill=0.8)
    grid = ChunkGrid.regular(a.n_rows, a.n_cols, 2, 5)
    sizing = GridSizing(a, a, grid)
    empty = np.flatnonzero(sizing.products.ravel() == 0).tolist()
    assert empty == [3, 4, 5, 6]           # the four corner chunks
    return a, grid, sizing, empty


@pytest.fixture
def symbolic_calls(monkeypatch):
    """How many chunks ran the count kernel."""
    calls = []
    real = engine.spgemm_symbolic

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(engine, "spgemm_symbolic", counting)
    return calls


def same_bytes(got, want) -> bool:
    return got.shape == want.shape and all(
        g.tobytes() == w.tobytes()
        for g, w in zip(csr_buffers(got), csr_buffers(want)))


def records(profile):
    return [{f: v for f, v in c.to_record().items() if f not in WALL_CLOCK}
            for c in profile.chunks]


def check_profiles(got, want, empty):
    assert records(got) == records(want)
    assert set(records(got)[0]) == set(STAT_FIELDS) - WALL_CLOCK
    for cid in empty:
        c = got.chunks[cid]
        assert (c.flops, c.nnz_out, c.symbolic_kernels, c.numeric_kernels) == (
            0, 0, 0, 0)


def run(a, grid, sizing, tmp_path=None, **kwargs):
    """C of one run and its profile; into a fresh disk store (a strip
    run) when given a directory."""
    if tmp_path is None:
        profile, out = execute_chunk_grid(a, a, grid, sizing=sizing, **kwargs)
        return profile, out
    store = DiskChunkStore(tmp_path / ("sized" if sizing else "plain"))
    try:
        profile, _ = execute_chunk_grid(a, a, grid, sizing=sizing,
                                        checkpoint=Checkpoint(store), **kwargs)
        assert [p.name for p in store.directory.iterdir()] == ["c.strips"]
        return profile, store.assemble().copy()
    finally:
        store.close()


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("backend", BACKENDS)
class TestEmptyChunksRunNoKernel:
    """Each against a serial run given no sizing, which runs every
    chunk's kernels (two threads order by flops, so an engine given no
    sizing builds one and skips the same chunks)."""

    def test_in_place(self, operand, symbolic_calls, kernel, backend):
        a, grid, sizing, empty = operand
        want_profile, want = run(a, grid, None, assemble=True, kernel=kernel)
        assert len(symbolic_calls) == grid.num_chunks
        profile, got = run(a, grid, sizing, assemble=True, kernel=kernel,
                           **backend)
        assert len(symbolic_calls) == 2 * grid.num_chunks - len(empty)
        assert same_bytes(got, want)
        check_profiles(profile, want_profile, empty)

    def test_strips_into_a_disk_store(self, operand, symbolic_calls, tmp_path,
                                      kernel, backend):
        a, grid, sizing, empty = operand
        want_profile, want = run(a, grid, None, tmp_path, kernel=kernel)
        profile, got = run(a, grid, sizing, tmp_path, kernel=kernel, **backend)
        assert len(symbolic_calls) == 2 * grid.num_chunks - len(empty)
        assert same_bytes(got, want)
        check_profiles(profile, want_profile, empty)

    def test_keep_outputs(self, operand, symbolic_calls, kernel, backend):
        a, grid, sizing, empty = operand
        want_profile, want = run(a, grid, None, keep_outputs=True,
                                 kernel=kernel)
        profile, got = run(a, grid, sizing, keep_outputs=True, kernel=kernel,
                           **backend)
        assert len(symbolic_calls) == 2 * grid.num_chunks - len(empty)
        for rp in range(grid.num_row_panels):
            for cp in range(grid.num_col_panels):
                assert same_bytes(got[rp][cp], want[rp][cp])
        check_profiles(profile, want_profile, empty)


class TestEmptyChunksKeepTheirHooks:
    @pytest.mark.parametrize("assemble", [True, False])
    def test_a_fault_aimed_at_an_empty_chunk_is_retried(self, operand,
                                                        assemble):
        a, grid, sizing, empty = operand
        _, want = execute_chunk_grid(a, a, grid, assemble=True)
        tracer = Tracer()
        profile, got = execute_chunk_grid(
            a, a, grid, sizing=sizing, assemble=assemble,
            keep_outputs=not assemble, tracer=tracer,
            faults=f"numeric:raise:chunk={empty[0]}",
            retry=RetryPolicy(max_attempts=2, base_delay=0.0))
        assert tracer.counters("faults")["retries"] == 1
        if assemble:
            assert same_bytes(got, want)
        assert profile.chunks[empty[0]].nnz_out == 0

    def test_every_stage_hook_fires_for_an_empty_chunk(self, operand,
                                                       monkeypatch):
        a, grid, sizing, empty = operand
        fired = []
        monkeypatch.setattr(engine.GridJob, "_stage_hook",
                            lambda self, cid: lambda stage: fired.append(
                                (cid, stage)))
        execute_chunk_grid(a, a, grid, sizing=sizing, assemble=True)
        assert [s for c, s in fired if c == empty[0]] == [
            "analysis", "symbolic", "numeric"]

    def test_the_trace_shows_no_kernel_for_an_empty_chunk(self, operand):
        a, grid, sizing, empty = operand
        tracer = Tracer()
        execute_chunk_grid(a, a, grid, sizing=sizing, assemble=True,
                           tracer=tracer)
        kernels = {s.name: s.args["kernels"]
                   for s in tracer.spans_by_cat("symbolic")}
        assert all(kernels[f"symbolic[{cid}]"] == 0 for cid in empty)
        assert kernels["symbolic[0]"] == 1
