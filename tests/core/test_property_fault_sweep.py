"""Property-based equivalence sweep across backends, faults, and resume.

Every (workload shape) x (backend) x (execution mode) combination must
produce exactly ``A x B`` per the scipy oracle — including degenerate
shapes (empty rows, empty panels, all-zero, duplicate-entry COO inputs)
and adversarial modes (fault injection mid-run, resume from a partial
checkpoint) — or, for a fault that outlasts the retry policy
(``terminal``), raise its typed error holding no host-memory
reservation.  The in-place return form (``assemble=True``, DESIGN.md
"Output layout") runs the same cases and modes against the chunk path's
bytes.  All randomness derives from the session seed printed in the
pytest header, so any failure replays with ``REPRO_TEST_SEED``.
"""

import numpy as np
import pytest

from repro.core.api import run_out_of_core
from repro.core.assemble import assemble_chunks
from repro.core.chunks import ChunkGrid
from repro.core.executor import (
    ChunkExecutionError,
    InjectedFault,
    RetryPolicy,
    WorkerCrashed,
    execute_chunk_grid,
)
from repro.core.governor import Governor, GovernorConfig
from repro.core.spill import DiskChunkStore, RunManifest
from repro.observability import Tracer
from repro.sparse.coo import COOMatrix
from repro.sparse.formats import CSRMatrix
from repro.sparse.generators import banded
from tests.conftest import assert_equals_scipy_product, assert_same_bytes

BACKENDS = ("serial", "thread", "process")
MODES = ("plain", "faults", "resume", "terminal")

FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.001, max_delay=0.01)


def _random_dense(rng, n_rows, n_cols, density):
    dense = rng.random((n_rows, n_cols))
    dense[rng.random((n_rows, n_cols)) > density] = 0.0
    return dense


def make_case(name, rng):
    """One named degenerate workload: ``(A, B)`` operand pair."""
    if name == "dense_ish":
        return (CSRMatrix.from_dense(_random_dense(rng, 41, 37, 0.5)),
                CSRMatrix.from_dense(_random_dense(rng, 37, 44, 0.5)))
    if name == "very_sparse":
        return (CSRMatrix.from_dense(_random_dense(rng, 60, 60, 0.02)),
                CSRMatrix.from_dense(_random_dense(rng, 60, 60, 0.02)))
    if name == "empty_rows":
        d_a = _random_dense(rng, 48, 48, 0.2)
        d_a[rng.integers(0, 48, size=20)] = 0.0  # many all-zero rows
        d_b = _random_dense(rng, 48, 48, 0.2)
        d_b[:, rng.integers(0, 48, size=20)] = 0.0  # and all-zero columns
        return CSRMatrix.from_dense(d_a), CSRMatrix.from_dense(d_b)
    if name == "empty_panels":
        # nonzeros confined to the top-left quadrant: whole row/column
        # panels of the grid (and of the output) are structurally empty
        d = np.zeros((50, 50))
        d[:20, :20] = _random_dense(rng, 20, 20, 0.4)
        return CSRMatrix.from_dense(d), CSRMatrix.from_dense(d)
    if name == "duplicate_coo":
        # CSR built from a COO with repeated (row, col) triplets — the
        # duplicate-combining path must feed the pipeline a clean matrix
        n, triplets = 40, 600
        rows = rng.integers(0, n, size=triplets)
        cols = rng.integers(0, n, size=triplets)
        data = rng.random(triplets) - 0.5
        a = COOMatrix(n, n, rows, cols, data).to_csr()
        return a, a
    if name == "all_zero":
        return (CSRMatrix.from_dense(np.zeros((30, 35))),
                CSRMatrix.from_dense(np.zeros((35, 25))))
    raise AssertionError(name)


CASES = ("dense_ish", "very_sparse", "empty_rows", "empty_panels",
         "duplicate_coo", "all_zero")


def governed():
    """A governor whose host budget never binds: only the ledger's
    bookkeeping is under test."""
    return Governor(GovernorConfig(host_mem_budget_bytes=1 << 30))


def run_mode(a, b, grid, backend, mode, tmp_path):
    workers = 1 if backend == "serial" else 2
    common = dict(grid=grid, workers=workers, backend=backend)
    if mode == "plain":
        return run_out_of_core(a, b, **common)
    if mode == "terminal":
        # every attempt of every chunk fails: the run must end in its
        # typed error with the lane's reservations handed back
        gov = governed()
        with pytest.raises((InjectedFault, ChunkExecutionError)):
            run_out_of_core(a, b, retry=FAST_RETRY, governor=gov,
                            faults="numeric:raise:times=-1", **common)
        assert gov.hostmem._reserved == {}
        return None
    if mode == "faults":
        latch = tmp_path / "fault.latch"
        return run_out_of_core(
            a, b, retry=FAST_RETRY,
            faults=f"numeric:raise:latch={latch}", **common,
        )
    # resume: checkpoint a full run, truncate its manifest to half, and
    # resume from the partial state
    manifest_path = tmp_path / "m.json"
    store_dir = tmp_path / "chunks"
    run_out_of_core(a, b, keep_output=False,
                    chunk_store=DiskChunkStore(store_dir),
                    checkpoint=manifest_path, **common)
    full = RunManifest.load(manifest_path)
    keep = dict(sorted(full.completed_stats().items())[: full.num_chunks // 2])
    RunManifest(manifest_path, full._header, keep)._write()
    result = run_out_of_core(a, b, chunk_store=DiskChunkStore(store_dir),
                             resume=manifest_path, **common)
    assert result.resumed_chunks == len(keep)
    return result


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("case", CASES)
def test_equivalence_sweep(make_rng, tmp_path, case, mode, backend):
    rng = make_rng(f"sweep:{case}")
    a, b = make_case(case, rng)
    grid = ChunkGrid.regular(a.n_rows, b.n_cols, 3, 3)
    result = run_mode(a, b, grid, backend, mode, tmp_path)
    if mode != "terminal":
        assert_equals_scipy_product(result.matrix, a, b)


@pytest.mark.parametrize("backend", ("serial", "thread"))
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("case", CASES)
def test_in_place_sweep(make_rng, tmp_path, case, mode, backend):
    """The product filled in place is the chunk path's, byte for byte,
    whatever fails on the way; a fault that outlasts the retries raises
    its typed error and no matrix — partial or not — comes back."""
    a, b = make_case(case, make_rng(f"sweep:{case}"))
    grid = ChunkGrid.regular(a.n_rows, b.n_cols, 3, 3)
    chunk_profile, outputs = execute_chunk_grid(a, b, grid, keep_outputs=True)

    def in_place(**kwargs):
        return execute_chunk_grid(
            a, b, grid, assemble=True, backend=backend,
            workers=1 if backend == "serial" else 2, retry=FAST_RETRY, **kwargs)

    if mode == "terminal":
        # the sink hook fires in place too, though there is no sink
        for stage in ("numeric", "sink"):
            with pytest.raises(InjectedFault, match=f"stage={stage}"):
                in_place(faults=f"{stage}:raise:times=-1")
        return
    if mode == "resume":
        # the engine does not hold the chunks a resume skips
        with pytest.raises(ValueError, match="resume_stats"):
            in_place(resume_stats={0: chunk_profile.chunks[0]})
        return
    tracer = Tracer()
    faults = ""
    if mode == "faults":
        # one failure mid-fill, one at the sink hook: each retry re-fills
        # the same slots
        faults = (f"numeric:raise:latch={tmp_path / 'numeric.latch'};"
                  f"sink:raise:latch={tmp_path / 'sink.latch'}")
    profile, c = in_place(faults=faults, tracer=tracer)
    assert_same_bytes(c, assemble_chunks(outputs))
    assert profile == chunk_profile
    assert tracer.counters("faults").get("retries", 0) == (2 if faults else 0)
    # each stage still leaves one span per chunk — and the chunk whose
    # sink hook failed was filled a second time
    for stage in ("analysis", "symbolic", "numeric", "sink"):
        again = 1 if faults and stage == "numeric" else 0
        assert (sum(s.cat == stage for s in tracer.spans)
                == grid.num_chunks + again), stage


def test_worker_crash_beyond_budget_releases_reservations(make_rng):
    """``WorkerCrashed`` is the backend failing, not a chunk: it ends
    the lane unretried — and still with an empty ledger."""
    a, b = make_case("dense_ish", make_rng("sweep:crash"))
    grid = ChunkGrid.regular(a.n_rows, b.n_cols, 3, 3)
    gov = governed()
    with pytest.raises(WorkerCrashed):
        execute_chunk_grid(a, b, grid, workers=2, backend="process",
                           crash_budget=0, governor=gov, retry=FAST_RETRY,
                           faults="numeric:kill:chunk=4")
    assert gov.hostmem._reserved == {}


@pytest.mark.slow
@pytest.mark.parametrize("backend", ("serial", "process"))
def test_int32_adjacent_nnz(backend):
    """A matrix big enough that chunk flop counts and byte sizes leave
    comfortable int32 territory if ever mis-typed — the product must
    still be exact."""
    a = banded(70_000, 40, seed=13)
    grid = ChunkGrid.regular(a.n_rows, a.n_cols, 4, 4)
    workers = 1 if backend == "serial" else 2
    result = run_out_of_core(a, a, grid=grid, workers=workers, backend=backend)
    assert_equals_scipy_product(result.matrix, a, a)
    assert result.profile.total_flops > np.iinfo(np.int32).max // 8


@pytest.mark.soak
def test_soak_randomized_chaos_sweep(make_rng, tmp_path):
    """High-iteration randomized sweep (opt-in via ``-m soak``): random
    shapes, densities, grids, backends, and fault sites, all oracle-
    checked.  The per-iteration seed is printed on failure."""
    for i in range(40):
        rng = make_rng("soak", offset=i)
        n_rows = int(rng.integers(5, 80))
        inner = int(rng.integers(5, 80))
        n_cols = int(rng.integers(5, 80))
        density = float(rng.uniform(0.01, 0.5))
        a = CSRMatrix.from_dense(_random_dense(rng, n_rows, inner, density))
        b = CSRMatrix.from_dense(_random_dense(rng, inner, n_cols, density))
        grid = ChunkGrid.regular(
            n_rows, n_cols,
            int(rng.integers(1, min(4, n_rows) + 1)),
            int(rng.integers(1, min(4, n_cols) + 1)),
        )
        backend = BACKENDS[int(rng.integers(0, len(BACKENDS)))]
        stage = ("analysis", "symbolic", "numeric", "sink")[int(rng.integers(0, 4))]
        latch = tmp_path / f"latch.{i}"
        try:
            result = run_out_of_core(
                a, b, grid=grid, backend=backend,
                workers=1 if backend == "serial" else 2,
                retry=FAST_RETRY, faults=f"{stage}:raise:latch={latch}",
            )
            assert_equals_scipy_product(result.matrix, a, b)
        except AssertionError:
            raise AssertionError(
                f"soak iteration {i} failed: {n_rows}x{inner}x{n_cols} "
                f"density={density:.3f} grid={grid.num_row_panels}x"
                f"{grid.num_col_panels} backend={backend} stage={stage}"
            )
