"""Property-based equivalence sweep across backends, faults, and resume.

Every (workload shape) x (backend) x (execution mode) combination must
produce exactly ``A x B`` per the scipy oracle — including degenerate
shapes (empty rows, empty panels, all-zero, duplicate-entry COO inputs)
and adversarial modes (fault injection mid-run, resume from a partial
checkpoint) — or, for a fault that outlasts the retry policy
(``terminal``), raise its typed error holding no host-memory
reservation.  The in-place return form (``assemble=True``, DESIGN.md
"Output layout") runs the same cases and modes against the chunk path's
bytes.  The checkpoint protocol (docs/FAULT_TOLERANCE.md, "Checkpoint
and resume") is checked once for every way a chunk can arrive — the
three backends and ``run_sharded`` over both transports (``WAYS``).  All
randomness derives from the session seed printed in the pytest header,
so any failure replays with ``REPRO_TEST_SEED``.
"""

import collections

import numpy as np
import pytest

from repro.core.api import run_out_of_core
from repro.core.assemble import assemble_chunks
from repro.core.chunks import ChunkGrid, chunk_flops
from repro.core.executor import (
    ChunkExecutionError,
    InjectedFault,
    RetryPolicy,
    WorkerCrashed,
    execute_chunk_grid,
    flops_desc_order,
)
from repro.core.governor import Governor, GovernorConfig
from repro.core.spill import Checkpoint, DiskChunkStore, RunManifest
from repro.distributed import (
    RemoteShardPool,
    ShardConfig,
    ShardedRunError,
    run_sharded,
)
from repro.observability import Tracer
from repro.sparse.coo import COOMatrix
from repro.sparse.formats import CSRMatrix
from repro.sparse.generators import banded
from tests.conftest import assert_equals_scipy_product, assert_same_bytes

BACKENDS = ("serial", "thread", "process")
MODES = ("plain", "faults", "resume", "terminal")
#: every way a finished chunk reaches a checkpoint
WAYS = BACKENDS + ("shard-local", "shard-socket")

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
    kept = halve_manifest(manifest_path)
    result = run_out_of_core(a, b, chunk_store=DiskChunkStore(store_dir),
                             resume=manifest_path, **common)
    assert result.resumed_chunks == kept
    return result


def halve_manifest(path):
    """Truncate a complete manifest to its first half (a manifest is
    always a consistent prefix of its run, so this is an interrupt);
    returns how many chunks it still records."""
    full = RunManifest.load(path)
    assert full.is_complete
    keep = dict(sorted(full.completed_stats().items())[: full.num_chunks // 2])
    crcs = {cid: full.chunk_crc(cid) for cid in keep}
    RunManifest(path, full._header, keep, crcs)._write()
    return len(keep)


@pytest.fixture(scope="module")
def socket_pool():
    with RemoteShardPool.spawn(2, kind="unix") as pool:
        yield pool


def run_way(a, b, grid, way, ckpt, *, resume=False, keep_output=True,
            pool=None, faults=None):
    """``C = A x B`` checkpointed under ``ckpt`` by one of :data:`WAYS`;
    returns ``(C, resumed_chunks, chunks computed here or None)``."""
    if way in BACKENDS:
        tracer = Tracer()
        path = ckpt / "run.manifest.json"  # laid out as a shard's is
        result = run_out_of_core(
            a, b, grid=grid, backend=way, workers=1 if way == "serial" else 2,
            keep_output=keep_output,
            chunk_store=DiskChunkStore(ckpt / "run.chunks"),
            tracer=tracer, faults=faults,
            **({"resume": path} if resume else {"checkpoint": path}))
        return (result.matrix, result.resumed_chunks,
                sum(s.cat == "numeric" for s in tracer.spans))
    socket = way == "shard-socket"
    result = run_sharded(
        a, b, ShardConfig(num_shards=2, backend="serial",
                          transport="socket" if socket else "local"),
        grid=grid, checkpoint_dir=ckpt, resume=resume,
        keep_output=keep_output, worker_pool=pool if socket else None,
        shard_faults={t: faults for t in range(2)} if faults else None)
    computed = None if socket else sum(  # a socket span computes remotely
        s.cat == "numeric" for t in result.tracers.values() for s in t.spans)
    return result.matrix, result.resumed_chunks, computed


def manifests_of(ckpt):
    """``[(manifest path, its store's directory)]`` under ``ckpt``."""
    return [(p, p.with_name(p.name.replace("manifest.json", "chunks")))
            for p in sorted(ckpt.glob("*.manifest.json"))]


@pytest.mark.parametrize("way", WAYS)
def test_resume_protocol(make_rng, tmp_path, monkeypatch, socket_pool, way):
    """Resume from a half-complete checkpoint, whatever way the chunks
    arrive: the uninterrupted run's bytes, and each missing chunk is
    computed, stored, CRC'd and marked exactly once — each kept one read
    and CRC'd once, by the gate."""
    a, b = make_case("dense_ish", make_rng("sweep:protocol"))
    grid = ChunkGrid.regular(a.n_rows, b.n_cols, 4, 2)
    ckpt = tmp_path / "ckpt"
    ckpt.mkdir()
    want, _, _ = run_way(a, b, grid, way, ckpt, pool=socket_pool)
    kept = sum(halve_manifest(path) for path, _ in manifests_of(ckpt))
    assert 0 < kept < grid.num_chunks

    calls = collections.Counter()

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counted(DiskChunkStore, "put")
    counted(DiskChunkStore, "get")
    counted(RunManifest, "mark_done")
    import repro.core.spill
    import repro.distributed.transport.pool
    counted(repro.core.spill, "crc32_matrix")
    # a received chunk's CRC, derived from its frame's one pass
    counted(repro.distributed.transport.pool, "_chunk_crc")

    got, resumed, computed = run_way(a, b, grid, way, ckpt, resume=True,
                                     keep_output=False, pool=socket_pool)
    todo = grid.num_chunks - kept
    assert resumed == kept
    assert calls["put"] == calls["mark_done"] == todo
    assert computed in (todo, None)
    assert calls["get"] == kept                   # the gate's one read each
    # nothing CRC'd twice
    assert calls["crc32_matrix"] + calls["_chunk_crc"] == grid.num_chunks
    monkeypatch.undo()
    for path, _ in manifests_of(ckpt):
        assert RunManifest.load(path).is_complete
    # ... and the chunks a resume skips splice back into the same bytes
    got, resumed, _ = run_way(a, b, grid, way, ckpt, resume=True,
                              pool=socket_pool)
    assert resumed == grid.num_chunks
    assert_same_bytes(got, want)


@pytest.mark.parametrize("way", WAYS)
def test_manifest_never_ahead_of_store(make_rng, tmp_path, socket_pool, way):
    """A sink-stage failure mid-run: whatever the manifest records by
    then is durably in the store, and intact."""
    a, b = make_case("dense_ish", make_rng("sweep:protocol"))
    grid = ChunkGrid.regular(a.n_rows, b.n_cols, 4, 2)
    ckpt = tmp_path / "ckpt"
    ckpt.mkdir()
    # the victim lands after others have: last in the way's dispatch
    # order (a shard's local chunk 1 exists in every shard, after its 0)
    victim = {"serial": grid.num_chunks - 1, "shard-local": 1,
              "shard-socket": 1}.get(
                  way, flops_desc_order(chunk_flops(a, b, grid))[-1])
    with pytest.raises((InjectedFault, ShardedRunError)):
        run_way(a, b, grid, way, ckpt, pool=socket_pool,
                faults=f"sink:raise:chunk={victim}:times=-1")
    recorded = 0
    for path, store_dir in manifests_of(ckpt):
        manifest = RunManifest.load(path)
        verified, dropped = manifest.verified_stats(DiskChunkStore(store_dir))
        assert dropped == 0 and len(verified) == manifest.completed_count
        recorded += len(verified)
    assert 0 < recorded < grid.num_chunks


def test_resume_and_checkpoint_are_exclusive(make_rng, tmp_path):
    a, b = make_case("very_sparse", make_rng("sweep:protocol"))
    with pytest.raises(ValueError, match="not both"):
        run_out_of_core(a, b, checkpoint=tmp_path / "new.json",
                        resume=tmp_path / "old.json")


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


def half_checkpoint(a, b, grid, tmp_path):
    """A checkpoint of ``A x B`` interrupted half way, reopened."""
    store_dir, path = tmp_path / "half.chunks", tmp_path / "half.json"
    execute_chunk_grid(a, b, grid, checkpoint=Checkpoint.open(
        a, b, grid, store=DiskChunkStore(store_dir), path=path))
    kept = halve_manifest(path)
    checkpoint = Checkpoint.open(a, b, grid, store=DiskChunkStore(store_dir),
                                 path=path, resume=True)
    assert checkpoint.resumed == len(checkpoint.completed) == kept
    return checkpoint


@pytest.mark.parametrize("case,mode,backend", [
    (case, mode, backend) for case in CASES for mode in MODES
    for backend in ("serial", "thread")
] + [("dense_ish", "resume", "process")])
def test_in_place_sweep(make_rng, tmp_path, case, mode, backend):
    """The product filled in place is the chunk path's, byte for byte,
    whatever fails on the way; a fault that outlasts the retries raises
    its typed error and no matrix — partial or not — comes back.  Asked
    of a half-complete checkpoint, the product is assembled from its
    chunks and the rest — the same bytes again."""
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
        profile, c = in_place(checkpoint=half_checkpoint(a, b, grid, tmp_path))
        assert_same_bytes(c, assemble_chunks(outputs))
        assert profile == chunk_profile
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
