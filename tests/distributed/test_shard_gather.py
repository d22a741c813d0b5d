"""The socket gather: C is held once, each chunk placed on arrival.

A socket run that keeps its output and has no checkpoint directory
counts every chunk's rows on the node while the workers compute, seals
one :class:`~repro.core.assemble.OutputLayout`, and places each chunk
that arrives at its final address.  Under test: the node's heap holds C
about once (not chunks plus an assembled copy), the count pass is one
span on the node tracer, and a count pass that fails releases every
shard waiting on the seal with an error instead of hanging it.
"""

import sys
import threading
import tracemalloc

import pytest

from repro.core.assemble import OutputLayout, assemble_chunks
from repro.core.chunks import ChunkGrid
from repro.core.executor import execute_chunk_grid
from repro.core.spill import LayoutCheckpoint
from repro.distributed import (
    RemoteShardPool,
    ShardConfig,
    ShardedRunError,
    run_sharded,
)
from repro.sparse.generators import random_csr
from tests.conftest import assert_equals_scipy_product


@pytest.fixture(scope="module")
def operands():
    # ~20 nnz a row: C is ~15 x the operand, so its copies dominate
    a = random_csr(1500, 1500, 30_000, seed=61)
    return a, a, ChunkGrid.regular(1500, 1500, 4, 4)


@pytest.fixture(scope="module")
def pool():
    with RemoteShardPool.spawn(2, kind="unix") as pool:
        yield pool


def socket_config(**kw):
    return ShardConfig(transport="socket", backend="serial", **kw)


def test_node_heap_holds_c_about_once(operands, pool):
    a, b, grid = operands
    run_sharded(a, b, socket_config(num_shards=2), grid=grid,
                worker_pool=pool)  # warm: connections, kernel build
    tracemalloc.start()
    try:
        res = run_sharded(a, b, socket_config(num_shards=2), grid=grid,
                          worker_pool=pool)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert_equals_scipy_product(res.matrix, a, b)
    # chunks in a store plus their assembled copy would be 2 x C
    assert peak <= 1.5 * res.matrix.nbytes()


def test_count_pass_is_one_node_span(operands, pool):
    a, b, grid = operands
    res = run_sharded(a, b, socket_config(num_shards=2), grid=grid,
                      worker_pool=pool)
    spans = [s for s in res.tracers["node"].spans if s.cat == "layout"]
    assert [s.name for s in spans] == ["count-C"]
    assert spans[0].args == {"chunks": grid.num_chunks,
                             "bytes": res.matrix.nbytes()}
    assert spans[0].end >= spans[0].start


@pytest.mark.parametrize("num_shards", [1, 2])
def test_failed_count_pass_fails_every_waiting_shard(operands, pool,
                                                     monkeypatch, num_shards):
    import repro.distributed.shard as shard

    def broken(*args, **kwargs):
        raise MemoryError("node cannot count")

    monkeypatch.setattr(shard, "spgemm_symbolic", broken)
    a, b, grid = operands
    with pytest.raises(ShardedRunError) as exc_info:
        run_sharded(a, b, socket_config(num_shards=num_shards), grid=grid,
                    worker_pool=pool)
    err = exc_info.value
    assert sorted(err.failures) == list(range(num_shards))
    for exc in err.failures.values():
        assert "abandoned before it was sealed" in str(exc)
        assert isinstance(exc.__cause__, MemoryError)
    monkeypatch.undo()
    # the workers were not blamed: the pool runs the next product
    res = run_sharded(a, b, socket_config(num_shards=2), grid=grid,
                      worker_pool=pool)
    assert_equals_scipy_product(res.matrix, a, b)


@pytest.mark.parametrize("seal", [True, False])
def test_landings_before_the_seal_wait_for_it(seal):
    """More landing threads than cores, each holding its chunks before
    the layout is sealed, under a short switch interval: every landing
    waits, then the product equals the assembled chunks — or, with the
    layout abandoned, every landing raises instead of hanging."""
    a = random_csr(96, 80, 600, seed=62)
    b = random_csr(80, 70, 500, seed=63)
    grid = ChunkGrid.regular(96, 70, 8, 2)
    profile, outputs = execute_chunk_grid(a, b, grid, keep_outputs=True)
    layout = OutputLayout(grid.row_bounds, grid.col_bounds)
    errors = []

    def land_row_panel(rp):
        checkpoint = LayoutCheckpoint(layout)
        try:
            for cp in range(grid.num_col_panels):
                checkpoint.land(profile.chunks[grid.chunk_id(rp, cp)],
                                outputs[rp][cp])
        except RuntimeError as exc:
            errors.append(exc)

    threads = [threading.Thread(target=land_row_panel, args=(rp,))
               for rp in range(grid.num_row_panels)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        if seal:
            for rp, row in enumerate(outputs):
                for cp, chunk in enumerate(row):
                    layout.set_counts(rp, cp, chunk.row_nnz())
            layout.seal()
        else:
            layout.abandon(MemoryError("node cannot count"))
        for th in threads:
            th.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    if seal:
        assert not errors
        assert layout.matrix() == assemble_chunks(outputs)
    else:
        assert len(errors) == grid.num_row_panels
        assert all(isinstance(e.__cause__, MemoryError) for e in errors)


def test_one_shard_and_no_output(operands, pool):
    a, b, grid = operands
    one = run_sharded(a, b, socket_config(num_shards=1), grid=grid,
                      worker_pool=pool)
    assert_equals_scipy_product(one.matrix, a, b)
    none = run_sharded(a, b, socket_config(num_shards=2), grid=grid,
                       worker_pool=pool, keep_output=False)
    assert none.matrix is None
    assert not [s for s in none.tracers["node"].spans if s.cat == "layout"]
    assert none.profile.total_nnz_out == one.matrix.nnz
