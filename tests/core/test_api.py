"""Tests for the public API entry points."""

import pytest

from repro.core.api import (
    run_hybrid,
    run_out_of_core,
    simulate_cpu_baseline,
    simulate_hybrid,
    simulate_out_of_core,
    spgemm,
)
from repro.sparse.generators import rmat
from repro.sparse.ops import drop_explicit_zeros
from tests.reference import spgemm_scipy
from tests.conftest import assert_equals_scipy_product


@pytest.fixture(scope="module")
def matrix():
    return rmat(9, 6.0, seed=99)


class TestSpgemm:
    def test_in_core_product(self, matrix):
        assert_equals_scipy_product(spgemm(matrix, matrix), matrix, matrix)


class TestRunOutOfCore:
    def test_async_result_correct(self, matrix, node):
        res = run_out_of_core(matrix, matrix, node, name="t")
        assert_equals_scipy_product(res.matrix, matrix, matrix)
        assert res.mode == "async"
        assert res.name == "t"
        assert res.elapsed > 0
        assert res.gflops > 0

    def test_sync_mode(self, matrix, node):
        res = run_out_of_core(matrix, matrix, node, mode="sync", order="natural")
        assert_equals_scipy_product(res.matrix, matrix, matrix)
        assert res.mode == "sync"

    def test_keep_output_false(self, matrix, node):
        res = run_out_of_core(matrix, matrix, node, keep_output=False)
        assert res.matrix is None
        assert res.profile.total_flops > 0

    def test_explicit_grid(self, matrix, node):
        from repro.core.chunks import ChunkGrid

        grid = ChunkGrid.regular(matrix.n_rows, matrix.n_cols, 2, 2)
        res = run_out_of_core(matrix, matrix, node, grid=grid)
        assert len(res.profile.chunks) == 4
        assert_equals_scipy_product(res.matrix, matrix, matrix)

    def test_bad_mode(self, workload, node):
        _, _, profile, _ = workload
        with pytest.raises(ValueError, match="mode"):
            simulate_out_of_core(profile, node, mode="bogus")

    def test_bad_order(self, workload, node):
        _, _, profile, _ = workload
        with pytest.raises(ValueError, match="order"):
            simulate_out_of_core(profile, node, order="bogus")

    def test_explicit_order_sequence(self, workload, node):
        _, _, profile, _ = workload
        ids = list(reversed(profile.natural_order()))
        res = simulate_out_of_core(profile, node, order=ids)
        assert res.meta["order"] == "explicit"


class TestRunHybrid:
    def test_result_correct(self, matrix, node):
        res = run_hybrid(matrix, matrix, node)
        assert_equals_scipy_product(res.matrix, matrix, matrix)
        assert res.mode == "hybrid"
        assert 0 < res.meta["num_gpu_chunks"] <= len(res.profile.chunks)
        assert res.meta["gpu_flop_share"] >= 0.65

    def test_ratio_meta(self, workload, node):
        _, _, profile, _ = workload
        res = simulate_hybrid(profile, node, ratio=0.5)
        assert res.meta["ratio"] == 0.5


class TestSimulationConsistency:
    def test_async_faster_than_sync(self, workload, node):
        _, _, profile, _ = workload
        sync = simulate_out_of_core(profile, node, mode="sync", order="natural")
        asy = simulate_out_of_core(profile, node, mode="async")
        assert asy.elapsed < sync.elapsed
        assert asy.speedup_over(sync) > 1.0

    def test_hybrid_faster_than_gpu_only(self, workload, node):
        _, _, profile, _ = workload
        gpu = simulate_out_of_core(profile, node)
        hyb = simulate_hybrid(profile, node)
        assert hyb.elapsed < gpu.elapsed

    def test_gpu_faster_than_cpu(self, workload, node):
        _, _, profile, _ = workload
        gpu = simulate_out_of_core(profile, node)
        cpu = simulate_cpu_baseline(profile, node)
        assert gpu.elapsed < cpu.elapsed

    def test_simulations_deterministic(self, workload, node):
        _, _, profile, _ = workload
        a = simulate_out_of_core(profile, node)
        b = simulate_out_of_core(profile, node)
        assert a.elapsed == b.elapsed


class TestMakeProfile:
    def test_plans_when_no_grid(self, matrix, node):
        from repro.core.planner import plan_grid

        result = run_out_of_core(matrix, matrix, node)
        planned = plan_grid(matrix, matrix, node).grid
        assert result.profile.total_flops > 0
        assert result.profile.grid.row_bounds.tolist() == planned.row_bounds.tolist()
        assert result.profile.grid.col_bounds.tolist() == planned.col_bounds.tolist()
        assert result.matrix is not None

    def test_no_outputs_by_default(self, matrix, node):
        """``keep_output=False`` retains nothing, and a store handed to a
        governed run joins that governor's host-memory ledger."""
        from repro.core.governor import Governor, GovernorConfig
        from repro.core.spill import MemoryChunkStore

        store = MemoryChunkStore()
        gov = Governor(GovernorConfig(host_mem_budget_bytes=1 << 30))
        result = run_out_of_core(matrix, matrix, node, keep_output=False,
                                 chunk_store=store, governor=gov)
        assert result.matrix is None
        assert gov.hostmem.held_bytes() == store.nbytes() > 0


class TestParallelWorkers:
    def test_out_of_core_workers_bit_identical(self, matrix, node):
        import numpy as np

        serial = run_out_of_core(matrix, matrix, node, name="w")
        par = run_out_of_core(matrix, matrix, node, name="w", workers=4)
        np.testing.assert_array_equal(serial.matrix.row_offsets, par.matrix.row_offsets)
        np.testing.assert_array_equal(serial.matrix.col_ids, par.matrix.col_ids)
        np.testing.assert_array_equal(serial.matrix.data, par.matrix.data)
        assert par.meta["workers"] == 4
        assert par.measured_wall_seconds >= 0
        assert "workers=4" in par.summary()

    def test_hybrid_workers_bit_identical(self, matrix, node):
        import numpy as np

        serial = run_hybrid(matrix, matrix, node, name="h")
        par = run_hybrid(matrix, matrix, node, name="h", workers=3)
        np.testing.assert_array_equal(serial.matrix.row_offsets, par.matrix.row_offsets)
        np.testing.assert_array_equal(serial.matrix.col_ids, par.matrix.col_ids)
        np.testing.assert_array_equal(serial.matrix.data, par.matrix.data)
        assert par.meta["workers"] == 3
        assert_equals_scipy_product(par.matrix, matrix, matrix)

    def test_make_profile_records_measurements(self, matrix, node):
        profile = run_out_of_core(matrix, matrix, node, workers=2).profile
        assert profile.has_measured_times
        assert all(c.measured for c in profile.chunks)
