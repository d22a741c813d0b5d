"""Tests for the simulated Sparse SUMMA comparison."""

import pytest

from repro.distributed.sharding.transfers import NetworkModel
from repro.distributed.summa import distribute_blocks, sparse_summa
from repro.sparse.formats import CSRMatrix
from repro.sparse.generators import random_csr, rmat
from repro.sparse.ops import hstack, vstack
from tests.conftest import assert_equals_scipy_product


class TestDistribute:
    def test_blocks_reassemble(self, sample_matrix):
        grid = distribute_blocks(sample_matrix, 3)
        strips = [hstack(list(row)) for row in grid.blocks]
        assert vstack(strips) == sample_matrix

    def test_single_process(self, sample_matrix):
        grid = distribute_blocks(sample_matrix, 1)
        assert grid.block(0, 0) == sample_matrix

    def test_bad_grid(self, sample_matrix):
        with pytest.raises(ValueError):
            distribute_blocks(sample_matrix, 0)


class TestCorrectness:
    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_product_exact(self, sample_matrix, q):
        result = sparse_summa(sample_matrix, sample_matrix, q)
        assert_equals_scipy_product(result.assemble(), sample_matrix, sample_matrix)

    def test_rectangular(self):
        a = random_csr(30, 20, 90, seed=31)
        b = random_csr(20, 25, 70, seed=32)
        result = sparse_summa(a, b, 2)
        assert_equals_scipy_product(result.assemble(), a, b)

    def test_empty(self):
        a = CSRMatrix.empty(9, 9)
        result = sparse_summa(a, a, 3)
        assert result.assemble().nnz == 0

    def test_dimension_mismatch(self):
        a = random_csr(4, 5, 8, seed=1)
        with pytest.raises(ValueError, match="mismatch"):
            sparse_summa(a, a, 2)

    def test_simulation_is_the_only_path(self):
        """``run_sharded`` is the one executed scale-out."""
        a = random_csr(4, 4, 8, seed=1)
        with pytest.raises(TypeError, match="execution"):
            sparse_summa(a, a, 2, execution=None)


class TestTiming:
    @pytest.fixture(scope="class")
    def matrix(self):
        return rmat(9, 6.0, seed=41)

    def test_more_processes_faster(self, matrix):
        t1 = sparse_summa(matrix, matrix, 1).elapsed
        t3 = sparse_summa(matrix, matrix, 3).elapsed
        assert t3 < t1

    def test_pipelining_helps(self, matrix):
        piped = sparse_summa(matrix, matrix, 3, pipelined=True)
        serial = sparse_summa(matrix, matrix, 3, pipelined=False)
        assert piped.elapsed <= serial.elapsed
        # pipelining overlaps a NIC with its CPU somewhere on the grid
        overlap = sum(
            piped.timeline.overlap_time(f"nic{i}.{j}", f"cpu{i}.{j}")
            for i in range(3) for j in range(3)
        )
        assert overlap > 0

    def test_stage_order_per_process(self, matrix):
        result = sparse_summa(matrix, matrix, 2)
        labels = [f"gemm[0.0@{k}]" for k in range(2)]
        assert result.timeline.order_of(labels) == labels

    def test_network_model_sensitivity(self, matrix):
        fast = sparse_summa(matrix, matrix, 2,
                            network=NetworkModel(bandwidth=100e9))
        slow = sparse_summa(matrix, matrix, 2,
                            network=NetworkModel(bandwidth=1e9))
        assert fast.elapsed < slow.elapsed

    def test_gflops_positive(self, matrix):
        result = sparse_summa(matrix, matrix, 2)
        assert result.gflops > 0
        assert result.total_flops > 0


class TestNetworkModel:
    def test_broadcast_zero_fanout(self):
        assert NetworkModel().t_broadcast(1000, 0) == 0.0

    def test_broadcast_grows_with_fanout(self):
        net = NetworkModel()
        assert net.t_broadcast(1 << 20, 7) > net.t_broadcast(1 << 20, 1)

    def test_compute(self):
        net = NetworkModel(compute_rate=1e9)
        assert net.t_compute(10**9) == pytest.approx(1.0)
