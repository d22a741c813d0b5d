"""Wall-clock micro-benchmarks of the real kernels (not the simulator).

These measure actual Python execution time of the SpGEMM implementations
and the panel partitioner — the substrate's own performance, on which the
whole harness runs.
"""

import pytest

from repro.cpu.nagasaka import spgemm_nagasaka
from repro.sparse.generators import rmat
from repro.sparse.partition import partition_columns
from repro.spgemm.twophase import spgemm_twophase
from tests.sparse.naive_partition import partition_columns_naive


@pytest.fixture(scope="module")
def matrix():
    return rmat(12, 8.0, seed=123)


def test_bench_twophase(benchmark, matrix):
    result = benchmark.pedantic(
        lambda: spgemm_twophase(matrix, matrix), rounds=3, iterations=1
    )
    assert result.matrix.nnz > 0


def test_bench_esc(benchmark, matrix):
    result = benchmark.pedantic(
        lambda: spgemm_twophase(matrix, matrix, kernel="esc"), rounds=3,
        iterations=1,
    )
    assert result.matrix.nnz > 0


def test_bench_nagasaka_multicore(benchmark, matrix):
    result = benchmark.pedantic(
        lambda: spgemm_nagasaka(matrix, matrix), rounds=3, iterations=1
    )
    assert result.nnz > 0


def test_bench_partition_coloffset(benchmark, matrix):
    """The Section III.D col_offset partitioner."""
    panels = benchmark.pedantic(
        lambda: partition_columns(matrix, 8), rounds=3, iterations=1
    )
    assert len(panels) == 8


def test_bench_partition_naive(benchmark, matrix):
    """The rescanning baseline the paper optimizes away."""
    panels = benchmark.pedantic(
        lambda: partition_columns_naive(matrix, 8), rounds=1, iterations=1
    )
    assert len(panels) == 8
