"""Tests for the row accumulators: ESC (the pipeline's numpy kernel) and
the per-row hash tables of the Nagasaka baseline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse.formats import CSRMatrix
from repro.sparse.generators import random_csr
from repro.cpu.nagasaka import _hash_accumulate_rows as hash_accumulate_rows
from repro.cpu.nagasaka import _table_capacities
from repro.spgemm.accumulators import esc_accumulate_rows
from repro.spgemm.flops import products_per_row
from repro.spgemm.twophase import spgemm_twophase
from tests.reference import spgemm_gustavson


def reference_rows(a, b, rows):
    """Expected (counts, cols, vals) from the dense product."""
    dense = a.to_dense() @ b.to_dense()
    counts, cols, vals = [], [], []
    for r in rows:
        nz = np.nonzero(dense[r])[0]
        counts.append(len(nz))
        cols.extend(nz.tolist())
        vals.extend(dense[r, nz].tolist())
    return np.asarray(counts), np.asarray(cols), np.asarray(vals)


@pytest.fixture
def ab():
    a = random_csr(14, 10, 40, seed=11)
    b = random_csr(10, 12, 35, seed=12)
    return a, b


class TestHashAccumulator:
    def test_matches_dense_product(self, ab):
        a, b = ab
        rows = np.arange(a.n_rows)
        work = products_per_row(a, b)
        res = hash_accumulate_rows(a, b, rows, work)
        counts, cols, vals = reference_rows(a, b, rows)
        np.testing.assert_array_equal(res.counts, counts)
        np.testing.assert_array_equal(res.col_ids, cols)
        np.testing.assert_allclose(res.values, vals, atol=1e-12)

    def test_subset_of_rows(self, ab):
        a, b = ab
        rows = np.array([1, 5, 9])
        work = products_per_row(a, b)[rows]
        res = hash_accumulate_rows(a, b, rows, work)
        counts, cols, vals = reference_rows(a, b, rows)
        np.testing.assert_array_equal(res.counts, counts)
        np.testing.assert_allclose(res.values, vals, atol=1e-12)

    def test_columns_sorted_within_rows(self, ab):
        a, b = ab
        rows = np.arange(a.n_rows)
        res = hash_accumulate_rows(a, b, rows, products_per_row(a, b))
        offsets = res.offsets()
        for i in range(rows.size):
            seg = res.col_ids[offsets[i] : offsets[i + 1]]
            assert np.all(np.diff(seg) > 0)

    def test_symbolic_mode(self, ab):
        a, b = ab
        rows = np.arange(a.n_rows)
        res = hash_accumulate_rows(a, b, rows, products_per_row(a, b), with_values=False)
        assert res.values is None
        counts, _, _ = reference_rows(a, b, rows)
        np.testing.assert_array_equal(res.counts, counts)

    def test_empty_rows_selection(self, ab):
        a, b = ab
        res = hash_accumulate_rows(a, b, np.array([], dtype=np.int64), np.array([]))
        assert res.nnz == 0

    def test_rows_without_products(self):
        a = CSRMatrix.empty(4, 4)
        b = CSRMatrix.identity(4)
        res = hash_accumulate_rows(a, b, np.arange(4), np.zeros(4, dtype=np.int64))
        np.testing.assert_array_equal(res.counts, np.zeros(4))

    def test_heavy_duplicates(self):
        # all products collide on one output column
        a = CSRMatrix.from_dense(np.ones((1, 30)))
        b = CSRMatrix.from_dense(np.ones((30, 1)))
        res = hash_accumulate_rows(a, b, np.array([0]), np.array([30]))
        np.testing.assert_array_equal(res.counts, [1])
        assert res.values[0] == pytest.approx(30.0)

    def test_offsets(self, ab):
        a, b = ab
        rows = np.arange(a.n_rows)
        res = hash_accumulate_rows(a, b, rows, products_per_row(a, b))
        off = res.offsets()
        assert off[0] == 0 and off[-1] == res.nnz


class TestTableCapacities:
    def test_powers_of_two(self):
        caps = _table_capacities(np.array([1, 3, 9, 100]))
        assert np.all((caps & (caps - 1)) == 0)

    def test_at_least_double_work(self):
        work = np.array([5, 17, 33])
        assert np.all(_table_capacities(work) >= 2 * work)

    def test_minimum_size(self):
        assert np.all(_table_capacities(np.array([0, 1])) >= 16)


class TestEscAccumulator:
    def test_matches_dense_product(self, ab):
        a, b = ab
        rows = np.arange(a.n_rows)
        res = esc_accumulate_rows(a, b, rows)
        counts, cols, vals = reference_rows(a, b, rows)
        np.testing.assert_array_equal(res.counts, counts)
        np.testing.assert_array_equal(res.col_ids, cols)
        np.testing.assert_allclose(res.values, vals, atol=1e-12)

    def test_batching_invariant(self, ab):
        a, b = ab
        rows = np.arange(a.n_rows)
        full = esc_accumulate_rows(a, b, rows, batch_products=1 << 30)
        for budget in (1, 32):
            tiny = esc_accumulate_rows(a, b, rows, batch_products=budget)
            np.testing.assert_array_equal(full.counts, tiny.counts)
            np.testing.assert_array_equal(full.col_ids, tiny.col_ids)
            np.testing.assert_array_equal(full.values, tiny.values)  # bitwise

    def test_key_past_int64(self):
        """Rows x width beyond int64: the fused key would wrap negative,
        so the batch sorts on (row, column) and gives Gustavson's answer."""
        a = CSRMatrix(5, 2, np.arange(6), np.zeros(5, dtype=np.int64),
                      np.arange(1.0, 6.0))
        b = CSRMatrix(2, (1 << 62) + 1, np.array([0, 2, 2]), np.array([5, 9]),
                      np.array([2.0, 3.0]))
        got = spgemm_twophase(a, b, kernel="esc").matrix
        ref = spgemm_gustavson(a, b)
        np.testing.assert_array_equal(got.row_offsets, ref.row_offsets)
        np.testing.assert_array_equal(got.col_ids, ref.col_ids)
        np.testing.assert_array_equal(got.data, ref.data)

    def test_symbolic_mode(self, ab):
        a, b = ab
        rows = np.arange(a.n_rows)
        res = esc_accumulate_rows(a, b, rows, with_values=False)
        assert res.values is None
        counts, _, _ = reference_rows(a, b, rows)
        np.testing.assert_array_equal(res.counts, counts)

    def test_agrees_with_hash(self, ab):
        a, b = ab
        rows = np.arange(a.n_rows)
        esc = esc_accumulate_rows(a, b, rows)
        hashed = hash_accumulate_rows(a, b, rows, products_per_row(a, b))
        np.testing.assert_array_equal(esc.counts, hashed.counts)
        np.testing.assert_array_equal(esc.col_ids, hashed.col_ids)
        np.testing.assert_array_equal(esc.values, hashed.values)  # bitwise

    def test_zero_width_output(self):
        a = random_csr(4, 3, 6, seed=1)
        b = CSRMatrix.empty(3, 0)
        res = esc_accumulate_rows(a, b, np.arange(4))
        assert res.nnz == 0

    def test_empty_selection(self, ab):
        a, b = ab
        res = esc_accumulate_rows(a, b, np.array([], dtype=np.int64))
        assert res.nnz == 0


class TestProperties:
    @given(seed=st.integers(0, 400))
    @settings(max_examples=30, deadline=None)
    def test_hash_and_esc_always_agree(self, seed):
        a = random_csr(8, 9, 20, seed=seed)
        b = random_csr(9, 7, 18, seed=seed + 1000)
        rows = np.arange(a.n_rows)
        esc = esc_accumulate_rows(a, b, rows)
        hashed = hash_accumulate_rows(a, b, rows, products_per_row(a, b))
        np.testing.assert_array_equal(esc.counts, hashed.counts)
        np.testing.assert_array_equal(esc.col_ids, hashed.col_ids)
        np.testing.assert_array_equal(esc.values, hashed.values)


class TestFailureInjection:
    def test_undersized_tables_overflow(self):
        """Lying about the per-row work (smaller than the true distinct
        column count) must be detected, not silently corrupt the output."""
        a = CSRMatrix.from_dense(np.ones((1, 40)))
        b = CSRMatrix.from_dense(np.eye(40))  # row 0 of C has 40 distinct cols
        with pytest.raises(RuntimeError, match="overflow"):
            hash_accumulate_rows(a, b, np.array([0]), np.array([1]))


class TestHashBatching:
    """Tiling the product expansion must not change a single bit: row
    batches never split a row, and per-row hash tables are disjoint."""

    def test_numeric_bit_identical_across_batch_sizes(self, ab):
        a, b = ab
        rows = np.arange(a.n_rows)
        work = products_per_row(a, b)
        full = hash_accumulate_rows(a, b, rows, work, batch_products=1 << 30)
        tiny = hash_accumulate_rows(a, b, rows, work, batch_products=1)
        np.testing.assert_array_equal(full.counts, tiny.counts)
        np.testing.assert_array_equal(full.col_ids, tiny.col_ids)
        np.testing.assert_array_equal(full.values, tiny.values)  # bitwise

    def test_symbolic_bit_identical_across_batch_sizes(self, ab):
        a, b = ab
        rows = np.arange(a.n_rows)
        work = products_per_row(a, b)
        full = hash_accumulate_rows(
            a, b, rows, work, with_values=False, batch_products=1 << 30
        )
        tiny = hash_accumulate_rows(
            a, b, rows, work, with_values=False, batch_products=7
        )
        np.testing.assert_array_equal(full.counts, tiny.counts)
        np.testing.assert_array_equal(full.col_ids, tiny.col_ids)

    def test_empty_row_group_with_tiny_batches(self):
        a = CSRMatrix.empty(5, 5)
        b = CSRMatrix.identity(5)
        res = hash_accumulate_rows(
            a, b, np.arange(5), np.zeros(5, dtype=np.int64), batch_products=1
        )
        np.testing.assert_array_equal(res.counts, np.zeros(5))
        assert res.nnz == 0

    def test_overflow_raises_under_batching(self):
        a = CSRMatrix.from_dense(np.ones((1, 40)))
        b = CSRMatrix.from_dense(np.eye(40))
        with pytest.raises(RuntimeError, match="overflow"):
            hash_accumulate_rows(
                a, b, np.array([0]), np.array([1]), batch_products=8
            )


class TestTwoPhaseParallelIdentity:
    def test_serial_vs_workers4_symbolic_and_numeric(self):
        """End-to-end: the same chunked product, serial and threaded, must
        agree bitwise in both phases' outputs."""
        from repro.core.chunks import ChunkGrid
        from repro.core.executor import execute_chunk_grid
        from repro.sparse.generators import rmat

        a = rmat(9, 6.0, seed=21)
        grid = ChunkGrid.regular(a.n_rows, a.n_cols, 2, 3)
        serial_profile, serial_out = execute_chunk_grid(
            a, a, grid, workers=1, keep_outputs=True
        )
        par_profile, par_out = execute_chunk_grid(
            a, a, grid, workers=4, keep_outputs=True
        )
        for rp in range(2):
            for cp in range(3):
                s, p = serial_out[rp][cp], par_out[rp][cp]
                # symbolic phase decides the structure...
                np.testing.assert_array_equal(s.row_offsets, p.row_offsets)
                np.testing.assert_array_equal(s.col_ids, p.col_ids)
                # ...the numeric phase the values; both must be bitwise equal
                np.testing.assert_array_equal(s.data, p.data)
        for s, p in zip(serial_profile.chunks, par_profile.chunks):
            assert (s.symbolic_kernels, s.numeric_kernels) == (
                p.symbolic_kernels,
                p.numeric_kernels,
            )
