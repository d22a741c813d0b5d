"""Tests for the chunk grid and profiling."""

import numpy as np
import pytest

from repro.core.chunks import ChunkGrid, ChunkProfile, chunk_flops, csr_bytes
from repro.sparse.generators import random_csr
from repro.spgemm.flops import total_flops
from tests.reference import spgemm_scipy


class TestGrid:
    def test_regular_grid(self):
        g = ChunkGrid.regular(10, 12, 2, 3)
        np.testing.assert_array_equal(g.row_bounds, [0, 5, 10])
        np.testing.assert_array_equal(g.col_bounds, [0, 4, 8, 12])
        assert g.num_chunks == 6

    def test_chunk_id_row_major(self):
        g = ChunkGrid.regular(10, 10, 2, 3)
        assert g.chunk_id(1, 2) == 5
        assert g.panel_of(5) == (1, 2)

    def test_roundtrip_ids(self):
        g = ChunkGrid.regular(20, 20, 4, 5)
        for cid in range(g.num_chunks):
            rp, cp = g.panel_of(cid)
            assert g.chunk_id(rp, cp) == cid


class TestChunkFlops:
    def test_sums_to_total(self, workload):
        a, grid, profile, _ = workload
        f = chunk_flops(a, a, grid)
        assert f.sum() == total_flops(a, a)

    def test_matches_profile(self, workload):
        a, grid, profile, _ = workload
        f = chunk_flops(a, a, grid)
        for ch in profile.chunks:
            assert f[ch.row_panel, ch.col_panel] == ch.flops

    def test_single_chunk_grid(self):
        a = random_csr(10, 10, 30, seed=81)
        g = ChunkGrid.regular(10, 10, 1, 1)
        assert chunk_flops(a, a, g)[0, 0] == total_flops(a, a)


class TestProfile:
    def test_chunk_nnz_sums_to_product_nnz(self, workload):
        a, _, profile, _ = workload
        assert profile.total_nnz_out == spgemm_scipy(a, a).nnz

    def test_total_flops(self, workload):
        a, _, profile, _ = workload
        assert profile.total_flops == total_flops(a, a)

    def test_chunk_stats_filled(self, workload):
        _, _, profile, _ = workload
        for ch in profile.chunks:
            assert ch.executed
            assert ch.output_bytes >= 0
            assert ch.analysis_bytes == ch.rows * 8

    def test_outputs_grid_shape(self, workload):
        _, grid, _, outputs = workload
        assert len(outputs) == grid.num_row_panels
        assert all(len(row) == grid.num_col_panels for row in outputs)

    def test_compression_ratio(self, workload):
        _, _, profile, _ = workload
        assert profile.compression_ratio() == pytest.approx(
            profile.total_flops / profile.total_nnz_out
        )

    def test_orders(self, workload):
        _, _, profile, _ = workload
        desc = profile.order_by_flops_desc()
        flops = [profile.chunks[i].flops for i in desc]
        assert flops == sorted(flops, reverse=True)
        assert sorted(desc) == profile.natural_order()

    def test_cr_requires_execution(self):
        from repro.core.chunks import ChunkStats

        ch = ChunkStats(
            chunk_id=0, row_panel=0, col_panel=0, rows=5, width=5, flops=10,
            a_panel_bytes=0, b_panel_bytes=0, input_nnz=0,
        )
        assert not ch.executed
        with pytest.raises(ValueError):
            _ = ch.cr

    def test_serialization_roundtrip(self, workload):
        _, _, profile, _ = workload
        back = ChunkProfile.from_dict(profile.to_dict())
        assert back.name == profile.name
        np.testing.assert_array_equal(back.grid.row_bounds, profile.grid.row_bounds)
        assert back.chunks == profile.chunks

    def test_json_compatible(self, workload):
        import json

        _, _, profile, _ = workload
        payload = json.loads(json.dumps(profile.to_dict()))
        assert ChunkProfile.from_dict(payload).chunks == profile.chunks


class TestCsrBytes:
    def test_formula(self):
        assert csr_bytes(10, 100) == 11 * 8 + 100 * 16
