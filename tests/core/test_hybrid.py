"""Tests for the hybrid CPU-GPU assignment (Algorithm 4)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.api import run_hybrid
from repro.core.chunks import ChunkGrid, ChunkProfile, ChunkStats
from repro.core.executor import plan_hybrid_lanes
from repro.core.hybrid import (
    DEFAULT_RATIO,
    assign_chunks,
    assign_first_n,
    best_gpu_chunk_count,
    build_hybrid_engine,
)
from repro.core.schedule import CPU, D2H, GPU
from repro.sparse.formats import CSRMatrix
from repro.sparse.generators import banded


class TestAssignChunks:
    def test_partition_is_complete(self, workload):
        _, _, profile, _ = workload
        asn = assign_chunks(profile, 0.65)
        all_ids = sorted(asn.gpu_chunks + asn.cpu_chunks)
        assert all_ids == profile.natural_order()

    def test_prefix_reaches_ratio(self, workload):
        _, _, profile, _ = workload
        asn = assign_chunks(profile, 0.65)
        assert asn.gpu_flop_share >= 0.65

    def test_smallest_such_prefix(self, workload):
        """Algorithm 4: num_gpu is the FIRST prefix crossing the ratio."""
        _, _, profile, _ = workload
        asn = assign_chunks(profile, 0.65)
        without_last = sum(
            profile.chunks[c].flops for c in asn.gpu_chunks[:-1]
        )
        assert without_last / profile.total_flops < 0.65

    def test_reorder_true_takes_densest(self, workload):
        _, _, profile, _ = workload
        asn = assign_chunks(profile, 0.65, reorder=True)
        gpu_min = min(profile.chunks[c].flops for c in asn.gpu_chunks)
        cpu_max = max(profile.chunks[c].flops for c in asn.cpu_chunks)
        assert gpu_min >= cpu_max

    def test_reorder_false_natural_prefix(self, workload):
        _, _, profile, _ = workload
        asn = assign_chunks(profile, 0.65, reorder=False)
        assert list(asn.gpu_chunks) == list(range(asn.num_gpu))

    def test_ratio_zero(self, workload):
        _, _, profile, _ = workload
        asn = assign_chunks(profile, 0.0)
        assert asn.num_gpu == 0
        assert len(asn.cpu_chunks) == len(profile.chunks)

    def test_ratio_one(self, workload):
        _, _, profile, _ = workload
        asn = assign_chunks(profile, 1.0)
        assert len(asn.cpu_chunks) == 0

    def test_invalid_ratio(self, workload):
        _, _, profile, _ = workload
        with pytest.raises(ValueError):
            assign_chunks(profile, 1.5)

    def test_default_ratio_is_65(self):
        assert DEFAULT_RATIO == 0.65


class TestSimulatedSplitIsTheExecutedSplit:
    """Algorithm 4's split exists once: what the DES simulates
    (``assign_chunks``) is what the lanes execute (``plan_hybrid_lanes``)."""

    @given(
        flops=st.lists(st.sampled_from([0, 0, 2, 2, 6, 10, 40, 1000]),
                       min_size=1, max_size=9),
        ratio=st.sampled_from([0.0, 0.3, 0.65, 1.0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_gpu_chunks_equal_the_gpu_lane(self, flops, ratio):
        grid = ChunkGrid(np.arange(len(flops) + 1), np.array([0, 1]))
        profile = ChunkProfile(grid, tuple(
            ChunkStats(chunk_id=i, row_panel=i, col_panel=0, rows=1, width=1,
                       flops=f, a_panel_bytes=0, b_panel_bytes=0, input_nnz=0)
            for i, f in enumerate(flops)))
        lanes = {name: ids for ids, _, name in
                 plan_hybrid_lanes(np.array(flops), 2, ratio)}
        asn = assign_chunks(profile, ratio)
        assert list(asn.gpu_chunks) == lanes.get("gpu", [])
        assert list(asn.cpu_chunks) == lanes.get("cpu", [])

    def test_all_zero_flops_run_reports_no_gpu_chunks(self):
        """No chunk is flop-dense, so none is a "GPU" chunk — in the
        lanes and in the reported assignment alike."""
        a = banded(64, 2, seed=0)
        empty = CSRMatrix(64, 64, np.zeros(65, dtype=np.int64),
                          np.zeros(0, dtype=np.int64), np.zeros(0))
        result = run_hybrid(a, empty, grid=ChunkGrid.regular(64, 64, 2, 2),
                            workers=2)
        assert result.meta["num_gpu_chunks"] == 0
        assert result.matrix.nnz == 0


class TestAssignFirstN:
    def test_explicit_count(self, workload):
        _, _, profile, _ = workload
        asn = assign_first_n(profile, 3)
        assert asn.num_gpu == 3
        assert asn.gpu_chunks == tuple(profile.order_by_flops_desc()[:3])

    def test_bounds(self, workload):
        _, _, profile, _ = workload
        with pytest.raises(ValueError):
            assign_first_n(profile, -1)
        with pytest.raises(ValueError):
            assign_first_n(profile, len(profile.chunks) + 1)

    def test_ratio_field_reflects_share(self, workload):
        _, _, profile, _ = workload
        asn = assign_first_n(profile, len(profile.chunks))
        assert asn.ratio == pytest.approx(1.0)


class TestHybridEngine:
    def test_both_devices_busy(self, workload, cost):
        _, _, profile, _ = workload
        asn = assign_chunks(profile, 0.65)
        tl = build_hybrid_engine(profile, cost, asn).run()
        assert tl.busy_time(GPU) > 0
        assert tl.busy_time(CPU) > 0

    def test_cpu_and_gpu_overlap(self, workload, cost):
        _, _, profile, _ = workload
        asn = assign_chunks(profile, 0.65)
        tl = build_hybrid_engine(profile, cost, asn).run()
        assert tl.overlap_time(CPU, D2H) > 0

    def test_all_cpu_assignment(self, workload, cost):
        _, _, profile, _ = workload
        asn = assign_chunks(profile, 0.0)
        tl = build_hybrid_engine(profile, cost, asn).run()
        assert tl.busy_time(GPU) == 0
        assert len(tl.ops_on(CPU)) == len(profile.chunks)

    def test_hybrid_beats_both_single_device(self, workload, cost):
        _, _, profile, _ = workload
        gpu_only = build_hybrid_engine(profile, cost, assign_chunks(profile, 1.0)).run()
        cpu_only = build_hybrid_engine(profile, cost, assign_chunks(profile, 0.0)).run()
        hybrid = build_hybrid_engine(profile, cost, assign_chunks(profile, 0.65)).run()
        assert hybrid.makespan() < gpu_only.makespan()
        assert hybrid.makespan() < cpu_only.makespan()


class TestBestCount:
    def test_search_covers_all_counts(self, workload, cost):
        _, _, profile, _ = workload
        best, times = best_gpu_chunk_count(profile, cost)
        assert len(times) == len(profile.chunks) + 1
        assert 0 <= best <= len(profile.chunks)

    def test_best_is_argmin(self, workload, cost):
        _, _, profile, _ = workload
        best, times = best_gpu_chunk_count(profile, cost)
        assert times[best] == min(times)

    def test_endpoints_match_single_device(self, workload, cost):
        _, _, profile, _ = workload
        _, times = best_gpu_chunk_count(profile, cost)
        cpu_only = build_hybrid_engine(profile, cost, assign_first_n(profile, 0)).run()
        gpu_only = build_hybrid_engine(
            profile, cost, assign_first_n(profile, len(profile.chunks))
        ).run()
        assert times[0] == pytest.approx(cpu_only.makespan())
        assert times[-1] == pytest.approx(gpu_only.makespan())
