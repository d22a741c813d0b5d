"""Tests for the parallel chunk execution engine.

The load-bearing property is bit-identity: any worker count, window
size, or lane split must reproduce the serial result exactly — chunks
touch disjoint output regions and every kernel is deterministic.
"""

import threading
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.chunks import ChunkGrid, chunk_flops
from repro.core.executor import (
    default_window,
    execute_chunk_grid,
    flops_desc_order,
    plan_hybrid_lanes,
    split_by_flop_ratio,
    split_workers,
)
from repro.core.spill import Checkpoint
from repro.sparse.generators import rmat


def assert_outputs_identical(lhs, rhs):
    """Every chunk matrix bitwise-equal between two output grids."""
    for row_l, row_r in zip(lhs, rhs):
        for m_l, m_r in zip(row_l, row_r):
            np.testing.assert_array_equal(m_l.row_offsets, m_r.row_offsets)
            np.testing.assert_array_equal(m_l.col_ids, m_r.col_ids)
            np.testing.assert_array_equal(m_l.data, m_r.data)


@pytest.fixture(scope="module")
def problem():
    a = rmat(10, 8.0, seed=5)
    grid = ChunkGrid.regular(a.n_rows, a.n_cols, 3, 3)
    return a, grid


@pytest.fixture(scope="module")
def serial(problem):
    a, grid = problem
    return execute_chunk_grid(a, a, grid, workers=1, keep_outputs=True)


class TestDispatchHelpers:
    def test_default_window_two_buffers_per_worker(self):
        assert default_window(1) == 2
        assert default_window(4) == 8
        assert default_window(0) == 2

    def test_flops_desc_order_stable(self):
        order = flops_desc_order(np.array([3, 9, 9, 1]))
        assert order == [1, 2, 0, 3]  # ties broken by chunk id

    def test_split_by_flop_ratio_prefix(self):
        gpu, cpu = split_by_flop_ratio(np.array([10, 40, 30, 20]), 0.65)
        assert gpu == [1, 2]  # 70 of 100 flops, densest first
        assert cpu == [3, 0]

    def test_split_extremes(self):
        flops = np.array([5, 5])
        assert split_by_flop_ratio(flops, 0.0) == ([], [0, 1])
        assert split_by_flop_ratio(flops, 1.0) == ([0, 1], [])
        with pytest.raises(ValueError):
            split_by_flop_ratio(flops, 1.5)

    def test_split_zero_total_flops(self):
        """Empty work goes entirely to the CPU lane — no spurious split."""
        for ratio in (0.1, 0.65, 1.0):
            gpu, cpu = split_by_flop_ratio(np.zeros(3, dtype=np.int64), ratio)
            assert gpu == []
            assert sorted(cpu) == [0, 1, 2]

    def test_split_workers_both_lanes_nonempty(self):
        first, second = split_workers(4, 0.65, both_nonempty=True)
        assert first + second == 4
        assert first >= 1 and second >= 1

    def test_split_workers_single_lane_keeps_pool(self):
        assert split_workers(4, 0.65, both_nonempty=False) == (4, 4)
        with pytest.raises(ValueError):
            split_workers(0, 0.5, both_nonempty=True)

    def test_split_workers_single_worker_does_not_oversubscribe(self):
        """One worker cannot serve two concurrent lanes: the second lane
        gets no share and the caller must serialize."""
        assert split_workers(1, 0.65, both_nonempty=True) == (1, 0)
        assert split_workers(1, 0.65, both_nonempty=False) == (1, 1)

    def test_plan_hybrid_lanes_serializes_single_worker(self):
        flops = np.array([10, 40, 30, 20])
        lanes = plan_hybrid_lanes(flops, 1, 0.65)
        assert len(lanes) == 1
        ids, workers, name = lanes[0]
        assert sorted(ids) == [0, 1, 2, 3]
        assert ids[:2] == [1, 2]  # gpu (flop-dense) prefix drains first
        assert workers == 1
        assert name == "gpu+cpu"

    def test_plan_hybrid_lanes_splits_pool(self):
        flops = np.array([10, 40, 30, 20])
        lanes = plan_hybrid_lanes(flops, 4, 0.65)
        assert [name for _, _, name in lanes] == ["gpu", "cpu"]
        assert sum(w for _, w, _ in lanes) == 4
        assert all(w >= 1 for _, w, _ in lanes)

    def test_plan_hybrid_lanes_zero_flops_single_lane(self):
        lanes = plan_hybrid_lanes(np.zeros(4, dtype=np.int64), 4, 0.65)
        assert len(lanes) == 1
        ids, workers, name = lanes[0]
        assert sorted(ids) == [0, 1, 2, 3]
        assert workers == 4  # sole lane gets the whole pool
        assert name == "cpu"


class TestBitIdentity:
    def test_workers4_matches_serial(self, problem, serial):
        a, grid = problem
        _, serial_out = serial
        _, par_out = execute_chunk_grid(a, a, grid, workers=4, keep_outputs=True)
        assert_outputs_identical(serial_out, par_out)

    def test_tiny_window_matches_serial(self, problem, serial):
        a, grid = problem
        _, serial_out = serial
        _, par_out = execute_chunk_grid(
            a, a, grid, workers=3, window=1, keep_outputs=True
        )
        assert_outputs_identical(serial_out, par_out)

    def test_hybrid_lanes_match_serial(self, problem, serial):
        a, grid = problem
        _, serial_out = serial
        gpu, cpu = split_by_flop_ratio(chunk_flops(a, a, grid), 0.65)
        _, par_out = execute_chunk_grid(
            a, a, grid, keep_outputs=True, lanes=[(gpu, 3), (cpu, 1)]
        )
        assert_outputs_identical(serial_out, par_out)

    def test_profile_stats_deterministic(self, problem, serial):
        """Everything but the wall-clock fields is completion-order free."""
        a, grid = problem
        serial_profile, _ = serial
        par_profile, _ = execute_chunk_grid(a, a, grid, workers=4)
        for s, p in zip(serial_profile.chunks, par_profile.chunks):
            assert s.chunk_id == p.chunk_id
            assert s.flops == p.flops
            assert s.nnz_out == p.nnz_out
            assert s.symbolic_kernels == p.symbolic_kernels
            assert s.numeric_kernels == p.numeric_kernels


class TestMeasuredTimes:
    def test_per_chunk_and_wall_times_recorded(self, serial):
        profile, _ = serial
        assert profile.has_measured_times
        assert all(c.measured and c.measured_seconds >= 0 for c in profile.chunks)
        assert profile.measured_wall_seconds >= 0
        assert profile.total_measured_seconds > 0
        assert profile.measured_gflops > 0

    def test_roundtrip_preserves_measurements(self, serial):
        from repro.core.chunks import ChunkProfile

        profile, _ = serial
        back = ChunkProfile.from_dict(profile.to_dict())
        assert back.measured_wall_seconds == profile.measured_wall_seconds
        assert [c.measured_seconds for c in back.chunks] == [
            c.measured_seconds for c in profile.chunks
        ]

    def test_legacy_payload_has_no_measurements(self, serial):
        """Profiles cached before measurement existed must still load."""
        from repro.core.chunks import ChunkProfile

        profile, _ = serial
        payload = profile.to_dict()
        del payload["measured_wall_seconds"]
        for chunk in payload["chunks"]:
            del chunk["measured_seconds"]
        back = ChunkProfile.from_dict(payload)
        assert not back.has_measured_times
        assert back.measured_wall_seconds == -1.0
        assert back.measured_gflops == 0.0


class TestStreaming:
    def test_sink_sees_every_chunk_once(self, problem):
        a, grid = problem
        seen = []
        lock = threading.Lock()

        def sink(rp, cp, matrix):
            with lock:
                seen.append((rp, cp))

        execute_chunk_grid(a, a, grid, workers=4,
                           checkpoint=Checkpoint(SimpleNamespace(put=sink)))
        assert sorted(seen) == [
            (rp, cp)
            for rp in range(grid.num_row_panels)
            for cp in range(grid.num_col_panels)
        ]

    def test_sink_exception_propagates(self, problem):
        a, grid = problem

        def sink(rp, cp, matrix):
            raise RuntimeError("sink boom")

        with pytest.raises(RuntimeError, match="sink boom"):
            execute_chunk_grid(a, a, grid, workers=4,
                               checkpoint=Checkpoint(SimpleNamespace(put=sink)))


class TestValidation:
    def test_chunk_sink_is_gone_not_ignored(self, problem):
        """A store-backed checkpoint is the one way chunks stream out."""
        a, grid = problem
        with pytest.raises(TypeError, match="chunk_sink"):
            execute_chunk_grid(a, a, grid, chunk_sink=lambda rp, cp, m: None)

    def test_rejects_bad_worker_count(self, problem):
        a, grid = problem
        with pytest.raises(ValueError, match="workers"):
            execute_chunk_grid(a, a, grid, workers=0)

    @pytest.mark.parametrize("window", [0, -1, -100])
    def test_rejects_nonpositive_window(self, problem, window):
        """window=0 used to silently fall back to the default and a
        negative window made the dispatch loop spin forever."""
        a, grid = problem
        with pytest.raises(ValueError, match="window"):
            execute_chunk_grid(a, a, grid, workers=2, window=window)

    def test_window_none_uses_default(self, problem, serial):
        a, grid = problem
        _, serial_out = serial
        _, par_out = execute_chunk_grid(
            a, a, grid, workers=2, window=None, keep_outputs=True
        )
        assert_outputs_identical(serial_out, par_out)

    def test_rejects_zero_worker_lane(self, problem):
        """A 0-worker lane is the serialize-me signal from split_workers;
        passing it through is a caller bug, not 2x oversubscription."""
        a, grid = problem
        ids = list(range(grid.num_chunks))
        with pytest.raises(ValueError, match="lane"):
            execute_chunk_grid(a, a, grid, lanes=[(ids[:1], 1), (ids[1:], 0)])

    def test_single_worker_hybrid_lanes_serialized(self, problem, serial):
        """plan_hybrid_lanes(workers=1) + execute = serial result."""
        from repro.core.chunks import chunk_flops

        a, grid = problem
        _, serial_out = serial
        planned = plan_hybrid_lanes(chunk_flops(a, a, grid).ravel(), 1, 0.65)
        _, out = execute_chunk_grid(
            a, a, grid, keep_outputs=True,
            lanes=[(ids, w) for ids, w, _ in planned],
            lane_names=[n for _, _, n in planned],
        )
        assert_outputs_identical(serial_out, out)

    def test_rejects_incomplete_lanes(self, problem):
        a, grid = problem
        with pytest.raises(ValueError, match="exactly once"):
            execute_chunk_grid(a, a, grid, lanes=[([0, 1], 1)])

    def test_rejects_duplicate_lane_ids(self, problem):
        a, grid = problem
        ids = list(range(grid.num_chunks))
        with pytest.raises(ValueError, match="exactly once"):
            execute_chunk_grid(a, a, grid, lanes=[(ids, 1), ([0], 1)])


class TestProfileChunksDelegation:
    def test_profile_chunks_parallel_matches_serial(self, problem):
        """The public profiling entry point threads workers through."""
        a, grid = problem
        serial_profile, serial_out = execute_chunk_grid(
            a, a, grid, keep_outputs=True, name="x"
        )
        par_profile, par_out = execute_chunk_grid(
            a, a, grid, keep_outputs=True, name="x", workers=4
        )
        assert_outputs_identical(serial_out, par_out)
        assert par_profile.name == "x"
        assert par_profile.total_flops == serial_profile.total_flops
