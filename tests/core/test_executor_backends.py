"""Tests for the pluggable executor backends (serial / thread / process).

The load-bearing property is three-way equivalence: every backend must
produce bit-identical chunk matrices and identical profiles (up to the
wall-clock fields) for any worker count, window, lane split, and sink
configuration.  The process backend additionally must not leak a single
shared-memory segment — even when a worker is hard-killed mid-chunk.
"""

import glob
import os
import signal
import subprocess
import sys
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.chunks import ChunkGrid, chunk_flops
from repro.core.executor import (
    EXECUTOR_BACKENDS,
    WorkerCrashed,
    execute_chunk_grid,
    plan_hybrid_lanes,
    resolve_backend_name,
)
from repro.core.executor.procworker import KILL_CHUNK_ENV, ORPHAN_POLL_SECONDS
from repro.core.spill import Checkpoint
from repro.sparse.generators import rmat

PARALLEL_BACKENDS = ("thread", "process")


def assert_outputs_identical(lhs, rhs):
    for row_l, row_r in zip(lhs, rhs):
        for m_l, m_r in zip(row_l, row_r):
            np.testing.assert_array_equal(m_l.row_offsets, m_r.row_offsets)
            np.testing.assert_array_equal(m_l.col_ids, m_r.col_ids)
            np.testing.assert_array_equal(m_l.data, m_r.data)


def assert_profiles_identical(lhs, rhs):
    """Chunk sets equal in everything but the measured wall clocks."""
    assert len(lhs.chunks) == len(rhs.chunks)
    for s, p in zip(lhs.chunks, rhs.chunks):
        assert s.chunk_id == p.chunk_id
        assert (s.row_panel, s.col_panel) == (p.row_panel, p.col_panel)
        assert s.flops == p.flops
        assert s.input_nnz == p.input_nnz
        assert s.nnz_out == p.nnz_out
        assert s.output_bytes == p.output_bytes
        assert s.analysis_bytes == p.analysis_bytes
        assert s.symbolic_bytes == p.symbolic_bytes
        assert s.symbolic_kernels == p.symbolic_kernels
        assert s.numeric_kernels == p.numeric_kernels


def leaked_shm():
    return glob.glob("/dev/shm/repro-*")


@pytest.fixture(scope="module")
def problem():
    a = rmat(10, 8.0, seed=5)
    grid = ChunkGrid.regular(a.n_rows, a.n_cols, 3, 3)
    return a, grid


@pytest.fixture(scope="module")
def serial(problem):
    a, grid = problem
    return execute_chunk_grid(a, a, grid, backend="serial", keep_outputs=True)


class TestBackendResolution:
    def test_legacy_defaults(self):
        assert resolve_backend_name(None, 1, False) == "serial"
        assert resolve_backend_name(None, 4, False) == "thread"
        assert resolve_backend_name(None, 1, True) == "thread"

    def test_explicit_names_pass_through(self):
        for name in EXECUTOR_BACKENDS:
            assert resolve_backend_name(name, 2, False) == name

    def test_unknown_backend_rejected(self, problem):
        a, grid = problem
        with pytest.raises(ValueError, match="backend"):
            execute_chunk_grid(a, a, grid, backend="gpu")

    def test_serial_rejects_multiple_workers(self, problem):
        a, grid = problem
        with pytest.raises(ValueError, match="serial"):
            execute_chunk_grid(a, a, grid, backend="serial", workers=4)


class TestThreeWayEquivalence:
    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_outputs_and_profiles_match_serial(self, problem, serial, backend):
        a, grid = problem
        serial_profile, serial_out = serial
        profile, out = execute_chunk_grid(
            a, a, grid, workers=3, backend=backend, keep_outputs=True
        )
        assert_outputs_identical(serial_out, out)
        assert_profiles_identical(serial_profile, profile)
        assert not leaked_shm()

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_tiny_window_matches_serial(self, problem, serial, backend):
        a, grid = problem
        _, serial_out = serial
        _, out = execute_chunk_grid(
            a, a, grid, workers=2, window=1, backend=backend, keep_outputs=True
        )
        assert_outputs_identical(serial_out, out)

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_hybrid_lanes_match_serial(self, problem, serial, backend):
        a, grid = problem
        serial_profile, serial_out = serial
        planned = plan_hybrid_lanes(chunk_flops(a, a, grid), 2, 0.65)
        profile, out = execute_chunk_grid(
            a, a, grid, keep_outputs=True, backend=backend,
            lanes=[(ids, w) for ids, w, _ in planned],
            lane_names=[n for _, _, n in planned],
        )
        assert_outputs_identical(serial_out, out)
        assert_profiles_identical(serial_profile, profile)
        assert not leaked_shm()

    @pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
    def test_chunk_sink_sees_every_chunk_once(self, problem, backend):
        a, grid = problem
        seen = []
        lock = threading.Lock()

        def sink(rp, cp, matrix):
            with lock:
                seen.append((rp, cp))

        workers = 1 if backend == "serial" else 2
        execute_chunk_grid(a, a, grid, workers=workers, backend=backend,
                           checkpoint=Checkpoint(SimpleNamespace(put=sink)))
        assert sorted(seen) == [
            (rp, cp)
            for rp in range(grid.num_row_panels)
            for cp in range(grid.num_col_panels)
        ]
        assert not leaked_shm()

    def test_process_backend_single_worker(self, problem, serial):
        a, grid = problem
        _, serial_out = serial
        _, out = execute_chunk_grid(
            a, a, grid, workers=1, backend="process", keep_outputs=True
        )
        assert_outputs_identical(serial_out, out)


class TestProcessTracing:
    def test_worker_spans_merged_into_parent_trace(self, problem):
        from repro.observability import Tracer

        a, grid = problem
        tracer = Tracer()
        execute_chunk_grid(a, a, grid, workers=2, backend="process",
                           tracer=tracer)
        cats = {s.cat for s in tracer.spans}
        # kernel phases run inside workers; their spans must still appear
        assert {"analysis", "symbolic", "numeric", "queue"} <= cats
        # every chunk's numeric phase made it back
        numeric = [s for s in tracer.spans if s.cat == "numeric"]
        assert len(numeric) == grid.num_chunks
        assert all(s.end >= s.start >= 0.0 for s in tracer.spans)
        # worker throughput gauges and parent shm occupancy gauges merged
        gauge_names = {g.name for g in tracer.gauges}
        assert any(n.startswith("throughput[") for n in gauge_names)
        assert any(n.startswith("shm[") for n in gauge_names)

    def test_tracing_does_not_change_results(self, problem, serial):
        from repro.observability import Tracer

        a, grid = problem
        _, serial_out = serial
        _, out = execute_chunk_grid(a, a, grid, workers=2, backend="process",
                                    keep_outputs=True, tracer=Tracer())
        assert_outputs_identical(serial_out, out)


class TestCrashCleanup:
    def test_worker_crash_aborts_run_without_leaking(self, problem, monkeypatch):
        """A worker hard-killed mid-chunk (after creating its result
        segment) must abort the run with WorkerCrashed and leave zero
        segments in /dev/shm — the run-prefix sweep reclaims the one the
        dead worker could not."""
        a, grid = problem
        monkeypatch.setenv(KILL_CHUNK_ENV, "0")
        with pytest.raises(WorkerCrashed):
            execute_chunk_grid(a, a, grid, workers=2, backend="process")
        assert not leaked_shm()

    def test_sink_exception_cleans_up(self, problem):
        a, grid = problem

        def sink(rp, cp, matrix):
            raise RuntimeError("sink boom")

        with pytest.raises(RuntimeError, match="sink boom"):
            execute_chunk_grid(a, a, grid, workers=2, backend="process",
                               checkpoint=Checkpoint(SimpleNamespace(put=sink)))
        assert not leaked_shm()

    def test_normal_run_leaves_no_segments(self, problem):
        a, grid = problem
        execute_chunk_grid(a, a, grid, workers=2, backend="process")
        assert not leaked_shm()


# chunk 0 hangs in its kernel, so one worker sits inside a chunk (only
# its heartbeat thread can notice the parent died) while the other goes
# idle on the task queue
_GRID_PARENT = """
from repro.core.chunks import ChunkGrid
from repro.core.executor import execute_chunk_grid
from repro.core.governor import Governor, GovernorConfig
from repro.sparse.generators import rmat

a = rmat(8, 8.0, seed=5)
execute_chunk_grid(
    a, a, ChunkGrid.regular(a.n_rows, a.n_cols, 2, 2),
    workers=2, backend="process", faults="numeric:hang:chunk=0:delay=120",
    governor=Governor(GovernorConfig(heartbeat_interval=0.2)))
"""


def _state_and_ppid(pid):
    """``(state, ppid)`` from ``/proc/<pid>/stat``; ``("Z", -1)`` once
    the process is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            # "pid (comm) state ppid ...": comm may hold spaces
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return "Z", -1
    return fields[0], int(fields[1])


def _children_of(pid):
    return {int(entry) for entry in os.listdir("/proc")
            if entry.isdigit() and _state_and_ppid(entry)[1] == pid}


def _alive(pids):
    # a zombie (an unreaped orphan under a pid 1 that does not wait) has exited
    return {pid for pid in pids if _state_and_ppid(pid)[0] != "Z"}


@pytest.fixture
def sigkilled_grid_parent():
    """A process-backend run whose parent was SIGKILLed mid-grid: yields
    ``(parent pid, pids of the children it left)``; whatever outlives
    the test is killed and its segments swept, so a failure leaks
    nothing into the next test."""
    parent = subprocess.Popen(
        [sys.executable, "-c", _GRID_PARENT], env=dict(
            os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    children = set()
    try:
        deadline = time.monotonic() + 60.0
        while len(children) < 2 and time.monotonic() < deadline:
            assert parent.poll() is None, "grid parent exited on its own"
            time.sleep(0.05)
            children = _children_of(parent.pid)
        time.sleep(0.5)  # let chunk 0 reach its hang and the rest drain
        children |= _children_of(parent.pid)
        parent.send_signal(signal.SIGKILL)
        parent.wait(10)
        yield parent.pid, children
    finally:
        if parent.poll() is None:
            parent.kill()
            parent.wait(10)
        for pid in _alive(children):
            os.kill(pid, signal.SIGKILL)
        for path in glob.glob(f"/dev/shm/repro-{parent.pid}-*"):
            os.unlink(path)


class TestOrphanedWorkers:
    def test_sigkilled_parent_leaves_no_worker_or_segment(
            self, sigkilled_grid_parent):
        pid, children = sigkilled_grid_parent
        assert len(children) >= 2
        deadline = time.monotonic() + 2 * ORPHAN_POLL_SECONDS
        while _alive(children) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _alive(children), "workers outlived their killed parent"
        assert not glob.glob(f"/dev/shm/repro-{pid}-*")


class TestPublicThreading:
    def test_profile_chunks_backend_param(self, problem, serial):
        a, grid = problem
        _, serial_out = serial
        _, out = execute_chunk_grid(a, a, grid, keep_outputs=True, workers=2,
                                    backend="process")
        assert_outputs_identical(serial_out, out)

    def test_run_hybrid_backend_param(self, problem):
        from repro.core.api import run_hybrid
        from repro.device.specs import v100_node

        a, grid = problem
        base = run_hybrid(a, a, v100_node(), grid=grid, workers=1)
        result = run_hybrid(a, a, v100_node(), grid=grid, workers=2,
                            backend="process")
        np.testing.assert_array_equal(base.matrix.data, result.matrix.data)
        np.testing.assert_array_equal(base.matrix.col_ids, result.matrix.col_ids)
        assert not leaked_shm()
