"""Fixtures for out-of-core framework tests: a small out-of-core workload,
and the residue check.

Every test here — the fault, hang, corruption and resume batteries
included — must leave behind neither a ``repro-*`` shared-memory
segment nor a ``repro-chunks-*`` spill directory under the temp dir,
whatever was killed or raised on the way.
"""

import glob
import os
import tempfile
import time

import pytest

from repro.core.chunks import ChunkGrid
from repro.core.executor import execute_chunk_grid
from repro.device.kernels import default_cost_model
from repro.device.specs import v100_node
from repro.sparse.generators import rmat


def _residue():
    return set(glob.glob("/dev/shm/repro-*")) | set(
        glob.glob(os.path.join(tempfile.gettempdir(), "repro-chunks-*")))


@pytest.fixture(autouse=True)
def no_engine_residue():
    before = _residue()
    yield
    deadline = time.monotonic() + 2.0  # a killed worker's sweep runs a moment later
    while True:
        left = _residue() - before
        if not left or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    assert not left, f"shm segments / spill directories left behind: {sorted(left)}"


@pytest.fixture(scope="package")
def workload():
    """A small skewed matrix with a fixed 3x3 grid, profiled once."""
    a = rmat(9, 8.0, seed=77)
    grid = ChunkGrid.regular(a.n_rows, a.n_cols, 3, 3)
    profile, outputs = execute_chunk_grid(a, a, grid, keep_outputs=True, name="fixture")
    return a, grid, profile, outputs


@pytest.fixture(scope="package")
def node():
    return v100_node(device_memory_bytes=64 << 20)


@pytest.fixture(scope="package")
def cost(node):
    return default_cost_model(node)
