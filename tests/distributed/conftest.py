"""Residue check for the distributed suites.

Every test here must leave behind neither a ``repro shard-worker``
process — the worker itself or an executor child it forked, which keeps
the worker's command line and, once orphaned, lives on under pid 1 —
nor a ``repro-transport-*`` socket directory.  Pools held by wider
fixtures exist before the snapshot is taken and are not counted.
"""

import glob
import os
import tempfile
import time

import pytest


def _shard_worker_pids():
    pids = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as fh:
                argv = fh.read().split(b"\0")
        except OSError:
            continue  # exited while we were looking
        if b"repro" in argv and b"shard-worker" in argv:
            pids.add(int(entry))
    return pids


def _transport_dirs():
    return set(glob.glob(os.path.join(tempfile.gettempdir(), "repro-transport-*")))


@pytest.fixture(autouse=True)
def no_transport_residue():
    procs_before, dirs_before = _shard_worker_pids(), _transport_dirs()
    yield
    deadline = time.monotonic() + 2.0  # a reaped worker's children exit a moment later
    while True:
        procs = _shard_worker_pids() - procs_before
        dirs = _transport_dirs() - dirs_before
        if not (procs or dirs) or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    assert not procs, f"shard-worker processes left running: {sorted(procs)}"
    assert not dirs, f"transport socket directories left behind: {sorted(dirs)}"
