"""Measurement plumbing shared by the workloads and the ladder.

Everything here is owned by the benchmark and touches the program only
through `crc32_matrix` / `native_available`: sample statistics, the
scipy-anchored product verifier, the in-memory span list, the residue
check, and the host fingerprint recorded with every result.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"

#: an op slower than this counts as failed (ISSUE: "timed out (10 s)")
OP_TIMEOUT_S = 10.0


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# ----------------------------------------------------------------------
# sample statistics
# ----------------------------------------------------------------------
def percentile(samples: Iterable[float], p: float) -> float:
    return float(np.percentile(np.asarray(list(samples), dtype=float), p))


def supported_percentile(n: int) -> int:
    """Highest of p50/75/90/95/99 that leaves ten samples beyond it."""
    best = 50
    for p in (75, 90, 95, 99):
        if n * (100 - p) / 100.0 >= 10:
            best = p
    return best


def summarize(samples: Iterable[float]) -> Dict[str, float]:
    """Sample count, median, quartiles and the percentile the count
    actually supports — recorded beside every metric."""
    xs = [float(x) for x in samples]
    if not xs:
        return {"n": 0}
    if len(xs) >= 2:
        q1, med, q3 = statistics.quantiles(xs, n=4)
    else:
        q1 = med = q3 = xs[0]
    return {"n": len(xs), "median": med, "q1": q1, "q3": q3,
            "min": min(xs), "max": max(xs),
            "percentile_supported": supported_percentile(len(xs))}


def timed(fn: Callable[[], object]):
    """``(seconds, result)`` of one call, garbage collected beforehand
    and never inside the timed region."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        out = fn()
        return time.perf_counter() - t0, out
    finally:
        if was_enabled:
            gc.enable()


def peak_rss_mb() -> float:
    """Max resident set over this process and its reaped children."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


# ----------------------------------------------------------------------
# verification against the scipy anchor
# ----------------------------------------------------------------------
class Verifier:
    """Checks every product of one operand pair, outside timed regions.

    The first product is compared to the scipy reference (identical
    structure after canonical sort, values allclose at rtol 1e-12); its
    CRC32 then stands in for the reference, so later products cost one
    checksum each.
    """

    def __init__(self, reference) -> None:
        ref = reference.tocsr().copy()
        ref.sort_indices()
        self._ref = ref
        self.crc: Optional[int] = None

    def matches_scipy(self, c) -> bool:
        got = c.to_scipy()
        got.sort_indices()
        ref = self._ref
        return bool(
            got.shape == ref.shape
            and np.array_equal(got.indptr, ref.indptr)
            and np.array_equal(got.indices, ref.indices)
            and np.allclose(got.data, ref.data, rtol=1e-12, atol=0.0)
        )

    def check(self, c) -> bool:
        from repro.core.governor.integrity import crc32_matrix

        if c is None:
            return False
        if self.crc is None:
            if not self.matches_scipy(c):
                return False
            self.crc = crc32_matrix(c)
            return True
        return crc32_matrix(c) == self.crc


# ----------------------------------------------------------------------
# benchmark-owned spans
# ----------------------------------------------------------------------
class Spans:
    """In-memory span list: ``{id, name, start, end, parent, workload}``.

    One root per workload, one child per ladder rung, one grandchild per
    repetition.  Written out as a Chrome trace when the run ends.
    """

    def __init__(self, workload: str = "") -> None:
        self.workload = workload
        self.spans: List[dict] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name, "workload": self.workload,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def self_time(self, span_id: int) -> float:
        """A span's duration minus the part its children cover."""
        rec = self.spans[span_id]
        children = sum(s["end"] - s["start"] for s in self.spans
                       if s["parent"] == span_id and s["end"] is not None)
        return (rec["end"] - rec["start"]) - children

    def chrome_events(self, pid: int = 1) -> List[dict]:
        if not self.spans:
            return []
        origin = min(s["start"] for s in self.spans)
        events = [{"ph": "M", "pid": pid, "name": "process_name",
                   "args": {"name": f"bench:{self.workload}"}}]
        for s in self.spans:
            if s["end"] is None:
                continue
            events.append({
                "ph": "X", "pid": pid, "tid": 1, "name": s["name"],
                "cat": "bench", "ts": (s["start"] - origin) * 1e6,
                "dur": (s["end"] - s["start"]) * 1e6,
                "args": {"id": s["id"], "parent": s["parent"],
                         "workload": s["workload"]},
            })
        return events


def write_chrome_trace(path: Path, events: List[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events,
                                "displayTimeUnit": "ms"}))


# ----------------------------------------------------------------------
# residue: what a workload must not leave behind
# ----------------------------------------------------------------------
def _children_of(pid: int, trackers: bool = False) -> List[str]:
    """``pid:comm`` of every live child; unless `trackers`, the
    multiprocessing resource trackers excepted (this process's lives until
    `reap_descendants`, and a stopped server's or worker's ends on its own
    once its pipe closes).  Zombies are not listed: they are the adopted
    orphans of processes that did stop, and `reap_descendants` waits for
    them."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
            cmdline = Path("/proc", entry, "cmdline").read_bytes()
        except OSError:
            continue  # exited while we looked
        comm_end = stat.rfind(")")
        fields = stat[comm_end + 2:].split()
        if int(fields[1]) != pid or fields[0] == "Z":
            continue
        if b"resource_tracker" in cmdline and not trackers:
            continue
        found.append(f"{entry}:{stat[stat.find('(') + 1:comm_end]}")
    return found


def adopt_orphans() -> None:
    """Make this process the one that inherits its descendants' orphans
    (a stopped server's or shard worker's resource tracker), so that
    `reap_descendants` can wait for them; without it they fall to pid 1,
    which in a container need not reap anything."""
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass  # not Linux: only direct children can be waited for


def reap_descendants(grace_s: float = 5.0) -> None:
    """Wait until every process this one started or adopted has ended.

    The multiprocessing resource tracker ends when its pipe closes, which
    `_stop` does and then waits; whatever else is still alive after
    `grace_s` is killed.  Nothing outlives the benchmark, zombies included."""
    from multiprocessing import resource_tracker

    try:
        resource_tracker._resource_tracker._stop()
    except (AttributeError, OSError, ChildProcessError):
        pass
    deadline = time.monotonic() + grace_s
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return  # no child left
        if pid:
            continue
        if time.monotonic() > deadline:
            for child in _children_of(os.getpid(), trackers=True):
                try:
                    os.kill(int(child.split(":")[0]), signal.SIGKILL)
                except OSError:
                    pass
        time.sleep(0.01)


class ResidueCheck:
    """Snapshot before a workload, list of leftovers after it: new
    ``/dev/shm`` segments, files in the workload's tmp directory
    (spill directories, socket files), surviving child processes."""

    def __init__(self, tmpdir: Path) -> None:
        self.tmpdir = tmpdir
        self._shm_before = self._shm()

    @staticmethod
    def _shm() -> set:
        try:
            return {n for n in os.listdir("/dev/shm") if n.startswith("repro")}
        except OSError:
            return set()

    def problems(self) -> List[str]:
        out = [f"shm segment {n}" for n in sorted(self._shm() - self._shm_before)]
        if self.tmpdir.is_dir():
            out += [f"tmp entry {p.relative_to(self.tmpdir)}"
                    for p in sorted(self.tmpdir.rglob("*"))]
        out += [f"child process {c}" for c in _children_of(os.getpid())]
        return out


# ----------------------------------------------------------------------
# provenance recorded with every result
# ----------------------------------------------------------------------
def _git(*args: str) -> Optional[str]:
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def git_sha() -> Dict[str, object]:
    """Commit and dirty flag; ``unknown`` outside a git checkout (the
    driver's checkout is a plain directory)."""
    sha = _git("rev-parse", "HEAD")
    if not sha:
        return {"sha": "unknown", "dirty": None}
    return {"sha": sha, "dirty": bool(_git("status", "--porcelain"))}


def fingerprint() -> Dict[str, object]:
    import scipy

    from repro.spgemm.native import native_available

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    ram_mib = None
    try:
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal"):
                ram_mib = int(line.split()[1]) // 1024
                break
    except OSError:
        pass
    return {
        "git": git_sha(),
        "cpu_model": cpu,
        "nproc": nproc(),
        "ram_mib": ram_mib,
        "kernel": platform.release(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "native_available": bool(native_available()),
        "python_executable": sys.executable,
    }
