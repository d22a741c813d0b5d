"""Zero-copy CSR operand transport over POSIX shared memory.

The process executor backend (:mod:`repro.core.executor`) escapes the GIL
by running chunk kernels in worker *processes*.  Shipping the CSR panels
of ``A`` and ``B`` to every worker by pickling would copy each panel once
per task through a pipe; instead the parent places each panel into one
:class:`multiprocessing.shared_memory.SharedMemory` block — a single
copy, once per run — and workers reconstruct read-only
:class:`~repro.sparse.formats.CSRMatrix` *views* over the mapped buffer
from a tiny :class:`SharedCSRDescriptor`.  Attachment is zero-copy: the
numpy arrays alias the shared mapping directly.

One segment holds one CSR matrix in the layout of
:mod:`repro.sparse.codec` (DESIGN.md, "Byte layout"); this module adds
only the segment's name and lifetime.

Lifecycle rules (see ``docs/EXECUTORS.md``):

* the *creator* owns the segment and must :meth:`~SharedCSR.unlink` it;
  attachers only :meth:`~SharedCSR.close`;
* attaching avoids ``resource_tracker`` churn: ``track=False`` on
  Python >= 3.13, and on earlier interpreters the duplicate registration
  is simply tolerated — the tracker is one process shared by the whole
  process tree and its cache is a *set*, so re-registering an attached
  name is a no-op while unregistering it would erase the creator's entry
  and make the eventual ``unlink`` complain about an unknown name;
* all segments of one executor run share a :func:`run_prefix` name
  prefix, so a crash anywhere can be swept up with
  :func:`cleanup_segments` (used in ``finally`` blocks and ``atexit``
  guards) by scanning ``/dev/shm``.
"""

from __future__ import annotations

import atexit
import os
import secrets
from dataclasses import dataclass
from multiprocessing import shared_memory
from pathlib import Path
from typing import List, Optional

from .codec import csr_buffers, csr_from_buffer, csr_nbytes
from .formats import CSRMatrix

__all__ = [
    "SharedCSRDescriptor",
    "SharedCSR",
    "run_prefix",
    "cleanup_segments",
    "register_cleanup_prefix",
    "unregister_cleanup_prefix",
]


@dataclass(frozen=True)
class SharedCSRDescriptor:
    """Everything needed to reattach a shared CSR block: ``(name, shape,
    nnz)``.  Small and picklable — this tuple is the whole per-operand
    payload a worker receives."""

    name: str
    n_rows: int
    n_cols: int
    nnz: int

    @property
    def nbytes(self) -> int:
        return csr_nbytes(self.n_rows, self.nnz)


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without disturbing the resource tracker.

    ``track=False`` (Python >= 3.13) skips registration outright.  Earlier
    interpreters register every attachment, but against the *shared*
    tracker process whose cache is a set — the duplicate is a no-op, and
    the one unregister issued by the owner's ``unlink`` keeps the books
    balanced.  (Explicitly unregistering here instead would erase the
    creator's entry and break that final unregister.)"""
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # track= not supported (< 3.13)
        return shared_memory.SharedMemory(name=name)


class SharedCSR:
    """A CSR matrix living in one shared-memory segment.

    Create with :meth:`create` (copies the matrix in, once) in the owning
    process; reconstruct with :meth:`attach` (zero-copy views) in
    workers.  The object exposes ``.matrix`` — a
    :class:`~repro.sparse.formats.CSRMatrix` whose arrays alias the
    shared mapping — and ``.descriptor`` for shipping to other processes.
    """

    def __init__(self, shm: shared_memory.SharedMemory,
                 descriptor: SharedCSRDescriptor, *, owner: bool) -> None:
        self._shm = shm
        self._descriptor = descriptor
        self._owner = owner
        self._unlinked = False
        self._matrix: Optional[CSRMatrix] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, matrix: CSRMatrix, name: str) -> "SharedCSR":
        """Copy ``matrix`` into a new shared segment named ``name``."""
        desc = SharedCSRDescriptor(
            name=name, n_rows=matrix.n_rows, n_cols=matrix.n_cols,
            nnz=matrix.nnz,
        )
        shm = shared_memory.SharedMemory(
            name=name, create=True, size=max(desc.nbytes, 1)
        )
        shared = cls(shm, desc, owner=True)
        for dst, src in zip(csr_buffers(shared.matrix), csr_buffers(matrix)):
            dst[:] = src
        return shared

    @classmethod
    def attach(cls, descriptor: SharedCSRDescriptor) -> "SharedCSR":
        """Map an existing segment; ``.matrix`` gives zero-copy views."""
        return cls(_attach_untracked(descriptor.name), descriptor, owner=False)

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    @property
    def descriptor(self) -> SharedCSRDescriptor:
        return self._descriptor

    @property
    def name(self) -> str:
        return self._descriptor.name

    @property
    def matrix(self) -> CSRMatrix:
        """The CSR matrix as views over the shared buffer (no copy).

        The returned matrix must be treated as read-only and must not
        outlive this object — its arrays alias the mapping."""
        if self._matrix is None:
            d = self._descriptor
            self._matrix = csr_from_buffer(
                self._shm.buf, d.n_rows, d.n_cols, d.nnz, check=False)
        return self._matrix

    def copy_matrix(self) -> CSRMatrix:
        """An independent (heap-allocated) copy of the stored matrix."""
        return self.matrix.copy()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release this process's mapping (the segment itself survives)."""
        self._matrix = None
        try:
            self._shm.close()
        except BufferError:
            # numpy views of the buffer are still referenced somewhere;
            # the mapping is released when the process exits
            pass

    def unlink(self) -> None:
        """Remove the segment from the system (owner only, idempotent)."""
        if self._unlinked:
            return
        self._unlinked = True
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass

    def __enter__(self) -> "SharedCSR":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
        if self._owner:
            self.unlink()


# ----------------------------------------------------------------------
# run-scoped naming and crash-proof cleanup
# ----------------------------------------------------------------------
def run_prefix(run_id: Optional[str] = None) -> str:
    """A run-unique shared-memory name prefix.

    Every segment of one executor run — operand panels and per-chunk
    result blocks alike — is named under one prefix, so cleanup after
    *any* failure (worker SIGKILL, KeyboardInterrupt, sink exception)
    reduces to one directory sweep.

    The prefix embeds the creating pid *and* a random token, so two
    concurrent runs — whether in one process (server jobs) or in two
    processes on one host — can never collide, and a sweep of one
    prefix can never touch another run's live segments.  ``run_id``
    adds an explicit namespace component (e.g. a server run id) so
    long-lived owners like the serve-time operand cache get their own
    recognizable family of names."""
    tag = f"-{run_id}" if run_id else ""
    return f"repro{tag}-{os.getpid()}-{secrets.token_hex(4)}"


def cleanup_segments(prefix: str) -> List[str]:
    """Unlink every shared segment whose name starts with ``prefix``.

    Scans ``/dev/shm`` where available (Linux); harmless when the
    directory does not exist.  Returns the names removed — an empty list
    is the "no leaks" assertion the cleanup tests make."""
    removed: List[str] = []
    shm_dir = Path("/dev/shm")
    if shm_dir.is_dir():
        for path in shm_dir.glob(f"{prefix}*"):
            try:
                path.unlink()
                removed.append(path.name)
            except OSError:
                pass
    return removed


# prefix -> pid of the process that registered it.  The sweep is
# per-registration pid-guarded: a forked child inherits the hook and
# the registry, but sweeps only prefixes *it* registered after the
# fork — never the parent's live segments.  (A single import-time pid
# guard would also silence legitimate sweeps in children that go on to
# create their own runs.)
_CLEANUP_PREFIXES: dict = {}


def _atexit_sweep() -> None:
    pid = os.getpid()
    for prefix, owner_pid in list(_CLEANUP_PREFIXES.items()):
        if owner_pid == pid:
            cleanup_segments(prefix)


atexit.register(_atexit_sweep)


def register_cleanup_prefix(prefix: str) -> None:
    """Guarantee ``prefix``'s segments are swept at interpreter exit.

    The sweep fires only in the registering process: children forked
    after registration inherit the entry but skip it, so a worker exit
    can never unlink segments its parent is still using."""
    _CLEANUP_PREFIXES[prefix] = os.getpid()


def unregister_cleanup_prefix(prefix: str) -> None:
    """Drop the exit-time sweep after an orderly cleanup."""
    _CLEANUP_PREFIXES.pop(prefix, None)
