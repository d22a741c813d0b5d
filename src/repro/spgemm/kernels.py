"""Unified kernel dispatch for the two-phase SpGEMM pipeline.

One small interface fronts every accumulator the repo knows about so new
kernels (and new group-selection heuristics) plug in without touching the
engine, the process workers, or the CLI:

* :data:`ACCUMULATORS` — registry of the numpy group accumulators, all
  sharing the signature ``fn(a, b, rows, work, *, with_values,
  slice_cache)`` and returning
  :class:`~repro.spgemm.accumulators.RowResults`.  ``native`` groups are
  not in it: the pipeline runs them as a count pass and an in-place fill
  pass (:mod:`repro.spgemm.native`), with no ``RowResults`` in between;
* :class:`KernelSpec` — a frozen, string-codable kernel choice that
  crosses process boundaries as ``spec.encode()``;
* :func:`plan_groups` — maps row-analysis statistics (upper-bound work or
  exact counts) to a :class:`~repro.spgemm.groups.RowGrouping` whose
  group methods name registry entries.

Kinds
-----
``hash``    spECK-style: dense accumulation for dense rows, power-of-two
            hash buckets for the rest (the original default).
``dense``   dense accumulation for every productive row.
``esc``     bhSPARSE-style expand/sort/compress, one batch per group.
``native``  runtime-compiled C Gustavson kernel (when available).
``auto``    ``native`` when the toolchain allows it, else dense rows to
            ``dense`` and the rest to ``esc``.

Every kind combines duplicate products in expansion (ascending ``k``)
order, so all are mutually bit-identical for any float input (the
identity contract, DESIGN.md Section 10).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Union

import numpy as np

from .accumulators import (
    RowResults,
    dense_accumulate_rows,
    esc_accumulate_rows,
    hash_accumulate_rows,
)
from .groups import (
    DENSE_THRESHOLD,
    RowGroup,
    RowGrouping,
    group_rows,
)
from .native import native_available, native_build_error

__all__ = [
    "KERNEL_KINDS",
    "FUSED_METHODS",
    "KernelSpec",
    "resolve_kernel",
    "require_kernel",
    "resolved_wire",
    "ACCUMULATORS",
    "accumulate",
    "plan_groups",
]

#: every accepted ``KernelSpec.kind`` / ``--kernel`` value
KERNEL_KINDS = ("auto", "hash", "dense", "esc", "native")

#: group methods that produce values during the symbolic pass (their
#: symbolic run is cached and the numeric pass only scatters it).
#: ``native`` is not one: it counts, then fills the exact allocation.
FUSED_METHODS = frozenset({"esc"})


@dataclass(frozen=True)
class KernelSpec:
    """A kernel choice for one chunk grid (or one multiplication).

    ``kind`` selects the accumulator family (see module docstring).  The
    spec serializes to a short string via :meth:`encode` so it can ride
    through spawn args to process workers and into trace span attributes.
    """

    kind: str = "auto"

    def __post_init__(self) -> None:
        if self.kind not in KERNEL_KINDS:
            raise ValueError(
                f"unknown kernel kind {self.kind!r}; expected one of {KERNEL_KINDS}"
            )

    def encode(self) -> str:
        """Wire form, inverse of :meth:`parse`."""
        return self.kind

    @staticmethod
    def parse(text: str) -> "KernelSpec":
        return KernelSpec(kind=text.strip())

    def resolved(self) -> "KernelSpec":
        """The concrete spec ``auto`` resolves to on this toolchain.

        ``auto`` is a *policy*, not a kernel: on a box with a C compiler
        it runs the native Gustavson kernel; without one it runs the
        dense/ESC split.  Artifacts keyed on the kernel (profile caches,
        recorded :class:`~repro.core.chunks.ChunkStats`) must use the
        resolved wire form, or timings from different kernels alias
        under one key.
        """
        if self.kind == "auto" and native_available():
            return KernelSpec(kind="native")
        return self


def resolve_kernel(
    kernel: Union[None, str, KernelSpec],
) -> KernelSpec:
    """Normalize ``None`` / wire string / spec into a :class:`KernelSpec`."""
    if kernel is None:
        return KernelSpec()
    if isinstance(kernel, KernelSpec):
        return kernel
    return KernelSpec.parse(kernel)


def require_kernel(kernel: Union[None, str, KernelSpec]) -> KernelSpec:
    """:func:`resolve_kernel` where a run starts: an explicit ``native``
    that cannot be built is refused (:class:`ValueError`) before anything
    is loaded, planned or partitioned; ``auto`` degrades instead."""
    spec = resolve_kernel(kernel)
    if spec.kind == "native" and not native_available():
        raise ValueError(
            f"kernel 'native' requested but unavailable: {native_build_error()}")
    return spec


def resolved_wire(kernel: Union[None, str, KernelSpec] = None) -> str:
    """Resolved wire form of a kernel choice — the cache key for
    kernel-dependent artifacts (e.g. on-disk chunk profiles)."""
    return resolve_kernel(kernel).resolved().encode()


def _dense_adapter(a, b, rows, work, *, with_values, slice_cache) -> RowResults:
    del work  # dense buffers are sized by the output width alone
    return dense_accumulate_rows(
        a, b, rows, with_values=with_values, slice_cache=slice_cache
    )


#: group-method name -> accumulator, uniform signature
ACCUMULATORS: Dict[str, Callable[..., RowResults]] = {
    "hash": hash_accumulate_rows,
    "dense": _dense_adapter,
    "esc": esc_accumulate_rows,
}


def accumulate(
    method: str,
    a,
    b,
    rows: np.ndarray,
    work: Optional[np.ndarray],
    *,
    with_values: bool,
    slice_cache=None,
) -> RowResults:
    """Run one registered accumulator over one row group."""
    try:
        fn = ACCUMULATORS[method]
    except KeyError:
        raise ValueError(f"unknown accumulator method {method!r}") from None
    return fn(a, b, rows, work, with_values=with_values, slice_cache=slice_cache)


def _single_group(work: np.ndarray, method: str) -> RowGrouping:
    rows = np.flatnonzero(work > 0)
    groups = ()
    if rows.size:
        groups = (RowGroup(rows=rows, method=method, bucket=0),)
    return RowGrouping(groups=groups, n_rows=work.size)


def plan_groups(
    work_per_row: np.ndarray,
    out_width: int,
    spec: KernelSpec,
) -> RowGrouping:
    """Derive the row grouping a :class:`KernelSpec` implies.

    ``work_per_row`` is the upper-bound products per row before the
    symbolic phase, or the exact output nnz per row before the numeric
    phase — the same statistic :func:`~repro.spgemm.groups.group_rows`
    consumes.  Rows with zero work are never grouped (their output rows
    are empty).
    """
    work = np.asarray(work_per_row, dtype=np.int64)
    kind = spec.resolved().kind

    if kind == "native":
        if not native_available():
            raise RuntimeError(
                f"kernel 'native' requested but unavailable: {native_build_error()}"
            )
        return _single_group(work, "native")
    if kind in ("esc", "dense"):
        return _single_group(work, kind)
    if kind == "hash":
        # the original spECK split: dense rows + power-of-two hash buckets
        return group_rows(work, out_width)
    # auto without a native toolchain: dense rows keep the dense
    # accumulator, everything else goes through one vectorized ESC batch
    cutoff = max(1.0, DENSE_THRESHOLD * out_width)
    active = work > 0
    dense_rows = np.flatnonzero(active & (work >= cutoff))
    esc_rows = np.flatnonzero(active & (work < cutoff))
    groups = []
    if dense_rows.size:
        groups.append(RowGroup(rows=dense_rows, method="dense", bucket=0))
    if esc_rows.size:
        groups.append(RowGroup(rows=esc_rows, method="esc", bucket=0))
    return RowGrouping(groups=tuple(groups), n_rows=work.size)
