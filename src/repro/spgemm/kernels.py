"""Kernel choice for the two-phase SpGEMM pipeline.

:class:`KernelSpec` is a frozen, string-codable kernel choice that
crosses process boundaries as ``spec.encode()``.  Every row with work
runs under the spec's resolved kernel, in one launch per stage.

Kinds
-----
``esc``     Liu & Vinter's expand/sort/compress in numpy
            (:func:`~repro.spgemm.accumulators.esc_accumulate_rows`).
``native``  runtime-compiled C Gustavson kernel (:mod:`repro.spgemm.native`):
            a count pass, then an in-place fill pass.
``auto``    ``native`` when the toolchain allows it, else ``esc``.

Both kernels combine duplicate products in expansion (ascending ``k``)
order, so they are bit-identical for any float input (the identity
contract, DESIGN.md Section 10).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .native import native_available, native_build_error

__all__ = [
    "KERNEL_KINDS",
    "KernelSpec",
    "resolve_kernel",
    "require_kernel",
    "resolved_wire",
]

#: every accepted ``KernelSpec.kind`` / ``--kernel`` value
KERNEL_KINDS = ("auto", "esc", "native")


@dataclass(frozen=True)
class KernelSpec:
    """A kernel choice for one chunk grid (or one multiplication).

    ``kind`` selects the kernel (see module docstring).  The
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
        it runs the native Gustavson kernel; without one it runs ESC.
        Artifacts keyed on the kernel (profile caches, recorded
        :class:`~repro.core.chunks.ChunkStats`) must use the resolved
        wire form, or timings from different kernels alias under one key.
        """
        if self.kind != "auto":
            return self
        return KernelSpec(kind="native" if native_available() else "esc")


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

