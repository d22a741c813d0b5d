"""SpGEMM kernels: the in-core substrate the out-of-core framework drives."""

from .flops import compression_ratio, flops_per_row, products_per_row, total_flops
from .kernels import (
    KERNEL_KINDS,
    KernelSpec,
    resolve_kernel,
)
from .native import native_available, native_build_error
from .numeric import RowSlots, place_rows
from .semiring import MAX_MIN, MIN_PLUS, OR_AND, PLUS_TIMES, Semiring, spgemm_semiring
from .twophase import (
    SymbolicPhase,
    TwoPhaseResult,
    TwoPhaseStats,
    spgemm_numeric,
    spgemm_symbolic,
    spgemm_twophase,
)

__all__ = [
    "compression_ratio",
    "flops_per_row",
    "products_per_row",
    "total_flops",
    "KERNEL_KINDS",
    "KernelSpec",
    "resolve_kernel",
    "native_available",
    "native_build_error",
    "RowSlots",
    "place_rows",
    "MAX_MIN",
    "MIN_PLUS",
    "OR_AND",
    "PLUS_TIMES",
    "Semiring",
    "spgemm_semiring",
    "SymbolicPhase",
    "TwoPhaseResult",
    "TwoPhaseStats",
    "spgemm_numeric",
    "spgemm_symbolic",
    "spgemm_twophase",
]
