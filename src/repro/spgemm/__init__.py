"""SpGEMM kernels: the in-core substrate the out-of-core framework drives."""

from .esc import spgemm_esc
from .flops import compression_ratio, flops_per_row, total_flops
from .gustavson import spgemm_gustavson
from .kernels import (
    KERNEL_KINDS,
    KernelSpec,
    plan_groups,
    resolve_kernel,
)
from .native import native_available, native_build_error
from .numeric import RowSlots, numeric_grouped, place_rows
from .reference import assert_same_product, spgemm_scipy
from .rowanalysis import RowAnalysis, analyze_rows
from .semiring import MAX_MIN, MIN_PLUS, OR_AND, PLUS_TIMES, Semiring, spgemm_semiring
from .symbolic import symbolic_sort
from .twophase import (
    SymbolicPhase,
    TwoPhaseResult,
    TwoPhaseStats,
    spgemm_numeric,
    spgemm_symbolic,
    spgemm_twophase,
)
from .upperbound import row_upper_bound, row_upper_bound_cols, tightness

__all__ = [
    "spgemm_esc",
    "compression_ratio",
    "flops_per_row",
    "total_flops",
    "spgemm_gustavson",
    "KERNEL_KINDS",
    "KernelSpec",
    "plan_groups",
    "resolve_kernel",
    "native_available",
    "native_build_error",
    "RowSlots",
    "numeric_grouped",
    "place_rows",
    "assert_same_product",
    "spgemm_scipy",
    "RowAnalysis",
    "analyze_rows",
    "MAX_MIN",
    "MIN_PLUS",
    "OR_AND",
    "PLUS_TIMES",
    "Semiring",
    "spgemm_semiring",
    "symbolic_sort",
    "SymbolicPhase",
    "TwoPhaseResult",
    "TwoPhaseStats",
    "spgemm_numeric",
    "spgemm_symbolic",
    "spgemm_twophase",
    "row_upper_bound",
    "row_upper_bound_cols",
    "tightness",
]
