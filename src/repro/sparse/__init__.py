"""Sparse-matrix substrate: formats, generators, I/O, and panel partitioning."""

from .coo import COOMatrix
from .csc import CSCMatrix
from .formats import CSRMatrix
from .generators import banded, diagonal_blocks, erdos_renyi, kronecker_power, random_csr, rmat
from .ops import (
    add,
    drop_explicit_zeros,
    extract_columns,
    hstack,
    row_stats,
    scale,
    take_rows,
    transpose,
    vstack,
)
from .reordering import bandwidth, degree_order, permute_symmetric, rcm_order
from .shm import SharedCSR, SharedCSRDescriptor
from .partition import (
    build_col_offsets,
    panel_boundaries,
    partition_columns,
    partition_rows,
)

__all__ = [
    "CSRMatrix",
    "COOMatrix",
    "CSCMatrix",
    "banded",
    "diagonal_blocks",
    "erdos_renyi",
    "kronecker_power",
    "random_csr",
    "rmat",
    "add",
    "drop_explicit_zeros",
    "extract_columns",
    "hstack",
    "row_stats",
    "scale",
    "take_rows",
    "transpose",
    "vstack",
    "bandwidth",
    "degree_order",
    "permute_symmetric",
    "rcm_order",
    "SharedCSR",
    "SharedCSRDescriptor",
    "build_col_offsets",
    "panel_boundaries",
    "partition_columns",
    "partition_rows",
]
