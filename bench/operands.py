"""Seeded operand generators owned by the benchmark.

The program receives only the matrices built here, so a later change to
`repro.sparse.generators` cannot move a workload.  The two families and
their parameters are copied from `repro/sparse/suite.py`: the banded
`nlp` analog (bandwidth 12, fill 0.6, compression ~10) and the R-MAT
`wiki` analog (degree 14, a/b/c = .45/.22/.22, compression ~2.7).
Canonicalisation (sort, sum duplicates) goes through scipy, which is
also the reference the products are checked against.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

MIN_DEVICE_MEMORY = 8 << 20


def _canonical(n: int, rows, cols, data) -> sp.csr_matrix:
    s = sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
    s.sum_duplicates()
    s.sort_indices()
    return s


def _values(rng: np.random.Generator, size: int) -> np.ndarray:
    # [0.5, 1.5): no cancellation, so scipy and the program agree on
    # the stored structure of every product
    return rng.uniform(0.5, 1.5, size=size)


def banded(n: int, bandwidth: int, fill: float, rng: np.random.Generator) -> sp.csr_matrix:
    offsets = np.arange(-bandwidth, bandwidth + 1, dtype=np.int64)
    rows = np.repeat(np.arange(n, dtype=np.int64), offsets.size)
    tiled = np.tile(offsets, n)
    cols = rows + tiled
    keep = (rng.random(cols.size) < fill) | (tiled == 0)  # diagonal always kept
    keep &= (cols >= 0) & (cols < n)
    rows, cols = rows[keep], cols[keep]
    return _canonical(n, rows, cols, _values(rng, rows.size))


def rmat(scale: int, degree: float, rng: np.random.Generator, *,
         a: float = 0.57, b: float = 0.19, c: float = 0.19) -> sp.csr_matrix:
    n = 1 << scale
    n_edges = int(round(n * degree))
    rows = np.zeros(n_edges, dtype=np.int64)
    cols = np.zeros(n_edges, dtype=np.int64)
    for level in range(scale):
        r = rng.random(n_edges)
        right = ((r >= a) & (r < a + b)) | (r >= a + b + c)
        down = r >= a + b
        bit = np.int64(1 << (scale - level - 1))
        rows += down * bit
        cols += right * bit
    return _canonical(n, rows, cols, _values(rng, n_edges))


def wiki_rmat(scale: int, rng: np.random.Generator) -> sp.csr_matrix:
    return rmat(scale, 14.0, rng, a=0.45, b=0.22, c=0.22)


def mesh(n: int, rng: np.random.Generator) -> sp.csr_matrix:
    return banded(n, 12, 0.6, rng)


def rng_for(seed: int, index: int = 0) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(index)])


def wrap(s: sp.csr_matrix):
    """The scipy matrix as the program's `CSRMatrix` (int64/float64 copies)."""
    from repro.sparse.formats import CSRMatrix

    return CSRMatrix(s.shape[0], s.shape[1],
                     s.indptr.astype(np.int64), s.indices.astype(np.int64),
                     s.data.astype(np.float64))


def reference_product(s: sp.csr_matrix) -> sp.csr_matrix:
    ref = (s @ s).tocsr()
    ref.sort_indices()
    return ref


def product_flops(s: sp.csr_matrix) -> int:
    """flop(A*A) by the paper's convention (multiply-add = 2)."""
    return 2 * int(np.diff(s.indptr)[s.indices].sum())


def ooc_node(s: sp.csr_matrix, ref: sp.csr_matrix):
    """Simulated device by the `experiments/runner.py` rule: inputs
    resident plus half of the remaining working set, floor 8 MiB — so
    the output cannot fit and the planner must chunk."""
    from repro.core.chunks import csr_bytes
    from repro.core.planner import working_set_bytes
    from repro.device.specs import v100_node

    n = s.shape[0]
    inputs = 2 * csr_bytes(n, s.nnz)
    rest = working_set_bytes(n, s.nnz, product_flops(s), ref.nnz) - inputs
    return v100_node(inputs + max(rest // 2, MIN_DEVICE_MEMORY))


def inline_spec(s: sp.csr_matrix) -> dict:
    """The serve API's `inline` operand form."""
    return {"inline": {"shape": [int(s.shape[0]), int(s.shape[1])],
                       "row_offsets": s.indptr.tolist(),
                       "col_ids": s.indices.tolist(),
                       "data": s.data.tolist()}}
