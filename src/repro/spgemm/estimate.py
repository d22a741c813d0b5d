"""OCEAN-style sampled estimation of SpGEMM output sizes.

The flops upper bound (`flops.products_per_row`) is cheap but loose:
PAPER.md Section IV.B rejects sizing from it because "the gap between upper
bounds and the actual sizes are really large".  OCEAN replaces the
bound with a sampled estimate: pick k rows of A, compute their *exact*
output nnz with the count kernel, and extrapolate the observed
compression ratio to the unsampled rows.

This module implements that estimator with stratified sampling
(rows are grouped by log2 of their product count, so heavy rows cannot
be drowned out by the many light ones) and variance-aware confidence
bounds: ``row_nnz_hi`` is a one-sided ~97.5% upper confidence estimate,
always clamped to the hard per-row ceiling ``min(ub, n_cols)``.  The
upper bound therefore remains a correctness ceiling; the estimate only
tightens it.

Chunk sizing does not read it: the planner and the governor size every
chunk from the flops upper bound, as the paper plans (Section IV.B).
The job server prices an admission with it
(:func:`repro.serve.server.price_job`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sparse.formats import CSRMatrix
from .accumulators import esc_accumulate_rows
from .flops import product_prefix
from .native import native_available, native_count_rows

__all__ = [
    "DEFAULT_SAMPLE_FRACTION",
    "RowNnzEstimate",
    "estimate_row_nnz",
]

DEFAULT_SAMPLE_FRACTION = 0.05
MIN_ROWS_PER_STRATUM = 8
MAX_SAMPLE_ROWS = 4096
Z_CONFIDENCE = 1.96
# Conservative half-width of the compression ratio (which lives in
# (0, 1]) used when a stratum has too few samples for a variance.
DEGENERATE_STDERR = 0.5


@dataclass(frozen=True)
class RowNnzEstimate:
    """Per-row output-nnz estimate for C = A @ B with confidence bounds.

    ``row_nnz`` is the point estimate, ``row_nnz_lo``/``row_nnz_hi`` the
    ~95% confidence band, and ``ub`` the hard flops-based ceiling
    (products per row).  Sampled rows carry their exact counts, so for
    them lo == nnz == hi.  Invariants: ``1 <= row_nnz_hi <= min(ub,
    width)`` wherever ``ub > 0``, and lo <= nnz <= hi everywhere.
    """

    row_nnz: np.ndarray
    row_nnz_lo: np.ndarray
    row_nnz_hi: np.ndarray
    ub: np.ndarray
    width: int
    sampled_rows: np.ndarray
    strata: int
    seed: int

    @property
    def n_rows(self) -> int:
        return int(self.ub.size)

    @property
    def sample_fraction(self) -> float:
        return self.sampled_rows.size / max(self.n_rows, 1)

    @property
    def total_nnz(self) -> float:
        return float(self.row_nnz.sum())

    @property
    def total_nnz_lo(self) -> float:
        return float(self.row_nnz_lo.sum())

    @property
    def total_nnz_hi(self) -> float:
        return float(self.row_nnz_hi.sum())


def _clamp(values: np.ndarray, ub: np.ndarray, width: int) -> np.ndarray:
    out = np.minimum(values, np.minimum(ub, width))
    active = ub > 0
    out[active] = np.maximum(out[active], 1.0)
    out[~active] = 0.0
    return out


def estimate_row_nnz(
    a: CSRMatrix,
    b: CSRMatrix,
    *,
    sample_fraction: float = DEFAULT_SAMPLE_FRACTION,
    min_rows_per_stratum: int = MIN_ROWS_PER_STRATUM,
    max_sample_rows: int = MAX_SAMPLE_ROWS,
    z: float = Z_CONFIDENCE,
    seed: int = 0,
) -> RowNnzEstimate:
    """Estimate per-row output nnz of A @ B from a stratified row sample.

    Rows are stratified by ``floor(log2(products))`` so the sample covers
    the whole work distribution; each stratum gets ``sample_fraction`` of
    its rows (at least ``min_rows_per_stratum``, at most
    ``max_sample_rows``).  The sampled rows' exact nnz comes from the
    native count pass when there is one, else from the ESC symbolic
    accumulator — the same integers either way; unsampled rows
    extrapolate their stratum's mean compression ratio with a z-scaled
    standard-error band (finite population corrected, so sampling every
    row collapses the band to the exact answer).
    """
    if not 0.0 < sample_fraction <= 1.0:
        raise ValueError(f"sample_fraction must be in (0, 1], got {sample_fraction}")
    ub = np.diff(product_prefix(a, b))
    width = int(b.n_cols)
    n = int(a.n_rows)
    nnz = np.zeros(n, dtype=np.float64)
    lo = np.zeros(n, dtype=np.float64)
    hi = np.zeros(n, dtype=np.float64)
    active = np.flatnonzero(ub > 0)
    if active.size == 0:
        return RowNnzEstimate(nnz, lo, hi, ub, width, active, 0, seed)

    strata_key = np.floor(np.log2(ub[active])).astype(np.int64)
    labels = np.unique(strata_key)
    rng = np.random.default_rng(seed)
    picked = []
    for label in labels:
        rows_s = active[strata_key == label]
        k = int(np.ceil(sample_fraction * rows_s.size))
        k = max(k, min(min_rows_per_stratum, rows_s.size))
        k = min(k, max_sample_rows, rows_s.size)
        picked.append(rng.choice(rows_s, size=k, replace=False))
    sampled = np.sort(np.concatenate(picked))

    if native_available():
        exact = native_count_rows(a, b, sampled)
    else:
        exact = esc_accumulate_rows(a, b, sampled, with_values=False).counts
    exact = exact.astype(np.float64)
    nnz[sampled] = exact
    lo[sampled] = exact
    hi[sampled] = exact

    sampled_mask = np.zeros(n, dtype=bool)
    sampled_mask[sampled] = True
    exact_by_row = np.zeros(n, dtype=np.float64)
    exact_by_row[sampled] = exact
    for label in labels:
        rows_s = active[strata_key == label]
        in_sample = rows_s[sampled_mask[rows_s]]
        rest = rows_s[~sampled_mask[rows_s]]
        if rest.size == 0:
            continue
        ratios = exact_by_row[in_sample] / ub[in_sample]
        mean = float(ratios.mean())
        k, pop = in_sample.size, rows_s.size
        if k > 1:
            fpc = np.sqrt(max(0.0, 1.0 - k / pop))
            stderr = float(ratios.std(ddof=1)) / np.sqrt(k) * fpc
        else:
            stderr = DEGENERATE_STDERR
        r_lo = max(0.0, mean - z * stderr)
        r_hi = min(1.0, mean + z * stderr)
        nnz[rest] = mean * ub[rest]
        lo[rest] = r_lo * ub[rest]
        hi[rest] = r_hi * ub[rest]

    nnz = _clamp(nnz, ub, width)
    hi = _clamp(hi, ub, width)
    lo = np.minimum(_clamp(lo, ub, width), nnz)
    hi = np.maximum(hi, nnz)
    return RowNnzEstimate(nnz, lo, hi, ub, width, sampled, int(labels.size), seed)
