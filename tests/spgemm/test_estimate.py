"""Tests for the OCEAN-style sampled output-size estimator."""

import numpy as np
import pytest

from repro.sparse.formats import CSRMatrix
from repro.sparse.generators import banded, random_csr, rmat
from repro.spgemm.estimate import (
    RowNnzEstimate,
    estimate_row_nnz,
)
from repro.spgemm.native import native_available
from repro.spgemm.twophase import spgemm_twophase


def true_row_nnz(a, b):
    c = spgemm_twophase(a, b).matrix
    return np.diff(c.row_offsets).astype(np.float64)


def _pair(m):
    return m, m


MATRICES = [
    ("rmat", lambda: _pair(rmat(10, 8.0, seed=3))),
    ("banded", lambda: _pair(banded(500, 6, seed=7))),
    ("rect", lambda: (random_csr(200, 150, 1200, seed=11),
                      random_csr(150, 120, 900, seed=12))),
]


class TestEstimatorBounds:
    """The invariants the planner and governor rely on."""

    @pytest.mark.parametrize("name,make", MATRICES, ids=[n for n, _ in MATRICES])
    def test_hi_never_exceeds_hard_ceiling(self, name, make):
        a, b = make()
        est = estimate_row_nnz(a, b, seed=0)
        ceiling = np.minimum(est.ub, est.width)
        assert np.all(est.row_nnz_hi <= ceiling + 1e-9)
        assert np.all(est.row_nnz <= est.row_nnz_hi + 1e-9)
        assert np.all(est.row_nnz_lo <= est.row_nnz + 1e-9)
        assert np.all(est.row_nnz_lo >= 0)

    @pytest.mark.parametrize("name,make", MATRICES, ids=[n for n, _ in MATRICES])
    def test_active_rows_estimated_at_least_one(self, name, make):
        a, b = make()
        est = estimate_row_nnz(a, b, seed=0)
        active = est.ub > 0
        assert np.all(est.row_nnz[active] >= 1.0)
        assert np.all(est.row_nnz_hi[active] >= 1.0)
        assert np.all(est.row_nnz[~active] == 0.0)

    @pytest.mark.parametrize("name,make", MATRICES, ids=[n for n, _ in MATRICES])
    def test_sampled_rows_are_exact(self, name, make):
        a, b = make()
        est = estimate_row_nnz(a, b, seed=0)
        truth = true_row_nnz(a, b)
        s = est.sampled_rows
        assert s.size > 0
        np.testing.assert_allclose(est.row_nnz[s], truth[s])
        np.testing.assert_allclose(est.row_nnz_lo[s], truth[s])
        np.testing.assert_allclose(est.row_nnz_hi[s], truth[s])

    @pytest.mark.parametrize("name,make", MATRICES, ids=[n for n, _ in MATRICES])
    def test_true_total_within_confidence_band(self, name, make):
        a, b = make()
        est = estimate_row_nnz(a, b, seed=0)
        truth = float(true_row_nnz(a, b).sum())
        assert est.total_nnz_lo <= truth <= est.total_nnz_hi
        # and the point estimate is a real improvement over the UB
        ub_total = float(est.ub.sum())
        assert est.total_nnz <= ub_total

    @pytest.mark.parametrize("name,make", MATRICES, ids=[n for n, _ in MATRICES])
    def test_full_sample_is_exact(self, name, make):
        a, b = make()
        est = estimate_row_nnz(a, b, sample_fraction=1.0, seed=0)
        truth = true_row_nnz(a, b)
        np.testing.assert_allclose(est.row_nnz, truth)
        np.testing.assert_allclose(est.row_nnz_lo, truth)
        np.testing.assert_allclose(est.row_nnz_hi, truth)
        assert est.sample_fraction <= 1.0

    def test_deterministic_for_fixed_seed(self):
        a = rmat(9, 8.0, seed=5)
        e1 = estimate_row_nnz(a, a, seed=42)
        e2 = estimate_row_nnz(a, a, seed=42)
        np.testing.assert_array_equal(e1.row_nnz, e2.row_nnz)
        np.testing.assert_array_equal(e1.sampled_rows, e2.sampled_rows)

    def test_empty_matrix(self):
        a = CSRMatrix.empty(8, 8)
        est = estimate_row_nnz(a, a, seed=0)
        assert est.total_nnz == 0.0
        assert est.total_nnz_hi == 0.0
        assert est.sampled_rows.size == 0

    def test_invalid_fraction_rejected(self):
        a = banded(20, 2, seed=0)
        with pytest.raises(ValueError, match="sample_fraction"):
            estimate_row_nnz(a, a, sample_fraction=0.0)
        with pytest.raises(ValueError, match="sample_fraction"):
            estimate_row_nnz(a, a, sample_fraction=1.5)


def hub_pair(seed):
    """Rectangular A != B with a few hub rows in each."""
    rng = np.random.default_rng(seed)
    a = (rng.random((300, 180)) < 0.03) * rng.random((300, 180))
    b = (rng.random((180, 240)) < 0.04) * rng.random((180, 240))
    a[rng.integers(300, size=3), :] = 1.0
    b[rng.integers(180, size=3), :] = 1.0
    return CSRMatrix.from_dense(a), CSRMatrix.from_dense(b)


@pytest.mark.skipif(not native_available(), reason="native kernel not built")
class TestCountKernel:
    """The sampled rows are counted by the native count pass when there
    is one and by ESC otherwise: the same integers, so the same estimate."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("fraction", [0.05, 1.0])
    def test_native_and_esc_counts_give_identical_estimates(
            self, seed, fraction, monkeypatch):
        import repro.spgemm.estimate as est_mod

        a, b = hub_pair(seed)
        counted = []
        real = est_mod.native_count_rows
        monkeypatch.setattr(
            est_mod, "native_count_rows",
            lambda a, b, rows: counted.append(rows.size) or real(a, b, rows))
        native = estimate_row_nnz(a, b, sample_fraction=fraction, seed=seed)
        assert counted == [native.sampled_rows.size]
        monkeypatch.setattr(est_mod, "native_available", lambda: False)
        esc = estimate_row_nnz(a, b, sample_fraction=fraction, seed=seed)
        assert len(counted) == 1  # the ESC leg never reached the kernel
        for field in ("row_nnz", "row_nnz_lo", "row_nnz_hi", "sampled_rows",
                      "ub"):
            np.testing.assert_array_equal(getattr(native, field),
                                          getattr(esc, field), err_msg=field)
        assert native.strata == esc.strata
