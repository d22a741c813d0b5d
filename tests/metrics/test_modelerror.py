"""Tests for model-vs-measured chunk-time comparison."""

import numpy as np
import pytest

from repro.core.chunks import ChunkGrid
from repro.core.executor import execute_chunk_grid
from repro.device.kernels import default_cost_model
from repro.device.specs import v100_node
from repro.metrics import (
    measured_chunk_seconds,
    model_error_report,
    modeled_chunk_seconds,
)
from repro.sparse.generators import rmat


@pytest.fixture(scope="module")
def measured_profile():
    a = rmat(9, 8.0, seed=42)
    grid = ChunkGrid.regular(a.n_rows, a.n_cols, 2, 2)
    profile, _ = execute_chunk_grid(a, a, grid, name="me")
    return profile


@pytest.fixture(scope="module")
def cost():
    return default_cost_model(v100_node())


class TestSeries:
    def test_modeled_positive_per_chunk(self, measured_profile, cost):
        modeled = modeled_chunk_seconds(measured_profile, cost)
        assert modeled.shape == (len(measured_profile.chunks),)
        assert np.all(modeled > 0)

    def test_measured_matches_profile(self, measured_profile):
        measured = measured_chunk_seconds(measured_profile)
        np.testing.assert_array_equal(
            measured, [c.measured_seconds for c in measured_profile.chunks]
        )

    def test_unmeasured_profile_rejected(self, measured_profile, cost):
        from dataclasses import replace

        stale = replace(
            measured_profile,
            chunks=tuple(
                replace(c, measured_seconds=-1.0) for c in measured_profile.chunks
            ),
        )
        with pytest.raises(ValueError, match="no measured"):
            measured_chunk_seconds(stale)


class TestReport:
    def test_report_fields(self, measured_profile, cost):
        rep = model_error_report(measured_profile, cost)
        assert rep.scale > 0
        assert rep.mean_abs_rel_error >= 0
        assert rep.max_abs_rel_error >= rep.mean_abs_rel_error
        assert -1.0 <= rep.correlation <= 1.0
        # the p95 sits between the median and the max, and the outlier
        # count (chunks with rel error > 50%) is bounded by the chunks
        assert rep.median_abs_rel_error <= rep.p95_abs_rel_error
        assert rep.p95_abs_rel_error <= rep.max_abs_rel_error
        assert 0 <= rep.outliers <= len(measured_profile.chunks)

    def test_outlier_count_matches_threshold(self, measured_profile, cost):
        import numpy as np

        from repro.metrics.modelerror import OUTLIER_REL_ERROR

        rep = model_error_report(measured_profile, cost)
        modeled = modeled_chunk_seconds(measured_profile, cost)
        measured = measured_chunk_seconds(measured_profile)
        rescaled = modeled * (measured.sum() / modeled.sum())
        rel = np.abs(rescaled - measured) / np.maximum(measured, 1e-12)
        assert rep.outliers == int((rel > OUTLIER_REL_ERROR).sum())

    def test_errors_are_fractions(self, measured_profile, cost):
        """All *_abs_rel_error fields are dimensionless fractions (1.0 =
        100%), never pre-multiplied percentages: the median — robust to
        near-zero measured times — sits within [0, max]."""
        rep = model_error_report(measured_profile, cost)
        assert 0.0 <= rep.median_abs_rel_error <= rep.max_abs_rel_error
        # a doubled measurement scale must leave the (relative) errors
        # untouched — they carry no seconds unit
        from dataclasses import replace

        scaled = replace(
            measured_profile,
            chunks=tuple(
                replace(c, measured_seconds=c.measured_seconds * 2.0)
                for c in measured_profile.chunks
            ),
        )
        rep2 = model_error_report(scaled, cost)
        assert rep2.mean_abs_rel_error == pytest.approx(rep.mean_abs_rel_error)
        assert rep2.median_abs_rel_error == pytest.approx(rep.median_abs_rel_error)
        assert rep2.scale == pytest.approx(rep.scale * 2.0)

    def test_perfect_model_has_zero_error(self, measured_profile, cost):
        """Feed the model's own (scaled) predictions back as measurements."""
        from dataclasses import replace

        modeled = modeled_chunk_seconds(measured_profile, cost)
        fake = replace(
            measured_profile,
            chunks=tuple(
                replace(c, measured_seconds=float(m) * 3.0)
                for c, m in zip(measured_profile.chunks, modeled)
            ),
        )
        rep = model_error_report(fake, cost)
        assert rep.scale == pytest.approx(3.0)
        assert rep.mean_abs_rel_error == pytest.approx(0.0, abs=1e-9)
        assert rep.median_abs_rel_error == pytest.approx(0.0, abs=1e-9)
        assert rep.correlation == pytest.approx(1.0)
