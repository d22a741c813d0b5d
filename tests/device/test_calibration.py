"""Tests for the per-kernel cost-model recalibration (fit_cost_model)."""

import numpy as np
import pytest

from repro.core.chunks import ChunkGrid, ChunkProfile, ChunkStats
from repro.device.kernels import (
    STAGES,
    CalibratedCostModel,
    StageFit,
    default_cost_model,
    fit_cost_model,
)
from repro.device.specs import v100_node


def synth_chunk(i, *, kernel="esc", flops, nnz_out, input_nnz, launches=1,
                coeffs=None, wall_factor=1.0):
    """A chunk whose stage times follow a known linear law."""
    if coeffs is None:
        coeffs = {
            "analysis": (2e-5, 1e-9),             # [1, input_nnz]
            "symbolic": (5e-5, 3e-9, 2e-9),       # [launches, flops, nnz]
            "numeric": (1e-5, 1.5e-9, 1e-9),
        }
    ana = coeffs["analysis"][0] + coeffs["analysis"][1] * input_nnz
    sym = (coeffs["symbolic"][0] * launches + coeffs["symbolic"][1] * flops
           + coeffs["symbolic"][2] * nnz_out)
    num = (coeffs["numeric"][0] * launches + coeffs["numeric"][1] * flops
           + coeffs["numeric"][2] * nnz_out)
    return ChunkStats(
        chunk_id=i, row_panel=i, col_panel=0, rows=10, width=10,
        flops=flops, a_panel_bytes=100, b_panel_bytes=100,
        input_nnz=input_nnz, nnz_out=nnz_out, output_bytes=nnz_out * 16,
        symbolic_kernels=launches, numeric_kernels=launches,
        measured_seconds=(ana + sym + num) * wall_factor, kernel=kernel,
        analysis_seconds=ana, symbolic_seconds=sym, numeric_seconds=num,
    )


def synth_profile(chunks):
    grid = ChunkGrid.regular(10 * len(chunks), 10, len(chunks), 1)
    return ChunkProfile(grid=grid, chunks=tuple(chunks))


WORKLOADS = [
    dict(flops=10_000, nnz_out=900, input_nnz=400),
    dict(flops=250_000, nnz_out=31_000, input_nnz=5_000),
    dict(flops=1_000_000, nnz_out=90_000, input_nnz=20_000, launches=3),
    dict(flops=40_000, nnz_out=3_500, input_nnz=1_200),
    dict(flops=600_000, nnz_out=55_000, input_nnz=9_000, launches=2),
    dict(flops=90_000, nnz_out=7_000, input_nnz=2_500),
]


class TestFitRecovery:
    def test_fit_recovers_synthetic_linear_stage_times(self):
        profile = synth_profile(
            [synth_chunk(i, **w) for i, w in enumerate(WORKLOADS)]
        )
        cost = fit_cost_model([profile], node=v100_node())
        for c in profile.chunks:
            modeled = cost.chunk_seconds(c)
            assert modeled == pytest.approx(c.measured_seconds, rel=1e-6)

    def test_fit_targets_measured_wall_clock(self):
        """Stage targets are rescaled to the chunk wall clock, so fitted
        totals track measured_seconds even when per-chunk dispatch
        overhead inflates it beyond the instrumented stage spans."""
        profile = synth_profile(
            [synth_chunk(i, wall_factor=1.25, **w)
             for i, w in enumerate(WORKLOADS)]
        )
        cost = fit_cost_model([profile], node=v100_node())
        for c in profile.chunks:
            assert cost.chunk_seconds(c) == pytest.approx(
                c.measured_seconds, rel=1e-6
            )

    def test_per_kernel_fits_are_independent(self):
        """A fast kernel must not poison a slow kernel's coefficients —
        the post-fast-kernels outlier class this PR fixes."""
        slow = [synth_chunk(i, kernel="esc", **w)
                for i, w in enumerate(WORKLOADS)]
        fast_coeffs = {
            "analysis": (2e-6, 1e-10),
            "symbolic": (5e-6, 2e-10, 1e-10),
            "numeric": (1e-6, 1e-10, 1e-10),
        }
        fast = [synth_chunk(10 + i, kernel="native", coeffs=fast_coeffs, **w)
                for i, w in enumerate(WORKLOADS)]
        cost = fit_cost_model([synth_profile(slow), synth_profile(fast)],
                              node=v100_node())
        assert cost.kernels() == ("esc", "native")
        for c in slow + fast:
            assert cost.chunk_seconds(c) == pytest.approx(
                c.measured_seconds, rel=1e-6
            )

    def test_unfitted_kernel_falls_back_to_analytic_base(self):
        profile = synth_profile(
            [synth_chunk(i, kernel="esc", **w) for i, w in enumerate(WORKLOADS)]
        )
        base = default_cost_model(v100_node())
        cost = fit_cost_model([profile], base=base)
        stranger = synth_chunk(99, kernel="native", **WORKLOADS[0])
        analytic = (
            base.t_analysis(stranger.input_nnz)
            + base.t_symbolic(stranger.flops, stranger.nnz_out,
                              stranger.symbolic_kernels)
            + base.t_numeric(stranger.flops, stranger.nnz_out,
                             stranger.numeric_kernels)
        )
        assert cost.chunk_seconds(stranger) == pytest.approx(analytic)

    def test_unexecuted_and_untimed_chunks_are_skipped(self):
        pending = ChunkStats(
            chunk_id=0, row_panel=0, col_panel=0, rows=10, width=10,
            flops=100, a_panel_bytes=1, b_panel_bytes=1, input_nnz=10,
        )
        profile = synth_profile([pending])
        cost = fit_cost_model([profile], node=v100_node())
        assert cost.fits == {}

    def test_delegates_everything_else_to_base(self):
        base = default_cost_model(v100_node())
        cost = CalibratedCostModel(base, {})
        assert cost.t_analysis(1000) == base.t_analysis(1000)
        assert cost.node is base.node

    def test_negative_coefficients_pruned(self):
        """The constrained solve never returns a fit that predicts
        negative seconds for a larger workload."""
        profile = synth_profile(
            [synth_chunk(i, **w) for i, w in enumerate(WORKLOADS)]
        )
        cost = fit_cost_model([profile], node=v100_node())
        for fit in cost.fits.values():
            assert all(w >= 0 for w in fit.coeffs)


class TestModelErrorIntegration:
    def test_calibrated_fit_beats_analytic_on_real_profile(self):
        """In-sample recalibration drives the model-error report below
        the 0.25 gate with zero outliers — the acceptance criterion."""
        from repro.core.executor import execute_chunk_grid
        from repro.core.planner import plan_grid
        from repro.metrics.modelerror import model_error_report
        from repro.sparse.generators import rmat

        a = rmat(11, 8.0, seed=3)
        node = v100_node(64 << 20)
        grid = plan_grid(a, a, node).grid
        # warm run first: the cold run absorbs one-time process costs
        execute_chunk_grid(a, a, grid, keep_outputs=False, name="warm")
        profile, _ = execute_chunk_grid(a, a, grid, keep_outputs=False, name="x")
        cost = fit_cost_model([profile], node=v100_node())
        err = model_error_report(profile, cost)
        assert err.mean_abs_rel_error < 0.25
        assert err.outliers == 0
