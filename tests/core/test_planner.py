"""Tests for panel-count planning."""

import re

import pytest

from repro.core.chunks import device_bytes_of
from repro.core.planner import (
    plan_grid,
    resident_input_bytes,
    working_set_bytes,
)
from repro.device.specs import v100_node
from repro.sparse.generators import banded, rmat


@pytest.fixture(scope="module")
def matrix():
    return rmat(10, 8.0, seed=91)


class TestFootprints:
    def test_chunk_footprint_grows_with_flops(self):
        assert device_bytes_of(100, 1_000_000) > device_bytes_of(100, 500_000)

    def test_resident_inputs_grow_with_panels(self, matrix):
        assert resident_input_bytes(matrix, matrix, 8) > resident_input_bytes(matrix, matrix, 1)

    def test_working_set_exceeds_output(self):
        ws = working_set_bytes(1000, 5000, 200_000, 60_000)
        assert ws > 60_000 * 16


class TestPlanGrid:
    def test_plan_fits(self, matrix):
        node = v100_node(64 << 20)
        report = plan_grid(matrix, matrix, node)
        assert report.fits
        assert report.worst_chunk_bytes <= report.budget_bytes

    def test_more_memory_coarser_grid(self, matrix):
        small = plan_grid(matrix, matrix, v100_node(48 << 20))
        large = plan_grid(matrix, matrix, v100_node(1 << 30))
        assert large.grid.num_chunks <= small.grid.num_chunks

    def test_huge_memory_single_chunk(self, matrix):
        report = plan_grid(matrix, matrix, v100_node(8 << 30))
        assert report.grid.num_chunks == 1

    def test_too_small_device_raises(self, matrix):
        with pytest.raises(ValueError, match="no grid"):
            plan_grid(matrix, matrix, v100_node(1 << 20), max_panels=4)

    def test_banded_prefers_valid_rectangles(self):
        m = banded(2000, 6, seed=1, fill=0.8)
        report = plan_grid(m, m, v100_node(8 << 20))
        g = report.grid
        # aspect-ratio constraint holds
        assert max(g.num_row_panels, g.num_col_panels) <= 4 * min(
            g.num_row_panels, g.num_col_panels
        )

    def test_bad_safety(self, matrix):
        with pytest.raises(ValueError):
            plan_grid(matrix, matrix, v100_node(), safety=0.0)

    @pytest.mark.parametrize("kwargs", [
        dict(buffers=0), dict(buffers=-3), dict(max_panels=0)], ids=str)
    def test_nonsense_buffers_and_max_panels_are_refused(self, matrix, kwargs):
        """Zero resident chunks is not a single-buffered plan, and no
        panels is not "nothing fits"."""
        (name,) = kwargs
        with pytest.raises(ValueError, match=f"{name} must be >= 1, got"):
            plan_grid(matrix, matrix, v100_node(64 << 20), **kwargs)

    def test_no_fit_names_the_last_shape_not_its_boundaries(self, matrix):
        with pytest.raises(ValueError) as refusal:
            plan_grid(matrix, matrix, v100_node(1 << 20), max_panels=4)
        assert re.fullmatch(
            r"no grid up to 4x4 fits the device budget; last candidate 4x4: "
            r"worst chunk \d+ bytes, budget \d+ bytes", str(refusal.value))

    def test_buffers_halve_budget(self, matrix):
        one = plan_grid(matrix, matrix, v100_node(64 << 20), buffers=1)
        two = plan_grid(matrix, matrix, v100_node(64 << 20), buffers=2)
        assert two.budget_bytes <= one.budget_bytes
        assert two.grid.num_chunks >= one.grid.num_chunks
