"""Tests for host-side row grouping."""

import numpy as np

from repro.spgemm.kernels import KernelSpec, plan_groups

ESC = KernelSpec("esc")


class TestGroupRows:
    def test_every_active_row_covered_once(self):
        work = np.array([0, 5, 900, 0, 12, 3, 450])
        grouping = plan_groups(work, ESC)
        coverage = grouping.coverage()
        assert np.all(coverage[work > 0] >= 0)
        assert np.all(coverage[work == 0] == -1)

    def test_num_kernels(self):
        assert plan_groups(np.array([0, 0, 0]), ESC).num_kernels() == 0
        assert plan_groups(np.array([5, 5000]), ESC).num_kernels() == 1

    def test_len_and_iter(self):
        grouping = plan_groups(np.array([2, 2000]), ESC)
        assert len(grouping) == len(list(grouping))
