"""Tests for host-side row grouping."""

import numpy as np
import pytest

from repro.spgemm.groups import MIN_BUCKET, RowGrouping, group_rows


class TestGroupRows:
    def test_every_active_row_covered_once(self):
        work = np.array([0, 5, 900, 0, 12, 3, 450])
        grouping = group_rows(work, out_width=1000)
        coverage = grouping.coverage()
        assert np.all(coverage[work > 0] >= 0)
        assert np.all(coverage[work == 0] == -1)

    def test_dense_threshold(self):
        work = np.array([100, 5])
        grouping = group_rows(work, out_width=160)
        methods = {int(r): g.method for g in grouping for r in g.rows}
        assert methods[0] == "dense"   # 100 >= 160/16 = 10
        assert methods[1] == "hash"    # 5 < 10

    def test_hash_buckets_power_of_two(self):
        work = np.array([3, 17, 250, 63])
        grouping = group_rows(work, out_width=10_000)
        for g in grouping:
            if g.method == "hash":
                assert g.bucket >= MIN_BUCKET
                assert g.bucket & (g.bucket - 1) == 0

    def test_bucket_bounds_work(self):
        work = np.array([100])
        grouping = group_rows(work, out_width=100_000)
        (g,) = list(grouping)
        assert g.bucket >= 100

    def test_rows_with_same_bucket_grouped_together(self):
        work = np.array([17, 20, 30, 31])  # all bucket 32
        grouping = group_rows(work, out_width=10_000)
        hash_groups = [g for g in grouping if g.method == "hash"]
        assert len(hash_groups) == 1
        assert len(hash_groups[0]) == 4

    def test_num_kernels(self):
        work = np.array([0, 0, 0])
        assert group_rows(work, out_width=10).num_kernels() == 0
        work = np.array([5, 5000])
        grouping = group_rows(work, out_width=1000)
        assert grouping.num_kernels() == 2  # one hash, one dense

    def test_negative_work_rejected(self):
        with pytest.raises(ValueError):
            group_rows(np.array([-1]), out_width=10)

    def test_zero_width_output(self):
        grouping = group_rows(np.array([5, 3]), out_width=0)
        # cutoff clamps at 1 product; all rows become dense
        assert all(g.method == "dense" for g in grouping)

    def test_len_and_iter(self):
        grouping = group_rows(np.array([2, 2000]), out_width=1000)
        assert len(grouping) == len(list(grouping))
