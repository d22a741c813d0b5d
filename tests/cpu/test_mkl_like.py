"""Tests for the MKL-like 32-bit-index SpGEMM (the paper's rejected baseline)."""

import numpy as np
import pytest

import repro.cpu.mkl_like as mkl
from repro.sparse.generators import random_csr
from tests.conftest import assert_equals_scipy_product


class TestCorrectness:
    def test_matches_scipy(self, sample_matrix):
        c = mkl.spgemm_mkl_like(sample_matrix, sample_matrix)
        assert_equals_scipy_product(c, sample_matrix, sample_matrix)

    def test_rectangular(self):
        a = random_csr(12, 9, 30, seed=71)
        b = random_csr(9, 15, 28, seed=72)
        assert_equals_scipy_product(mkl.spgemm_mkl_like(a, b), a, b)

    def test_dimension_mismatch(self):
        a = random_csr(4, 5, 8, seed=1)
        with pytest.raises(ValueError, match="mismatch"):
            mkl.spgemm_mkl_like(a, a)


class TestInt32Limitation:
    """The paper: 'MKL Library only supports integer as the data type for
    the arrays row_offsets and col_ids, it can not handle large matrices'."""

    def test_large_upper_bound_rejected(self, sample_matrix, monkeypatch):
        # shrink the representable range so the suite-sized matrix "overflows"
        monkeypatch.setattr(mkl, "INT32_MAX", 10)
        with pytest.raises(mkl.IndexWidthError, match="INT32_MAX"):
            mkl.spgemm_mkl_like(sample_matrix, sample_matrix)

    def test_error_is_raised_before_compute(self, sample_matrix, monkeypatch):
        calls = []
        monkeypatch.setattr(mkl, "INT32_MAX", 10)
        monkeypatch.setattr(
            mkl, "spgemm_twophase",
            lambda *a, **k: calls.append(1),
        )
        with pytest.raises(mkl.IndexWidthError):
            mkl.spgemm_mkl_like(sample_matrix, sample_matrix)
        assert calls == []  # never reached the numeric work

    def test_error_is_overflow_error(self):
        assert issubclass(mkl.IndexWidthError, OverflowError)

    def test_within_range_accepted(self):
        a = random_csr(20, 20, 60, seed=73)
        c = mkl.spgemm_mkl_like(a, a)
        assert c.nnz > 0
