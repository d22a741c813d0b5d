"""Tests for the CSR matrix substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse.formats import CSRMatrix, INDEX_DTYPE, VALUE_DTYPE


class TestConstruction:
    def test_from_dense_roundtrip(self, small_dense):
        csr = CSRMatrix.from_dense(small_dense)
        assert csr.shape == small_dense.shape
        assert csr.nnz == np.count_nonzero(small_dense)
        np.testing.assert_array_equal(csr.to_dense(), small_dense)

    def test_empty(self):
        m = CSRMatrix.empty(3, 5)
        assert m.shape == (3, 5)
        assert m.nnz == 0
        np.testing.assert_array_equal(m.to_dense(), np.zeros((3, 5)))

    def test_zero_dimensions(self):
        m = CSRMatrix.empty(0, 0)
        assert m.nnz == 0
        assert m.density() == 0.0

    def test_identity(self):
        m = CSRMatrix.identity(4)
        np.testing.assert_array_equal(m.to_dense(), np.eye(4))

    def test_dtypes_coerced(self):
        m = CSRMatrix(2, 3, [0, 1, 2], np.array([0, 2], dtype=np.int32),
                      np.array([1, 2], dtype=np.float32))
        assert m.row_offsets.dtype == INDEX_DTYPE
        assert m.col_ids.dtype == INDEX_DTYPE
        assert m.data.dtype == VALUE_DTYPE

    def test_from_dense_rejects_1d(self):
        with pytest.raises(ValueError, match="2-D"):
            CSRMatrix.from_dense(np.arange(5.0))

    def test_scipy_roundtrip(self, small_csr):
        back = CSRMatrix.from_scipy(small_csr.to_scipy())
        assert back == small_csr

    def test_sort_rows_flag(self):
        m = CSRMatrix(1, 4, [0, 3], [2, 0, 3], [1.0, 2.0, 3.0], sort_rows=True)
        np.testing.assert_array_equal(m.col_ids, [0, 2, 3])
        np.testing.assert_array_equal(m.data, [2.0, 1.0, 3.0])

    def test_copy_is_independent(self, small_csr):
        c = small_csr.copy()
        c.data[0] = 999.0
        assert small_csr.data[0] != 999.0


class TestValidation:
    def test_bad_row_offsets_length(self):
        with pytest.raises(ValueError, match="row_offsets"):
            CSRMatrix(3, 3, [0, 1], [0], [1.0])

    def test_row_offsets_must_start_at_zero(self):
        with pytest.raises(ValueError, match="start at 0"):
            CSRMatrix(1, 3, [1, 1], [], [])

    def test_row_offsets_must_end_at_nnz(self):
        with pytest.raises(ValueError, match="end at nnz"):
            CSRMatrix(1, 3, [0, 2], [0], [1.0])

    def test_row_offsets_monotone(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            CSRMatrix(3, 3, [0, 2, 1, 2], [0, 1], [1.0, 2.0])

    def test_col_out_of_range(self):
        with pytest.raises(ValueError, match="col_ids out of range"):
            CSRMatrix(1, 2, [0, 1], [5], [1.0])

    def test_negative_col(self):
        with pytest.raises(ValueError, match="col_ids out of range"):
            CSRMatrix(1, 2, [0, 1], [-1], [1.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="lengths differ"):
            CSRMatrix(1, 3, [0, 2], [0, 1], [1.0])

    def test_negative_dims(self):
        with pytest.raises(ValueError):
            CSRMatrix(-1, 3, [0], [], [])

    def test_check_false_skips_validation(self):
        # deliberately broken matrix accepted when check=False
        m = CSRMatrix(1, 2, [0, 1], [5], [1.0], check=False)
        assert m.col_ids[0] == 5


class TestAccessors:
    def test_row_view(self, small_csr):
        cols, vals = small_csr.row(2)
        np.testing.assert_array_equal(cols, [0, 1, 3])
        np.testing.assert_array_equal(vals, [3.0, 4.0, 5.0])

    def test_empty_row(self, small_csr):
        cols, vals = small_csr.row(1)
        assert cols.size == 0 and vals.size == 0

    def test_row_out_of_range(self, small_csr):
        with pytest.raises(IndexError):
            small_csr.row(4)
        with pytest.raises(IndexError):
            small_csr.row(-1)

    def test_iter_rows(self, small_csr, small_dense):
        for r, cols, vals in small_csr.iter_rows():
            dense_row = small_dense[r]
            np.testing.assert_array_equal(cols, np.nonzero(dense_row)[0])
            np.testing.assert_array_equal(vals, dense_row[dense_row != 0])

    def test_row_nnz(self, small_csr):
        np.testing.assert_array_equal(small_csr.row_nnz(), [2, 0, 3, 2])

    def test_expand_row_ids(self, small_csr):
        np.testing.assert_array_equal(
            small_csr.expand_row_ids(), [0, 0, 2, 2, 2, 3, 3]
        )

    def test_nbytes_counts_all_arrays(self, small_csr):
        expected = (
            small_csr.row_offsets.nbytes
            + small_csr.col_ids.nbytes
            + small_csr.data.nbytes
        )
        assert small_csr.nbytes() == expected

    def test_density(self, small_csr):
        assert small_csr.density() == pytest.approx(7 / 16)

    def test_has_sorted_rows(self, small_csr):
        assert small_csr.has_sorted_rows()
        unsorted = CSRMatrix(1, 4, [0, 2], [3, 1], [1.0, 2.0], check=False)
        assert not unsorted.has_sorted_rows()

    def test_repr(self, small_csr):
        s = repr(small_csr)
        assert "4x4" in s and "nnz=7" in s


class TestRowSlice:
    def test_row_slice_matches_dense(self, small_csr, small_dense):
        panel = small_csr.row_slice(1, 3)
        np.testing.assert_array_equal(panel.to_dense(), small_dense[1:3])

    def test_full_slice(self, small_csr):
        assert small_csr.row_slice(0, 4) == small_csr

    def test_empty_slice(self, small_csr):
        panel = small_csr.row_slice(2, 2)
        assert panel.n_rows == 0 and panel.nnz == 0

    def test_slice_is_copy(self, small_csr):
        panel = small_csr.row_slice(2, 4)
        panel.data[0] = -1.0
        assert small_csr.data[2] != -1.0

    def test_invalid_slice(self, small_csr):
        with pytest.raises(IndexError):
            small_csr.row_slice(3, 1)
        with pytest.raises(IndexError):
            small_csr.row_slice(0, 10)


class TestEquality:
    def test_eq_and_allclose(self, small_csr):
        other = small_csr.copy()
        assert small_csr == other
        assert small_csr.allclose(other)
        other.data[0] += 1e-15
        assert small_csr.allclose(other)
        assert small_csr != other

    def test_shape_mismatch(self, small_csr):
        assert not small_csr.allclose(CSRMatrix.empty(4, 5))

    def test_eq_non_matrix(self, small_csr):
        assert small_csr != "nope"

    def test_unhashable(self, small_csr):
        with pytest.raises(TypeError):
            hash(small_csr)


@st.composite
def dense_matrices(draw):
    n_rows = draw(st.integers(1, 8))
    n_cols = draw(st.integers(1, 8))
    values = draw(
        st.lists(
            st.floats(-10, 10).map(lambda v: 0.0 if abs(v) < 2 else v),
            min_size=n_rows * n_cols,
            max_size=n_rows * n_cols,
        )
    )
    return np.asarray(values).reshape(n_rows, n_cols)


class TestProperties:
    @given(dense=dense_matrices())
    @settings(max_examples=60, deadline=None)
    def test_dense_roundtrip(self, dense):
        csr = CSRMatrix.from_dense(dense)
        csr.validate()
        assert csr.has_sorted_rows()
        np.testing.assert_array_equal(csr.to_dense(), dense)

    @given(dense=dense_matrices())
    @settings(max_examples=40, deadline=None)
    def test_scipy_agrees(self, dense):
        csr = CSRMatrix.from_dense(dense)
        sp = csr.to_scipy()
        np.testing.assert_array_equal(np.asarray(sp.todense()), dense)


class TestMatmulOperator:
    def test_operator_matches_scipy(self, small_csr):
        from tests.reference import spgemm_scipy
        from repro.sparse.ops import drop_explicit_zeros

        product = small_csr @ small_csr
        assert drop_explicit_zeros(product).allclose(spgemm_scipy(small_csr, small_csr))

    def test_operator_rejects_non_matrix(self, small_csr):
        import pytest

        with pytest.raises(TypeError):
            small_csr @ 3.0
