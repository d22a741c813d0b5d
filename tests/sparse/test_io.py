"""Tests for MatrixMarket and npz I/O."""

import numpy as np
import pytest

from repro.sparse.formats import CSRMatrix
from repro.sparse.generators import random_csr
from repro.sparse.io import load_npz, read_matrix_market, save_npz, write_matrix_market


class TestMatrixMarket:
    def test_roundtrip(self, tmp_path, small_csr):
        path = tmp_path / "m.mtx"
        write_matrix_market(path, small_csr, comment="test matrix")
        back = read_matrix_market(path)
        assert back == small_csr

    def test_roundtrip_random(self, tmp_path):
        m = random_csr(20, 30, 80, seed=5)
        path = tmp_path / "r.mtx"
        write_matrix_market(path, m)
        assert read_matrix_market(path).allclose(m)

    def test_pattern_field(self, tmp_path):
        path = tmp_path / "p.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate pattern general\n"
            "2 3 2\n1 1\n2 3\n"
        )
        m = read_matrix_market(path)
        np.testing.assert_array_equal(
            m.to_dense(), [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
        )

    def test_symmetric(self, tmp_path):
        path = tmp_path / "s.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "% lower triangle stored\n"
            "2 2 2\n1 1 5.0\n2 1 3.0\n"
        )
        m = read_matrix_market(path)
        np.testing.assert_array_equal(m.to_dense(), [[5.0, 3.0], [3.0, 0.0]])

    def test_skew_symmetric(self, tmp_path):
        path = tmp_path / "k.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real skew-symmetric\n"
            "2 2 1\n2 1 3.0\n"
        )
        m = read_matrix_market(path)
        np.testing.assert_array_equal(m.to_dense(), [[0.0, -3.0], [3.0, 0.0]])

    def test_integer_field(self, tmp_path):
        path = tmp_path / "i.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate integer general\n"
            "1 2 1\n1 2 7\n"
        )
        assert read_matrix_market(path).data[0] == 7.0

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("not a matrix\n1 1 0\n")
        with pytest.raises(ValueError, match="header"):
            read_matrix_market(path)

    def test_unsupported_field(self, tmp_path):
        path = tmp_path / "c.mtx"
        path.write_text("%%MatrixMarket matrix coordinate complex general\n1 1 0\n")
        with pytest.raises(ValueError, match="field"):
            read_matrix_market(path)

    def test_unsupported_format(self, tmp_path):
        path = tmp_path / "a.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n1 1\n")
        with pytest.raises(ValueError, match="coordinate"):
            read_matrix_market(path)

    def test_comments_skipped(self, tmp_path):
        path = tmp_path / "c.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "% comment one\n% comment two\n"
            "1 1 1\n1 1 2.5\n"
        )
        assert read_matrix_market(path).data[0] == 2.5


class TestNpz:
    def test_roundtrip(self, tmp_path, small_csr):
        path = tmp_path / "m.npz"
        save_npz(path, small_csr)
        assert load_npz(path) == small_csr

    def test_roundtrip_empty(self, tmp_path):
        path = tmp_path / "e.npz"
        save_npz(path, CSRMatrix.empty(5, 7))
        back = load_npz(path)
        assert back.shape == (5, 7) and back.nnz == 0

    def test_unsorted_rows_and_float_indices_are_refused(self, tmp_path):
        # in range, so the CSR invariants hold; the loader is the door
        unsorted = CSRMatrix(1, 4, [0, 2], [3, 0], [1.0, 2.0])
        path = tmp_path / "u.npz"
        save_npz(path, unsorted)
        with pytest.raises(ValueError, match="strictly increasing"):
            load_npz(path)
        np.savez(path, shape=np.array([1, 4]), row_offsets=np.array([0, 2]),
                 col_ids=np.array([0.9, 1.2]), data=np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="col_ids must be a flat list of integers"):
            load_npz(path)


class TestMatrixMarketRanges:
    @pytest.mark.parametrize("entry", ["3 1 1.0", "1 5 1.0", "0 1 1.0", "1 0 1.0"])
    def test_out_of_range_entries_are_refused(self, tmp_path, entry):
        path = tmp_path / "r.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        f"2 4 1\n{entry}\n")
        with pytest.raises(ValueError, match="out of range"):
            read_matrix_market(path)

    def test_unsorted_duplicated_entries_come_out_canonical(self, tmp_path):
        path = tmp_path / "d.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "1 4 3\n1 4 1.0\n1 1 2.0\n1 4 0.5\n")
        m = read_matrix_market(path)
        assert m.has_sorted_rows()
        assert m == CSRMatrix(1, 4, [0, 2], [0, 3], [2.0, 1.5])
