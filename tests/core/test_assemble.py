"""Tests for chunk assembly."""

import pytest

from repro.core.assemble import assemble_chunks
from repro.sparse.formats import CSRMatrix
from tests.reference import spgemm_scipy
from repro.sparse.ops import drop_explicit_zeros


class TestAssemble:
    def test_reconstructs_full_product(self, workload):
        a, _, _, outputs = workload
        c = assemble_chunks(outputs)
        assert drop_explicit_zeros(c).allclose(spgemm_scipy(a, a))

    def test_single_chunk(self, workload):
        _, _, _, outputs = workload
        single = assemble_chunks([[outputs[0][0]]])
        assert single == outputs[0][0]

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="no chunks"):
            assemble_chunks([])
        with pytest.raises(ValueError, match="no chunks"):
            assemble_chunks([[]])

    def test_ragged_grid_rejected(self, workload):
        _, _, _, outputs = workload
        ragged = [outputs[0], outputs[1][:2]]
        with pytest.raises(ValueError, match="ragged"):
            assemble_chunks(ragged)

    def test_inconsistent_widths_rejected(self, workload):
        _, _, _, outputs = workload
        bad = [list(outputs[0]), list(outputs[1])]
        wrong = CSRMatrix.empty(outputs[1][0].n_rows, outputs[1][0].n_cols + 1)
        bad[1][0] = wrong
        with pytest.raises(ValueError, match="widths"):
            assemble_chunks(bad)
