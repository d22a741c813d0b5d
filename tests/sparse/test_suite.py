"""Tests for the nine-matrix evaluation suite (Table II analogs)."""

import pytest

from repro.sparse.suite import SUITE, build_matrix, matrix_features, suite_names


class TestRegistry:
    def test_nine_matrices(self):
        assert len(SUITE) == 9
        assert len(suite_names()) == 9

    def test_unique_names_and_abbrs(self):
        names = [e.name for e in SUITE]
        abbrs = [e.abbr for e in SUITE]
        assert len(set(names)) == 9
        assert len(set(abbrs)) == 9

    def test_paper_row_order(self):
        assert suite_names()[0] == "ljournal-2008"
        assert suite_names()[-1] == "wikipedia-20060925"

    def test_lookup_by_name_or_abbr(self):
        by_name = build_matrix("stokes")
        by_abbr = build_matrix("stokes")
        assert by_name == by_abbr

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown suite matrix"):
            build_matrix("no-such-matrix")

    def test_families(self):
        fams = {e.family for e in SUITE}
        assert fams == {"social", "wiki", "web", "mesh"}


class TestMatrices:
    @pytest.mark.parametrize("entry", SUITE, ids=lambda e: e.abbr)
    def test_valid_and_square(self, entry):
        m = entry.build()
        m.validate()
        assert m.n_rows == m.n_cols
        assert m.nnz > 0

    def test_deterministic(self):
        assert build_matrix("lj2008") == build_matrix("lj2008")


class TestFeatures:
    @pytest.fixture(scope="class")
    def features(self):
        # the mesh family is cheap to feature-extract; one social matrix
        # covers the expensive path
        return {
            abbr: matrix_features(abbr)
            for abbr in ("stokes", "nlp", "uk-2002", "wiki0206", "lj2008")
        }

    def test_feature_sanity(self, features):
        for f in features.values():
            assert f.nnz_out >= f.nnz // 2
            assert f.flops >= 2 * f.nnz_out or f.compression_ratio >= 2.0
            assert f.compression_ratio >= 2.0

    def test_nnz_out_matches_oracle(self, features):
        # the pipeline's count against the expand + lexsort oracle
        from tests.reference import symbolic_sort

        a = build_matrix("stokes")
        assert features["stokes"].nnz_out == int(symbolic_sort(a, a).sum())

    def test_compression_ranking_matches_paper(self, features):
        """The paper's ordering: social < wiki < stokes < uk-2002 < nlp."""
        assert (
            features["lj2008"].compression_ratio
            < features["wiki0206"].compression_ratio
            < features["stokes"].compression_ratio
            < features["uk-2002"].compression_ratio
            < features["nlp"].compression_ratio
        )

    def test_mesh_regular_social_skewed(self, features):
        assert features["nlp"].gini < 0.1
        assert features["lj2008"].gini > 0.5
