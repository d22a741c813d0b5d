"""Tests for panel partitioning (paper Section III.D)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.spgemm.native as native_mod
from repro.sparse.formats import CSRMatrix
from repro.sparse.generators import banded, random_csr, rmat
from repro.sparse.ops import extract_columns, hstack, vstack
from repro.sparse.partition import (
    build_col_offsets,
    panel_boundaries,
    partition_columns,
    partition_rows,
)
from repro.spgemm.native import (
    native_available,
    native_build_error,
    native_col_panels,
)
from tests.sparse.naive_partition import partition_columns_naive

needs_native = pytest.mark.skipif(
    not native_available(),
    reason=f"native kernel unavailable: {native_build_error()}",
)


class TestBoundaries:
    def test_even_split(self):
        np.testing.assert_array_equal(panel_boundaries(10, 5), [0, 2, 4, 6, 8, 10])

    def test_remainder_goes_first(self):
        np.testing.assert_array_equal(panel_boundaries(10, 3), [0, 4, 7, 10])

    def test_single_panel(self):
        np.testing.assert_array_equal(panel_boundaries(7, 1), [0, 7])

    def test_too_many_panels(self):
        with pytest.raises(ValueError, match="cannot split"):
            panel_boundaries(3, 5)

    def test_nonpositive(self):
        with pytest.raises(ValueError):
            panel_boundaries(3, 0)


class TestRowPanels:
    def test_roundtrip(self, sample_matrix):
        ps = partition_rows(sample_matrix, 4)
        assert len(ps) == 4
        assert vstack(list(ps)) == sample_matrix

    def test_sizes(self, sample_matrix):
        ps = partition_rows(sample_matrix, 3)
        assert [p.n_rows for p in ps] == np.diff(
            panel_boundaries(sample_matrix.n_rows, 3)).tolist()

    def test_axis_label(self, sample_matrix):
        """The axis cut shows in the panels' shapes: row panels keep
        every column of A."""
        assert [p.n_cols for p in partition_rows(sample_matrix, 2)] == [
            sample_matrix.n_cols] * 2

    def test_panels_are_views_of_a(self, sample_matrix):
        """Each panel shares A's element arrays; only its rebased
        ``row_offsets`` is new.  ``row_slice`` still copies."""
        bounds = panel_boundaries(sample_matrix.n_rows, 3)
        ps = partition_rows(sample_matrix, bounds)
        for panel, lo, hi in zip(ps, bounds[:-1], bounds[1:]):
            assert panel == sample_matrix.row_slice(int(lo), int(hi))
            if panel.nnz:
                assert np.shares_memory(panel.col_ids, sample_matrix.col_ids)
                assert np.shares_memory(panel.data, sample_matrix.data)
            assert not np.shares_memory(panel.row_offsets,
                                        sample_matrix.row_offsets)
            copy = sample_matrix.row_slice(int(lo), int(hi))
            assert not np.shares_memory(copy.col_ids, sample_matrix.col_ids)
            assert not np.shares_memory(copy.data, sample_matrix.data)


class TestColumnPanels:
    @pytest.mark.parametrize("num_panels", [1, 2, 3, 7])
    def test_optimized_matches_reference(self, sample_matrix, num_panels):
        ps = partition_columns(sample_matrix, num_panels)
        bounds = panel_boundaries(sample_matrix.n_cols, num_panels)
        for i, panel in enumerate(ps):
            ref = extract_columns(sample_matrix, int(bounds[i]), int(bounds[i + 1]))
            assert panel == ref

    @pytest.mark.parametrize("num_panels", [1, 3, 5])
    def test_naive_matches_optimized(self, sample_matrix, num_panels):
        fast = partition_columns(sample_matrix, num_panels)
        slow = partition_columns_naive(sample_matrix, num_panels)
        assert len(fast) == len(slow)
        for f, s in zip(fast, slow):
            assert f == s

    def test_hstack_roundtrip(self, sample_matrix):
        ps = partition_columns(sample_matrix, 5)
        assert hstack(list(ps)) == sample_matrix

    def test_empty_matrix(self):
        ps = partition_columns(CSRMatrix.empty(4, 8), 2)
        assert all(p.nnz == 0 for p in ps)


class TestColOffsets:
    def test_split_matrix_shape(self, sample_matrix):
        bounds = panel_boundaries(sample_matrix.n_cols, 4)
        splits = build_col_offsets(sample_matrix, bounds)
        assert splits.shape == (sample_matrix.n_rows, 5)

    def test_splits_bracket_rows(self, sample_matrix):
        bounds = panel_boundaries(sample_matrix.n_cols, 4)
        splits = build_col_offsets(sample_matrix, bounds)
        np.testing.assert_array_equal(splits[:, 0], sample_matrix.row_offsets[:-1])
        np.testing.assert_array_equal(splits[:, -1], sample_matrix.row_offsets[1:])
        assert np.all(np.diff(splits, axis=1) >= 0)

    def test_splits_classify_correctly(self, sample_matrix):
        bounds = panel_boundaries(sample_matrix.n_cols, 3)
        splits = build_col_offsets(sample_matrix, bounds)
        for r in range(sample_matrix.n_rows):
            cols, _ = sample_matrix.row(r)
            for p in range(3):
                lo = splits[r, p] - sample_matrix.row_offsets[r]
                hi = splits[r, p + 1] - sample_matrix.row_offsets[r]
                seg = cols[lo:hi]
                assert np.all(seg >= bounds[p]) and np.all(seg < bounds[p + 1])

    def test_bad_boundaries(self, sample_matrix):
        with pytest.raises(ValueError, match="boundaries"):
            build_col_offsets(sample_matrix, [1, sample_matrix.n_cols])
        with pytest.raises(ValueError, match="boundaries"):
            build_col_offsets(sample_matrix, [0, 5, 5, sample_matrix.n_cols])
        # refused before any array is built, never truncated or misread
        four = random_csr(3, 4, 6, seed=1)
        for bad in ([], [0, 4.5], [[0, 4]]):
            with pytest.raises(ValueError, match="boundaries"):
                build_col_offsets(four, bad)
        with pytest.raises(ValueError, match="boundaries"):
            build_col_offsets(CSRMatrix.empty(3, 0), [0])

    def test_no_columns_split_as_one_empty_panel(self):
        splits = build_col_offsets(CSRMatrix.empty(3, 0), [0, 0])
        assert splits.shape == (3, 2) and not splits.any()


class TestProperties:
    @given(
        seed=st.integers(0, 500),
        rows=st.integers(1, 30),
        cols=st.integers(2, 30),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_partition_roundtrip_random(self, seed, rows, cols, data):
        m = random_csr(rows, cols, rows * 3, seed=seed)
        panels = data.draw(st.integers(1, cols))
        ps = partition_columns(m, panels)
        assert hstack(list(ps)) == m

    @given(seed=st.integers(0, 200), panels=st.integers(1, 6))
    @settings(max_examples=25, deadline=None)
    def test_banded_partition_roundtrip(self, seed, panels):
        m = banded(40, 4, seed=seed, fill=0.6)
        assert hstack(list(partition_columns(m, panels))) == m


class TestOnePanel:
    def test_one_panel_is_the_matrix_itself(self, sample_matrix):
        (panel,) = partition_columns(sample_matrix, 1)
        assert panel is sample_matrix
        (panel,) = partition_columns(sample_matrix, [0, sample_matrix.n_cols])
        assert panel is sample_matrix

    def test_one_panel_scans_nothing(self, sample_matrix, monkeypatch):
        import repro.sparse.partition as partition_mod

        def refuse(b, boundaries):
            raise AssertionError("one panel needs no split matrix")

        monkeypatch.setattr(partition_mod, "build_col_offsets", refuse)
        assert partition_columns(sample_matrix, 1)[0] is sample_matrix

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_one_panel_product_equals_two_panel_product(self, backend):
        from repro.core.chunks import ChunkGrid
        from repro.core.executor import execute_chunk_grid

        a = rmat(8, 6.0, seed=4)
        b = random_csr(a.n_cols, 90, 700, seed=5)
        kept = (b.row_offsets.copy(), b.col_ids.copy(), b.data.copy())
        products = [
            execute_chunk_grid(
                a, b, ChunkGrid.regular(a.n_rows, b.n_cols, 2, c),
                assemble=True, backend=backend,
                workers=1 if backend == "serial" else 2)[1]
            for c in (1, 2)
        ]
        for one, two in zip(*[(p.row_offsets, p.col_ids, p.data)
                              for p in products]):
            assert one.tobytes() == two.tobytes()
        # the run read B through the panel that *is* B and left it alone
        for before, after in zip(kept, (b.row_offsets, b.col_ids, b.data)):
            np.testing.assert_array_equal(before, after)


@st.composite
def disordered_csr(draw):
    """CSR arrays whose rows were permuted and given duplicate entries:
    what an outside caller can send and ``validate()`` alone accepts."""
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(2, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    row_cols = []
    for _ in range(rows):
        ids = np.flatnonzero(rng.random(cols) < 0.4)
        if ids.size and draw(st.booleans()):
            ids = np.concatenate([ids, rng.choice(ids, size=rng.integers(1, 3))])
        row_cols.append(rng.permutation(ids) if draw(st.booleans()) else ids)
    col_ids = np.concatenate(row_cols).astype(np.int64)
    row_offsets = np.concatenate([[0], np.cumsum([r.size for r in row_cols])])
    panels = draw(st.integers(1, cols))
    return (rows, cols), row_offsets, col_ids, rng.random(col_ids.size), panels


class TestDisorderedOperands:
    def test_the_reproducer(self):
        from repro.sparse.io import canonical_csr

        # in range, so validate() accepts it; a two-way split of it held
        # col ids [3] and [-2] in width-2 panels before the loaders refused
        b = CSRMatrix(1, 4, [0, 2], [3, 0], [1.0, 2.0])
        assert not b.has_sorted_rows()
        with pytest.raises(ValueError, match="strictly increasing"):
            canonical_csr(b.shape, b.row_offsets, b.col_ids, b.data)

    @given(case=disordered_csr())
    @settings(max_examples=150, deadline=None)
    def test_no_panel_id_leaves_its_panel(self, case):
        """Through the loaders' door, a permuted or duplicated row is
        refused, and whatever is admitted partitions in range."""
        from repro.sparse.io import canonical_csr

        shape, row_offsets, col_ids, data, panels = case
        raw = CSRMatrix(*shape, row_offsets, col_ids, data)  # range-valid
        try:
            m = canonical_csr(shape, row_offsets, col_ids, data)
        except ValueError:
            assert not raw.has_sorted_rows()
            return
        assert raw.has_sorted_rows()
        for panel in partition_columns(m, panels):
            if panel.nnz:
                assert 0 <= panel.col_ids.min()
                assert panel.col_ids.max() < panel.n_cols


def numpy_form(fn, *args):
    """``fn(*args)`` with the native library hidden: the numpy split and
    gather, the reference the C ones must reproduce."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(native_mod, "native_available", lambda: False)
        return fn(*args)


@st.composite
def split_operands(draw):
    """A B of every shape the split meets — disordered rows, random,
    banded, empty rows, no rows, no columns — and a panel count from 1 to
    its width."""
    kind = draw(st.sampled_from(
        ["disordered", "random", "banded", "empty_rows", "no_rows", "no_cols"]))
    seed = draw(st.integers(0, 2**16))
    rows, cols = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    if kind == "disordered":
        shape, row_offsets, col_ids, data, _ = draw(disordered_csr())
        b = CSRMatrix(*shape, row_offsets, col_ids, data)
    elif kind == "random":
        b = random_csr(rows, cols, draw(st.integers(0, rows * cols // 2)), seed=seed)
    elif kind == "banded":
        b = banded(rows, draw(st.integers(0, 5)), seed=seed, fill=0.6)
    elif kind == "empty_rows":
        dense = random_csr(rows, cols, rows * cols // 3, seed=seed).to_dense()
        dense[np.random.default_rng(seed).random(rows) < 0.5] = 0.0
        b = CSRMatrix.from_dense(dense)
    elif kind == "no_rows":
        b = CSRMatrix.empty(0, cols)
    else:
        b = CSRMatrix.empty(rows, 0)
    return b, draw(st.integers(1, max(b.n_cols, 1)))


@needs_native
class TestNativeSplitAndGather:
    @given(case=split_operands())
    @settings(max_examples=300, deadline=None)
    def test_native_equals_numpy(self, case):
        b, num_panels = case
        bounds = panel_boundaries(b.n_cols, num_panels)
        splits = build_col_offsets(b, bounds)
        want = numpy_form(build_col_offsets, b, bounds)
        assert splits.dtype == want.dtype
        np.testing.assert_array_equal(splits, want)
        # one panel is B itself to the numpy form; the C gather of it
        # must be B's own bytes
        reference = (numpy_form(partition_columns, b, num_panels)
                     if num_panels > 1 else (b,))
        got = native_col_panels(b, splits, bounds)
        assert len(got) == len(reference)
        for arrays, ref in zip(got, reference):
            for mine, theirs in zip(arrays, (ref.row_offsets, ref.col_ids, ref.data)):
                assert mine.dtype == theirs.dtype
                assert mine.tobytes() == theirs.tobytes()

    def test_partition_columns_uses_the_native_gather(self, monkeypatch):
        calls = []
        real = native_mod.native_col_panels
        monkeypatch.setattr(native_mod, "native_col_panels",
                            lambda *args: calls.append(1) or real(*args))
        m = random_csr(30, 20, 120, seed=3)
        assert hstack(list(partition_columns(m, 4))) == m
        assert calls == [1]

    def test_an_inconsistent_split_is_refused(self):
        b = random_csr(6, 8, 20, seed=2)
        bounds = panel_boundaries(8, 2)
        splits = build_col_offsets(b, bounds)
        past_b = splits.copy()
        past_b[-1, 1:] = b.nnz + 5
        reversed_range = splits.copy()
        reversed_range[0, 1] = reversed_range[0, 0] - 1
        for bad in (past_b, reversed_range):
            with pytest.raises(RuntimeError, match="inconsistent"):
                native_col_panels(b, bad, bounds)
        with pytest.raises(ValueError, match="shape"):
            native_col_panels(b, splits[:, :2].copy(), bounds)


def arbitrary_cuts(draw, n):
    """Strictly increasing cuts of ``[0, n)`` at any points (``[0, 0]``
    for an empty dimension) — what a grid may carry besides
    ``panel_boundaries``."""
    inner = draw(st.sets(st.integers(1, n - 1), max_size=8)) if n > 1 else ()
    return np.array([0, *sorted(inner), n], dtype=np.int64)


@st.composite
def cut_operands(draw):
    """A B from :func:`split_operands` with cuts of its rows and columns."""
    b, _ = draw(split_operands())
    return b, arbitrary_cuts(draw, b.n_rows), arbitrary_cuts(draw, b.n_cols)


def native_form(fn, *args):
    return fn(*args)


class TestArbitraryBounds:
    """Panels cut where the bounds say, not only at near-equal splits."""

    @pytest.mark.parametrize("form", [pytest.param(native_form, marks=needs_native),
                                      numpy_form], ids=["native", "numpy"])
    @given(case=cut_operands())
    @settings(max_examples=150, deadline=None)
    def test_panels_are_the_ranges_between_cuts(self, form, case):
        b, row_cuts, col_cuts = case
        rows = partition_rows(b, row_cuts)
        assert len(rows) == row_cuts.size - 1
        for panel, lo, hi in zip(rows, row_cuts[:-1], row_cuts[1:]):
            assert panel == b.row_slice(int(lo), int(hi))
        cols = form(partition_columns, b, col_cuts)
        assert [p.n_cols for p in cols] == np.diff(col_cuts).tolist()
        if b.has_sorted_rows():  # partition_columns' precondition
            for panel, lo, hi in zip(cols, col_cuts[:-1], col_cuts[1:]):
                assert panel == extract_columns(b, int(lo), int(hi))
            assert hstack(list(cols)) == b

    @needs_native
    @given(case=cut_operands())
    @settings(max_examples=150, deadline=None)
    def test_native_equals_numpy_at_any_cuts(self, case):
        b, _, col_cuts = case
        np.testing.assert_array_equal(
            build_col_offsets(b, col_cuts),
            numpy_form(build_col_offsets, b, col_cuts))
        for mine, ref in zip(partition_columns(b, col_cuts),
                             numpy_form(partition_columns, b, col_cuts)):
            for x, y in ((mine.row_offsets, ref.row_offsets),
                         (mine.col_ids, ref.col_ids), (mine.data, ref.data)):
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes()

    @pytest.mark.parametrize("form", [pytest.param(native_form, marks=needs_native),
                                      numpy_form], ids=["native", "numpy"])
    @pytest.mark.parametrize("bad", [
        [0, 7, 3, 10], [1, 10], [0, 9], [0, 11], [0, 4, 4, 10], [10], [],
        [0.0, 10.0]], ids=str)
    def test_malformed_cuts_are_refused(self, form, bad):
        m = random_csr(10, 10, 40, seed=1)
        for cut in (partition_rows, partition_columns, build_col_offsets):
            with pytest.raises(ValueError, match="boundaries"):
                form(cut, m, bad)

    def test_a_count_is_panel_boundaries(self, sample_matrix):
        for k in (1, 3, np.int64(4)):
            rows = partition_rows(sample_matrix, panel_boundaries(sample_matrix.n_rows, k))
            assert partition_rows(sample_matrix, k) == rows
            cols = partition_columns(sample_matrix, panel_boundaries(sample_matrix.n_cols, k))
            assert partition_columns(sample_matrix, k) == cols
