"""The compiled Gustavson kernel: count pass, in-place fill pass, scratch.

The numpy ``esc`` accumulator is the reference throughout: the native
kernel must reproduce it bit for bit (same stored structure, same
float bits), whichever of its four row finishes a row takes.  After
every test here this thread's scratch must be as the kernel promises to
leave it between rows: SPA all -0.0, bitmap all zero.
"""

import dataclasses
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.chunks import ChunkGrid
from repro.core.executor import execute_chunk_grid
from repro.sparse.formats import CSRMatrix
from repro.sparse.generators import random_csr
from repro.spgemm import native
from repro.spgemm.accumulators import esc_accumulate_rows
from repro.spgemm.flops import product_prefix
from repro.spgemm.native import (
    native_available,
    native_build_error,
    native_count_rows,
    native_fill_slots,
)
from repro.spgemm.twophase import spgemm_symbolic, spgemm_twophase

pytestmark = pytest.mark.skipif(
    not native_available(),
    reason=f"native kernel unavailable: {native_build_error()}",
)

INT64_MAX = np.iinfo(np.int64).max


def fill_rows(a, b, rows, c_indptr, col_ids, data):
    """The fill pass into chunk-local slots: row ``r`` lands at
    ``col_ids/data[c_indptr[r]:c_indptr[r + 1]]``."""
    native_fill_slots(a, b, rows, c_indptr[:-1], np.diff(c_indptr), 0,
                      col_ids, data)
NEGATIVE_ZERO = np.float64(-0.0).view(np.uint64)


def assert_scratch_is_clean(scratch) -> None:
    assert np.all(scratch.spa.view(np.uint64) == NEGATIVE_ZERO)
    assert not scratch.bits.any()


@pytest.fixture(autouse=True)
def scratch_left_clean():
    yield
    scratch = getattr(native._LOCAL, "scratch", None)
    if scratch is not None:
        assert_scratch_is_clean(scratch)


@pytest.fixture
def exact_scratch(monkeypatch):
    """``exact_scratch(cap)``: give this thread a fresh scratch of exactly
    ``cap`` columns (the shared one is as wide as the widest test so far),
    with sentinels around ``touched`` that must come back intact — or,
    ``guarded=False``, as allocated, for AddressSanitizer to watch (CI)."""
    guards = []

    def install(cap: int, guarded: bool = True):
        scratch = native._Scratch(cap)
        assert scratch.touched.size == cap + 1  # the spare slot
        if guarded:
            fence = np.full(cap + 1 + 16, -7, dtype=np.int64)
            scratch.touched = fence[8:8 + cap + 1]
            guards.append((fence, cap))
        monkeypatch.setattr(native._LOCAL, "scratch", scratch, raising=False)
        return scratch

    yield install
    for fence, cap in guards:
        assert np.all(fence[:8] == -7) and np.all(fence[8 + cap + 1:] == -7)


def assert_same_bits(got: CSRMatrix, ref: CSRMatrix) -> None:
    np.testing.assert_array_equal(got.row_offsets, ref.row_offsets)
    np.testing.assert_array_equal(got.col_ids, ref.col_ids)
    # array_equal on the raw bits: -0.0 vs 0.0 and nan payloads count
    np.testing.assert_array_equal(got.data.view(np.int64), ref.data.view(np.int64))


def assert_native_is_esc(a: CSRMatrix, b: CSRMatrix) -> CSRMatrix:
    got = spgemm_twophase(a, b, kernel="native").matrix
    assert_same_bits(got, spgemm_twophase(a, b, kernel="esc").matrix)
    return got


def one_row_product(col_sets, width, rng):
    """``A`` (1 x m, all ones-ish) and ``B`` (m x width) whose row ``k``
    holds ``col_sets[k]``: output row 0 touches the union of the sets, in
    B-row order — so the touched list reaches the finish step unsorted."""
    m = len(col_sets)
    a = CSRMatrix(1, m, [0, m], np.arange(m), rng.uniform(0.5, 1.5, m))
    sets = [np.unique(s) for s in col_sets]
    offsets = np.concatenate([[0], np.cumsum([s.size for s in sets])])
    cols = np.concatenate(sets)
    b = CSRMatrix(m, width, offsets, cols, rng.uniform(-1.0, 1.0, cols.size))
    return a, b


def finish_branch(touched: np.ndarray) -> str:
    """The kernel's rule, restated: which finish a row with these
    touched columns takes (``radix`` carries its 8-bit digit count)."""
    t, span = touched.size, int(touched.max() - touched.min())
    if t < 32:
        return "insertion"
    if span < 2 * t:
        return "scan"
    if span >> 6 <= t:
        return "bitmap"
    return f"radix{max(1, (span.bit_length() + 7) // 8)}"


def row_touching(lo: int, hi: int, count: int, rng) -> np.ndarray:
    """``count`` ascending columns of ``[lo, hi]``, both ends among them."""
    inner = rng.choice(np.arange(lo + 1, hi), size=count - 2, replace=False)
    return np.unique(np.concatenate([[lo, hi], inner]))


def assert_row_is_esc(touched, width, rng, shift=0) -> None:
    """One output row touching exactly ``touched`` (first a reversed half
    of them, then all: unsorted, with duplicates), filled into a slot of
    its own with ``shift``: esc's values, esc's columns plus shift."""
    a, b = one_row_product([touched[::-1][: touched.size // 2], touched],
                           width, rng)
    ref = esc_accumulate_rows(a, b, np.arange(1))
    cols = np.empty(touched.size, dtype=np.int64)
    vals = np.empty(touched.size)
    native_fill_slots(a, b, np.arange(1), np.zeros(1, dtype=np.int64),
                      np.array([touched.size]), shift, cols, vals)
    np.testing.assert_array_equal(cols, touched + shift)
    np.testing.assert_array_equal(cols, ref.col_ids + shift)
    np.testing.assert_array_equal(vals.view(np.int64), ref.values.view(np.int64))


class TestFinishBranches:
    """One crafted output row per way of ordering the touched columns."""

    CASES = {
        # name: (width, touched columns drawn from [lo, hi), count, finish)
        "insertion": (5000, (0, 5000), 31, "insertion"),
        "scan": (4000, (1000, 1400), 300, "scan"),   # hub row: range 400 < 2 x 300
        "radix1": (256, (0, 256), 40, "bitmap"),     # 4 words for 40 columns
        "radix2": (60000, (100, 60000), 100, "radix2"),   # 936 words for 100
        "radix3": (200000, (7, 200000), 50, "radix3"),    # 3,125 words for 50
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_branch(self, name, make_rng):
        width, (lo, hi), count, finish = self.CASES[name]
        rng = make_rng(name)
        touched = rng.choice(np.arange(lo, hi), size=count, replace=False)
        touched[:2] = (lo, hi - 1)  # pin the span
        touched = np.unique(touched)
        assert finish_branch(touched) == finish
        # three overlapping B rows, the widest-ranging one last
        sets = [rng.permutation(touched)[: touched.size // 2],
                rng.permutation(touched)[: touched.size // 3],
                touched]
        a, b = one_row_product(sets, width, rng)
        got = assert_native_is_esc(a, b)
        np.testing.assert_array_equal(got.col_ids, touched)

    def test_threshold_neighbours(self, make_rng):
        """Both sides of each decision: 31 / 32 touched columns; spans of
        2t - 1 / 2t; ``span >> 6`` of t / t + 1 (the last pair is the
        no-cliff pin: past one bitmap word per column the row goes to
        radix, not to a walk over empty words)."""
        rng = make_rng("edges")
        for count, span, finish in (
                (31, 4000, "insertion"), (32, 4000, "radix2"),
                (40, 79, "scan"), (40, 80, "bitmap"),
                (32, 64 * 32 + 63, "bitmap"), (32, 64 * 33, "radix2"),
                (300, 64 * 300 + 63, "bitmap"), (300, 64 * 301, "radix2")):
            touched = row_touching(5, 5 + span, count, rng)
            assert finish_branch(touched) == finish
            assert_row_is_esc(touched, 5 + span + 1, rng)

    @pytest.mark.parametrize("shift", [0, 12345])
    def test_bitmap_word_edges(self, shift, make_rng, exact_scratch):
        """Bitmap rows whose first / last column is bit 0, 63 or 64 of
        the bitmap, or sits in its last word — a partial one: the panel
        is 37 columns past a multiple of 64 and the scratch exactly as
        wide — written with and without a column shift."""
        rng = make_rng("words")
        width = 64 * 9 + 37
        scratch = exact_scratch(width)
        assert scratch.bits.size == 10
        for lo, hi in ((0, 64), (0, 127), (63, 127), (63, 128), (64, 191),
                       (0, width - 1), (63, width - 1), (64, width - 1),
                       (width - 65, width - 1)):
            touched = row_touching(lo, hi, 32, rng)
            assert finish_branch(touched) == "bitmap"
            assert_row_is_esc(touched, width, rng, shift)
            assert_scratch_is_clean(scratch)

    @pytest.mark.parametrize("finish,lo,hi,count", [
        ("insertion", 3, 900, 20), ("scan", 3, 82, 60), ("radix2", 3, 4000, 40)])
    def test_every_finish_shifts_and_resets(self, finish, lo, hi, count,
                                            make_rng, exact_scratch):
        rng = make_rng(finish)
        scratch = exact_scratch(4001)
        touched = row_touching(lo, hi, count, rng)
        assert finish_branch(touched) == finish
        assert_row_is_esc(touched, 4001, rng, shift=700)
        assert_scratch_is_clean(scratch)

    def test_a_row_touching_every_column_twice(self, make_rng, exact_scratch):
        """The append is written before the column is known to be new: a
        row that has touched all ``cap`` columns writes ``touched[cap]``
        on every further product — the spare slot, and nothing past it."""
        rng = make_rng("full")
        for width, guarded in ((1, True), (31, True), (64, True),
                               (200, True), (200, False)):
            exact_scratch(width, guarded)  # insertion and scan finishes
            a, b = one_row_product([np.arange(width)] * 3, width, rng)
            got = assert_native_is_esc(a, b)
            assert got.nnz == width


class TestRowLists:
    def test_empty_and_zero_work_rows_in_the_id_list(self):
        """Row ids may name rows with no A entries and rows whose B rows
        are all empty: they count 0 and take no slot."""
        a = CSRMatrix.from_dense(np.array([
            [1.0, 0.0, 2.0],
            [0.0, 0.0, 0.0],     # empty A row
            [0.0, 3.0, 0.0],     # meets only the empty B row
            [4.0, 5.0, 6.0],
        ]))
        b = CSRMatrix.from_dense(np.array([
            [1.0, 0.0, 0.0, 7.0],
            [0.0, 0.0, 0.0, 0.0],
            [0.0, 2.0, 0.0, 3.0],
        ]))
        rows = np.arange(4)
        ref = esc_accumulate_rows(a, b, rows)
        assert ref.counts.tolist() == [3, 0, 0, 3]
        np.testing.assert_array_equal(native_count_rows(a, b, rows), ref.counts)
        col_ids, values = np.empty(6, dtype=np.int64), np.empty(6)
        fill_rows(a, b, rows, ref.offsets(), col_ids, values)
        np.testing.assert_array_equal(col_ids, ref.col_ids)
        np.testing.assert_array_equal(values, ref.values)

    def test_subset_of_rows_fills_only_their_slots(self):
        a = random_csr(30, 20, 120, seed=1)
        b = random_csr(20, 25, 100, seed=2)
        full = spgemm_twophase(a, b, kernel="esc").matrix
        rows = np.array([3, 4, 17, 29])
        col_ids = np.full(full.nnz, -1, dtype=np.int64)
        data = np.full(full.nnz, np.nan)
        fill_rows(a, b, rows, full.row_offsets, col_ids, data)
        mine = np.zeros(full.nnz, dtype=bool)
        for r in rows:
            mine[full.row_offsets[r]:full.row_offsets[r + 1]] = True
        np.testing.assert_array_equal(col_ids[mine], full.col_ids[mine])
        np.testing.assert_array_equal(data[mine], full.data[mine])
        assert np.all(col_ids[~mine] == -1) and np.all(np.isnan(data[~mine]))

    def test_no_rows_and_empty_operands(self):
        a = random_csr(6, 5, 12, seed=3)
        b = CSRMatrix.empty(5, 0)
        assert native_count_rows(a, b, np.arange(6)).tolist() == [0] * 6
        assert native_count_rows(a, random_csr(5, 4, 9, seed=9), np.empty(0, np.int64)).size == 0
        assert spgemm_twophase(a, b, kernel="native").matrix.nnz == 0

    def test_row_id_out_of_range(self):
        a = random_csr(6, 6, 12, seed=4)
        with pytest.raises(IndexError):
            native_count_rows(a, a, np.array([0, 6]))
        with pytest.raises(IndexError):
            native_count_rows(a, a, np.array([-1]))


class TestNarrowPanels:
    def test_single_output_column(self):
        a = random_csr(40, 30, 200, seed=5)
        b = random_csr(30, 1, 20, seed=6)
        assert_native_is_esc(a, b)

    def test_inner_dimension_one(self):
        a = random_csr(40, 1, 25, seed=7)
        b = random_csr(1, 50, 45, seed=8)
        assert_native_is_esc(a, b)

    def test_one_by_one(self):
        a = CSRMatrix.from_dense(np.array([[3.0]]))
        got = assert_native_is_esc(a, a)
        assert got.data.tolist() == [9.0]


class TestStoredZeros:
    def test_explicit_zeros_are_entries(self):
        a = CSRMatrix(2, 2, [0, 2, 3], [0, 1, 1], [0.0, 2.0, 0.0])
        b = CSRMatrix(2, 3, [0, 2, 3], [0, 2, 1], [5.0, 0.0, 7.0])
        got = assert_native_is_esc(a, b)
        assert got.nnz == 4  # row 0: cols 0, 1, 2; row 1: col 1 — none pruned
        assert got.data.tolist() == [0.0, 14.0, 0.0, 0.0]

    def test_exact_cancellation_is_kept(self):
        a = CSRMatrix(1, 2, [0, 2], [0, 1], [1.0, -1.0])
        b = CSRMatrix(2, 2, [0, 2, 4], [0, 1, 0, 1], [0.25, 3.0, 0.25, 1.0])
        got = assert_native_is_esc(a, b)
        assert got.col_ids.tolist() == [0, 1]
        assert got.data.tolist() == [0.0, 2.0]


@st.composite
def hubbed_pairs(draw):
    """Rectangular ``A != B`` with a few hub rows: a full A row (every B
    row merged into one output row) and a dense B row (a long contiguous
    run of touched columns)."""
    n, k = draw(st.integers(1, 24)), draw(st.integers(1, 40))
    m = draw(st.sampled_from([1, 7, 90, 700]))
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    a = (rng.random((n, k)) < draw(st.floats(0.0, 0.3))) * rng.normal(size=(n, k))
    b = (rng.random((k, m)) < draw(st.floats(0.0, 0.2))) * rng.normal(size=(k, m))
    for _ in range(draw(st.integers(0, 2))):
        a[rng.integers(n), :] = rng.normal(size=k)
        lo = rng.integers(m)
        b[rng.integers(k), lo:lo + 1 + rng.integers(m)] = 1.5
    return CSRMatrix.from_dense(a), CSRMatrix.from_dense(b)


class TestProperty:
    @given(pair=hubbed_pairs())
    @settings(max_examples=60, deadline=None)
    def test_native_is_esc_bit_for_bit(self, pair):
        assert_native_is_esc(*pair)


class TestCountPassIsTheRowAnalysis:
    """The count pass returns each row's products with its count, and the
    native pipeline takes its row analysis from there."""

    @given(pair=hubbed_pairs())
    @settings(max_examples=60, deadline=None)
    def test_products_and_pipeline_equal_the_separate_analysis(self, pair):
        a, b = pair
        rows = np.arange(a.n_rows)
        counts, products = native_count_rows(a, b, rows, return_products=True)
        np.testing.assert_array_equal(products, np.diff(product_prefix(a, b)))
        np.testing.assert_array_equal(counts, native_count_rows(a, b, rows))

        # the pipeline: its flops and counts come from the same sweep
        sym = spgemm_symbolic(a, b, kernel="native")
        assert sym.flops == 2 * int(products.sum())
        np.testing.assert_array_equal(sym.row_nnz, counts)
        assert sym.row_nnz.dtype == np.int64

        got = spgemm_twophase(a, b, kernel="native")
        ref = spgemm_twophase(a, b, kernel="esc")
        assert got.stats == dataclasses.replace(ref.stats, kernel="native")
        assert got.stats.analysis_bytes == 8 * a.n_rows
        assert got.stats.symbolic_kernels == int(products.any())
        assert got.stats.numeric_kernels == int(got.stats.nnz_out > 0)

    def test_rows_out_of_order_and_twice(self):
        a = random_csr(30, 20, 120, seed=1)
        b = random_csr(20, 25, 100, seed=2)
        rows = np.array([7, 3, 3, 29, 0, 7, 12])
        counts, products = native_count_rows(a, b, rows, return_products=True)
        np.testing.assert_array_equal(products, np.diff(product_prefix(a, b))[rows])
        np.testing.assert_array_equal(
            counts, np.diff(spgemm_twophase(a, b, kernel="esc").matrix.row_offsets)[rows])

    def test_a_default_run_analyses_no_chunk_separately(self, monkeypatch):
        """``run_out_of_core`` defaults: no ``products_per_row`` per chunk
        and no ``product_prefix`` anywhere — the sweep is the analysis."""
        import repro.core.chunks as chunks
        import repro.spgemm.flops as flops
        import repro.spgemm.twophase as twophase
        from repro.core.api import run_out_of_core
        from repro.core.chunks import csr_bytes
        from repro.core.planner import default_device_bytes
        from repro.device.specs import v100_node
        from repro.sparse.generators import rmat

        a = rmat(10, 14.0, seed=31)
        node = v100_node(default_device_bytes(   # the CLI's default device
            2 * csr_bytes(a.n_rows, a.nnz), a.n_rows,
            2 * int(a.row_nnz()[a.col_ids].sum())))
        ref = spgemm_twophase(a, a, kernel="esc").matrix
        calls = []
        for module, name in ((twophase, "products_per_row"),
                             (flops, "product_prefix"),
                             (chunks, "product_prefix")):
            monkeypatch.setattr(module, name,
                                lambda *args, _name=name, **kw: calls.append(_name))
        result = run_out_of_core(a, a, node)
        assert result.profile.grid.num_chunks > 1 and calls == []
        assert_same_bits(result.matrix, ref)


class TestScratch:
    @pytest.fixture
    def scratch(self):
        """This thread's scratch, sized for the widest operand below."""
        return native._scratch(4096)

    def test_two_widths_share_one_scratch(self, scratch):
        wide = random_csr(60, 4096, 9000, seed=11)
        narrow = random_csr(60, 9, 200, seed=12)
        left = random_csr(50, 60, 700, seed=13)
        for b in (wide, narrow, wide, narrow):
            assert_native_is_esc(left, b)
            assert native._scratch(b.n_cols) is scratch

    def test_scratch_regrows_for_a_wider_panel(self, scratch):
        wider = random_csr(20, scratch.cap + 1, 300, seed=14)
        assert_native_is_esc(random_csr(10, 20, 60, seed=15), wider)
        assert native._scratch(1).cap == scratch.cap + 1

    @pytest.mark.parametrize("pass_", ["count", "fill"])
    def test_generation_stamp_rollover(self, scratch, pass_):
        """With the stamp about to run out the kernel clears ``mark`` and
        restarts it.  ``mark`` is poisoned with the first stamp of the new
        epoch: without the clear, every column would look already touched."""
        a = random_csr(40, 40, 300, seed=16)
        ref = spgemm_twophase(a, a, kernel="esc").matrix
        scratch.mark[:] = 1
        scratch.gen[0] = INT64_MAX - 5
        if pass_ == "count":
            counts = native_count_rows(a, a, np.arange(a.n_rows))
            np.testing.assert_array_equal(counts, np.diff(ref.row_offsets))
        else:
            col_ids = np.empty(ref.nnz, dtype=np.int64)
            data = np.empty(ref.nnz)
            fill_rows(a, a, np.arange(a.n_rows), ref.row_offsets, col_ids, data)
            np.testing.assert_array_equal(col_ids, ref.col_ids)
            np.testing.assert_array_equal(data, ref.data)
        assert scratch.gen[0] == a.n_rows  # restarted from 0, one stamp a row

    def test_stamp_just_below_the_limit_does_not_reset(self, scratch):
        a = random_csr(8, 8, 30, seed=17)
        scratch.gen[0] = INT64_MAX - a.n_rows - 1
        native_count_rows(a, a, np.arange(a.n_rows))
        assert scratch.gen[0] == INT64_MAX - 1

    def test_threads_alternate_two_widths(self):
        """More threads than cores and a short switch interval; every
        thread multiplies against a wide and a narrow B in turn, so its
        scratch serves both while the others run."""
        left = random_csr(80, 60, 1500, seed=18)
        wide, narrow = random_csr(60, 3000, 9000, seed=19), random_csr(60, 5, 150, seed=20)
        refs = {id(b): spgemm_twophase(left, b, kernel="esc").matrix
                for b in (wide, narrow)}
        jobs = [wide, narrow] * 24
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(spgemm_twophase, left, b, kernel="native")
                           for b in jobs]
                for b, fut in zip(jobs, futures):
                    assert_same_bits(fut.result(timeout=60).matrix, refs[id(b)])
        finally:
            sys.setswitchinterval(interval)

    def test_thread_backend_grid(self):
        """The engine's thread backend over column panels of two widths
        (301 columns in three panels: 101, 100, 100)."""
        a = random_csr(300, 301, 4000, seed=22)
        b = random_csr(301, 301, 4000, seed=23)
        grid = ChunkGrid.regular(a.n_rows, b.n_cols, 4, 3)
        _, golden = execute_chunk_grid(a, b, grid, workers=1,
                                       keep_outputs=True, kernel="esc")
        _, out = execute_chunk_grid(a, b, grid, workers=4, backend="thread",
                                    keep_outputs=True, kernel="native")
        for g_row, o_row in zip(golden, out):
            for g, o in zip(g_row, o_row):
                assert_same_bits(o, g)


class TestFillRefusesBadSlots:
    """``fill`` checks every row against ``c_indptr`` before writing it."""

    @pytest.fixture
    def problem(self):
        a = random_csr(25, 25, 150, seed=21)
        ref = spgemm_twophase(a, a, kernel="esc").matrix
        assert ref.nnz > 40 and np.diff(ref.row_offsets).min() > 0
        return a, ref

    def _fill_guarded(self, a, c_indptr, nnz):
        """Fill into the middle of a sentinel-padded buffer; returns the
        padding, which must come back untouched."""
        pad = 64
        cols = np.full(nnz + 2 * pad, -7, dtype=np.int64)
        vals = np.full(nnz + 2 * pad, -7.0)
        try:
            fill_rows(a, a, np.arange(a.n_rows), c_indptr,
                      cols[pad:pad + nnz], vals[pad:pad + nnz])
        finally:
            for arr in (cols, vals):
                assert np.all(arr[:pad] == -7) and np.all(arr[pad + nnz:] == -7)

    def test_intact_offsets_fill(self, problem):
        a, ref = problem
        self._fill_guarded(a, ref.row_offsets, ref.nnz)

    def test_row_larger_than_its_slot(self, problem):
        a, ref = problem
        bad = ref.row_offsets.copy()
        bad[10:] -= 1  # row 9's slot is one short
        with pytest.raises(RuntimeError, match="native kernel overflow: row 9 "):
            self._fill_guarded(a, bad, ref.nnz)

    def test_a_refused_fill_leaves_the_scratch_reusable(self, problem):
        """Row 9 is accumulated in full before it is refused; its sums
        must not be there when the next row to touch those columns adds
        its first product to them."""
        a, ref = problem
        scratch = native._scratch(a.n_cols)
        stamp = int(scratch.gen[0])
        bad = ref.row_offsets.copy()
        bad[10:] -= 1
        with pytest.raises(RuntimeError, match="row 9 "):
            self._fill_guarded(a, bad, ref.nnz)
        assert_scratch_is_clean(scratch)
        assert scratch.gen[0] == stamp + 10  # one stamp a row, the refused one too
        assert_same_bits(spgemm_twophase(a, a, kernel="native").matrix, ref)

    def test_row_smaller_than_its_slot(self, problem):
        a, ref = problem
        bad = ref.row_offsets.copy()
        bad[4:] += 2
        with pytest.raises(RuntimeError, match="row 3 "):
            self._fill_guarded(a, bad, ref.nnz)

    @pytest.mark.parametrize("shift", [10**6, -10**6, INT64_MAX // 2])
    def test_right_sizes_wrong_place(self, problem, shift):
        """Every slot has the right length but lies outside the output."""
        a, ref = problem
        with pytest.raises(RuntimeError, match="row 0 "):
            self._fill_guarded(a, ref.row_offsets + shift, ref.nnz)

    def test_last_row_past_the_end(self, problem):
        a, ref = problem
        with pytest.raises(RuntimeError, match=f"row {a.n_rows - 1} "):
            self._fill_guarded(a, ref.row_offsets, ref.nnz - 1)

    def test_rejects_arrays_it_cannot_write_in_place(self, problem):
        a, ref = problem
        rows = np.arange(a.n_rows)
        cols, vals = np.empty(ref.nnz, dtype=np.int64), np.empty(ref.nnz)
        with pytest.raises(ValueError):
            fill_rows(a, a, rows, ref.row_offsets, cols.astype(np.int32), vals)
        with pytest.raises(ValueError):
            fill_rows(a, a, rows, ref.row_offsets, cols, vals[:-1])
        with pytest.raises(ValueError):
            fill_rows(a, a, rows, ref.row_offsets[:-1], cols, vals)
        with pytest.raises(ValueError):
            fill_rows(a, a, rows, ref.row_offsets,
                      np.empty(2 * ref.nnz, dtype=np.int64)[::2], vals)
