"""The cut table, the row-prefix product table and the grid sizing read
off them.

``CutTable`` answers every chunk's product count of every grid whose
boundaries lie in one set of cuts from one scan of each operand,
``ProductTable`` answers row-level questions for one column split, and
``GridSizing`` prices a grid from them for the planner, the executor,
the governor and the shards.  Contracts pinned here: the sizing equals
independent arithmetic on generated operands and grids (scipy's pattern
product, a direct gather on sliced panels, the scalar byte formulas);
``plan_grid`` reproduces the per-candidate implementation it replaced
(kept in ``planner_oracle.py``), on the suite operands and on generated
ones; a plan scans B once per round and A never row by row, without
ever materialising
``nnz_A x c``; and a run builds a row-level table only when a reader
asks for rows.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.core.chunks as chunks_mod
from repro.core.api import run_hybrid, run_out_of_core
from repro.core.chunks import (
    ChunkGrid,
    CutTable,
    GridSizing,
    ProductTable,
    chunk_flops,
    csr_bytes,
    device_bytes_of,
)
from repro.core.executor import execute_chunk_grid
from repro.core.governor import GovernorConfig
from repro.core.planner import (
    _union_cuts,
    plan_grid,
    resident_input_bytes,
)
from repro.device.specs import v100_node
from repro.distributed.shard import ShardConfig, run_sharded
from repro.observability import Tracer
from repro.sparse.formats import CSRMatrix
from repro.sparse.generators import banded, rmat
from repro.sparse.partition import panel_boundaries
from repro.sparse.suite import build_matrix
from repro.spgemm.flops import total_flops
from repro.spgemm.native import native_available
from tests.conftest import assert_equals_scipy_product
from tests.core import planner_oracle as oracle


#: the cut table is the native library's: without it the planner and
#: every sizing count on per-``c`` product tables, so what is pinned about
#: the cut table, and about which tables a run builds, holds only with it
needs_native = pytest.mark.skipif(not native_available(),
                                  reason="the cut table needs the native library")


# ----------------------------------------------------------------------
# generated operands: the table equals brute force
# ----------------------------------------------------------------------
@st.composite
def bounds(draw, n, regular):
    """Panel boundaries of ``[0, n)``: near-equal, or any strictly
    increasing cut (``n == 0``: the one empty panel)."""
    if regular:
        return panel_boundaries(n, draw(st.integers(1, min(max(n, 1), 5))))
    cuts = draw(st.sets(st.integers(1, n - 1), max_size=4)) if n > 1 else set()
    return np.array([0, *sorted(cuts), n], dtype=np.int64)


@st.composite
def problems(draw):
    """Rectangular ``A (m x k)``, ``B (k x n)`` and a grid over ``A x B``,
    with empty rows and columns, all-empty operands, hub rows, and
    dimensions of 0, 1 and 2 (no rows, no columns, fewer rows than a
    sharded run has shards)."""
    m, k, n = (draw(st.integers(0, 24)) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def operand(rows, cols):
        shape = draw(st.sampled_from(["empty", "sparse", "hub"]))
        if shape == "empty" or 0 in (rows, cols):
            return np.zeros((rows, cols), dtype=bool)
        mask = rng.random((rows, cols)) < draw(st.floats(0.02, 0.4))
        mask[rng.random(rows) < 0.3, :] = False   # empty rows
        mask[:, rng.random(cols) < 0.3] = False   # empty columns
        if shape == "hub":
            mask[rng.integers(rows), :] = True
        return mask

    a_mask, b_mask = operand(m, k), operand(k, n)
    regular = draw(st.booleans())
    grid = ChunkGrid(draw(bounds(m, regular)), draw(bounds(n, regular)))
    return a_mask, b_mask, grid


def from_mask(mask) -> CSRMatrix:
    return CSRMatrix.from_scipy(sp.csr_matrix(mask.astype(np.float64)))


def rectangle_sums(pattern_product, grid) -> np.ndarray:
    rb, cb = grid.row_bounds, grid.col_bounds
    return np.array([[pattern_product[rb[i]:rb[i + 1], cb[j]:cb[j + 1]].sum()
                      for j in range(cb.size - 1)] for i in range(rb.size - 1)])


class TestTableEqualsBruteForce:
    @given(problem=problems())
    @settings(max_examples=200, deadline=None)
    def test_chunk_flops_is_twice_the_pattern_product(self, problem):
        a_mask, b_mask, grid = problem
        pattern = (sp.csr_matrix(a_mask.astype(np.int64))
                   @ sp.csr_matrix(b_mask.astype(np.int64))).toarray()
        flops = chunk_flops(from_mask(a_mask), from_mask(b_mask), grid)
        assert flops.dtype == np.int64
        assert np.array_equal(flops, 2 * rectangle_sums(pattern, grid))

    @given(problem=problems(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_sizing_equals_independent_arithmetic(self, problem, data):
        """Everything a reader takes from the sizing, against arithmetic
        that shares no code with it."""
        a_mask, b_mask, grid = problem
        a, b = from_mask(a_mask), from_mask(b_mask)
        sizing = GridSizing(a, b, grid)
        pattern = (sp.csr_matrix(a_mask.astype(np.int64))
                   @ sp.csr_matrix(b_mask.astype(np.int64))).toarray()
        assert np.array_equal(sizing.flops, 2 * rectangle_sums(pattern, grid))

        # the nnz bound is the ceiling: products, or the dense extent
        rows, widths = np.diff(grid.row_bounds), np.diff(grid.col_bounds)
        ceiling = np.minimum(sizing.products, rows[:, None] * widths[None, :])
        assert np.array_equal(sizing.nnz, ceiling)

        # bytes: the scalar formulas, chunk by chunk
        INTERMEDIATE = oracle.INTERMEDIATE_BYTES_PER_PRODUCT
        for cid in range(grid.num_chunks):
            rp, cp = grid.panel_of(cid)
            n, bound = int(rows[rp]), int(sizing.nnz[rp, cp])
            products = int(sizing.products[rp, cp])
            assert sizing.host_bytes[cid] == csr_bytes(n, bound)
            assert sizing.device_bytes[cid] == (
                products * INTERMEDIATE + csr_bytes(n, products))

        # rows of one chunk, and any sub-range of them: a direct gather
        # on the sliced panels
        cid = data.draw(st.integers(0, grid.num_chunks - 1))
        rp, cp = grid.panel_of(cid)
        r0, r1 = (int(x) for x in grid.row_bounds[rp:rp + 2])
        c0, c1 = (int(x) for x in grid.col_bounds[cp:cp + 2])
        direct = oracle.panel_row_products(
            from_mask(a_mask[r0:r1]), from_mask(b_mask[:, c0:c1]))
        assert np.array_equal(sizing.row_products(cid), direct)
        lo = data.draw(st.integers(0, r1 - r0))
        hi = data.draw(st.integers(lo, r1 - r0))
        assert sizing.range_products(cid, lo, hi) == int(direct[lo:hi].sum())

        # a shard's span: the sizing of the sliced operands
        lo_p = data.draw(st.integers(0, grid.num_row_panels - 1))
        hi_p = data.draw(st.integers(lo_p + 1, grid.num_row_panels))
        span = sizing.span(lo_p, hi_p)
        s0, s1 = (int(x) for x in grid.row_bounds[[lo_p, hi_p]])
        alone = GridSizing(from_mask(a_mask[s0:s1]), b, span.grid)
        assert np.array_equal(span.grid.row_bounds,
                              grid.row_bounds[lo_p:hi_p + 1] - s0)
        assert np.array_equal(span.flops, alone.flops)
        assert np.array_equal(span.device_bytes, alone.device_bytes)
        assert np.array_equal(span.host_bytes, alone.host_bytes)
        for local in range(span.grid.num_chunks):
            assert np.array_equal(span.row_products(local),
                                  alone.row_products(local))


# ----------------------------------------------------------------------
# suite operands: plans are the per-candidate planner's, bit for bit
# ----------------------------------------------------------------------
@pytest.fixture(scope="module", params=["stokes", "uk-2002", "wiki0206"])
def operand(request):
    return build_matrix(request.param)


def device_for(a, fraction, b=None) -> int:
    """A device holding the inputs plus ``fraction`` of the footprint
    the whole product would need as one chunk."""
    b = a if b is None else b
    whole = device_bytes_of(a.n_rows, total_flops(a, b) // 2)
    return int(1.2 * resident_input_bytes(a, b, 1) + fraction * whole)


class TestPlansMatchOracle:
    @pytest.mark.parametrize("fraction", [0.5, 0.2])
    @pytest.mark.parametrize("buffers", [1, 2])
    def test_same_grid_worst_chunk_and_budget(self, operand, fraction,
                                              buffers):
        m = operand
        node = v100_node(device_for(m, fraction))
        grid, worst, budget = oracle.plan_grid(m, m, node, buffers=buffers)
        report = plan_grid(m, m, node, buffers=buffers)
        assert np.array_equal(report.grid.row_bounds, grid.row_bounds)
        assert np.array_equal(report.grid.col_bounds, grid.col_bounds)
        assert report.worst_chunk_bytes == worst
        assert report.budget_bytes == budget
        assert np.array_equal(report.flops, oracle.chunk_flops(m, m, grid))


# ----------------------------------------------------------------------
# generated operands: plans are the per-candidate planner's, and every
# grid inside a round is priced exactly by its cut table
# ----------------------------------------------------------------------
def check_plan_matches_oracle(problem, fraction, buffers):
    """Same grid, worst chunk and budget as the per-candidate planner,
    or both refuse — but for an empty dimension: ``plan_grid`` plans its
    one empty panel, which the oracle — it refuses every such operand —
    predates."""
    a, b = from_mask(problem[0]), from_mask(problem[1])
    node = v100_node(device_for(a, fraction, b))
    if 0 in (a.n_rows, b.n_cols):
        try:
            report = plan_grid(a, b, node, buffers=buffers)
        except ValueError as refusal:
            assert "no grid" in str(refusal)
            return
        assert report.fits and not report.flops.any()
        assert a.n_rows > 0 or report.grid.num_row_panels == 1
        assert b.n_cols > 0 or report.grid.num_col_panels == 1
        return
    try:
        report = plan_grid(a, b, node, buffers=buffers)
    except ValueError as refusal:
        assert "no grid" in str(refusal)
        report = None
    try:
        grid, worst, budget = oracle.plan_grid(a, b, node, buffers=buffers)
    except ValueError:
        assert report is None
        return
    assert np.array_equal(report.grid.row_bounds, grid.row_bounds)
    assert np.array_equal(report.grid.col_bounds, grid.col_bounds)
    assert (report.worst_chunk_bytes, report.budget_bytes) == (worst, budget)


def check_cut_table_prices_every_grid(problem, limit):
    """One table over the union of cuts: every ``(r, c)`` up to the
    round limit — clamped to a dimension smaller than it — has the
    oracle's products, cell for cell."""
    a, b = from_mask(problem[0]), from_mask(problem[1])
    cut = CutTable(a, b, _union_cuts(a.n_rows, limit),
                   _union_cuts(b.n_cols, limit))
    for r in range(1, min(limit, max(a.n_rows, 1)) + 1):
        for c in range(1, min(limit, max(b.n_cols, 1)) + 1):
            grid = ChunkGrid.regular(a.n_rows, b.n_cols, r, c)
            cells = cut.cells(grid)
            assert cells.dtype == np.int64
            assert np.array_equal(cells, oracle.chunk_flops(a, b, grid) // 2)
            assert np.array_equal(cut.sizing(grid).products, cells)


PLAN_CASE = dict(problem=problems(), fraction=st.floats(0.0, 1.0),
                 buffers=st.sampled_from([1, 2]))
CUT_CASE = dict(problem=problems(), limit=st.sampled_from([3, 8]))


class TestGeneratedPlansMatchOracle:
    @given(**PLAN_CASE)
    @settings(max_examples=50, deadline=None)
    def test_same_plan_or_same_refusal(self, **case):
        check_plan_matches_oracle(**case)

    @needs_native
    @given(**CUT_CASE)
    @settings(max_examples=50, deadline=None)
    def test_cut_table_prices_every_grid_of_a_round(self, **case):
        check_cut_table_prices_every_grid(**case)

    @pytest.mark.soak
    @given(**PLAN_CASE)
    @settings(max_examples=2000, deadline=None)
    def test_soak_same_plan_or_same_refusal(self, **case):
        check_plan_matches_oracle(**case)

    @needs_native
    @pytest.mark.soak
    @given(**CUT_CASE)
    @settings(max_examples=2000, deadline=None)
    def test_soak_cut_table_prices_every_grid_of_a_round(self, **case):
        check_cut_table_prices_every_grid(**case)

    @needs_native
    def test_a_grid_off_the_cuts_is_refused(self):
        m = rmat(6, 4.0, seed=1)
        cut = CutTable(m, m, _union_cuts(64, 4), _union_cuts(64, 4))
        with pytest.raises(ValueError, match="not cuts of this table"):
            cut.cells(ChunkGrid.regular(64, 64, 5, 2))


@st.composite
def cut_problems(draw):
    """Rectangular ``A``, ``B`` (masks with empty rows and columns) whose
    B rows may hold their column ids in any order, 1 to 64 sorted row
    cuts anywhere in ``[0, m]`` (empty segments included) and 1 to 64
    column cuts from 0 to ``n`` (empty buckets included)."""
    m, k, n = (draw(st.integers(0, 80)) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    masks = []
    for rows, cols in ((m, k), (k, n)):
        mask = rng.random((rows, cols)) < draw(st.floats(0.0, 0.5))
        mask[rng.random(rows) < 0.2, :] = False
        mask[:, rng.random(cols) < 0.2] = False
        masks.append(mask)
    a = from_mask(masks[0])
    b = from_mask(masks[1])
    if draw(st.booleans()):   # each row of B in a random column order
        order = np.concatenate([np.zeros(0, dtype=np.int64)] + [
            lo + rng.permutation(hi - lo)
            for lo, hi in zip(b.row_offsets[:-1], b.row_offsets[1:])])
        b = CSRMatrix(k, n, b.row_offsets, b.col_ids[order], b.data[order],
                      check=False)
    row_cuts = np.array(sorted(draw(st.sets(
        st.integers(0, m), min_size=1, max_size=min(64, m + 1)))), dtype=np.int64)
    inner = draw(st.sets(st.integers(1, n - 1), max_size=62)) if n > 1 else set()
    col_cuts = np.array(sorted({0, n} | inner), dtype=np.int64)
    return a, b, row_cuts, col_cuts


class TestNativeCutTableEqualsNumpy:
    """The cut table's one native sweep against ``w @ cnt`` in numpy:
    ``cnt[k, q]``, B row ``k``'s elements in bucket ``q``, counted from
    each element's column; ``w[s, k]``, how often segment ``s`` of A
    references row ``k``."""

    @needs_native
    @given(problem=cut_problems())
    @settings(max_examples=300, deadline=None)
    def test_cells_equal_the_numpy_product(self, problem):
        a, b, row_cuts, col_cuts = problem
        buckets = col_cuts.size - 1
        cnt = np.zeros((b.n_rows, buckets), dtype=np.int64)
        np.add.at(cnt, (b.expand_row_ids(),
                        np.searchsorted(col_cuts, b.col_ids, side="right") - 1), 1)
        seg = np.searchsorted(row_cuts, a.expand_row_ids(), side="right") - 1
        inside = (seg >= 0) & (seg < row_cuts.size - 1)
        w = np.zeros((row_cuts.size - 1, b.n_rows), dtype=np.int64)
        np.add.at(w, (seg[inside], a.col_ids[inside]), 1)

        cut = CutTable(a, b, row_cuts, col_cuts)
        assert cut.prefix.dtype == np.int64
        assert np.array_equal(cut.prefix,
                              np.pad((w @ cnt).cumsum(0).cumsum(1), ((1, 0), (1, 0))))

    @needs_native
    def test_cuts_off_the_operands_are_refused(self):
        m = rmat(6, 4.0, seed=1)
        good = _union_cuts(64, 4)
        for rows, cols in ((np.array([0, 65]), good), (np.array([3, 2]), good),
                           (good, np.array([0, 32])), (good, np.array([1, 64])),
                           (good, np.array([0, 40, 30, 64]))):
            with pytest.raises(ValueError, match="cuts must be sorted"):
                CutTable(m, m, rows, cols)


# ----------------------------------------------------------------------
# regression guard: one scan of B per round, none of A row by row, no
# nnz_A x c temporary
# ----------------------------------------------------------------------
@pytest.fixture(params=["banded", "rmat"])
def guarded(request, monkeypatch):
    """An operand dense enough per row (~70 / ~22 nnz) that ``nnz_A x c``
    dwarfs ``n_rows x c``, a device that forces a plan of 8 / 13 column
    panels (the second past the first round), and counters on the one
    function that scans B and the one that scans A row by row."""
    m = (banded(3000, 40, seed=5, fill=0.9) if request.param == "banded"
         else rmat(11, 32.0, seed=5))
    node = v100_node(device_for(m, 0.3))
    scans = {"b_buckets": [], "a_prefixes": 0}
    real_cells, real_prefix = chunks_mod.native_cut_cells, chunks_mod.product_prefix

    def counting_cells(a, b, row_cuts, col_cuts):
        scans["b_buckets"].append(len(col_cuts) - 1)
        return real_cells(a, b, row_cuts, col_cuts)

    def counting_prefix(*args, **kwargs):
        scans["a_prefixes"] += 1
        return real_prefix(*args, **kwargs)

    monkeypatch.setattr(chunks_mod, "native_cut_cells", counting_cells)
    monkeypatch.setattr(chunks_mod, "product_prefix", counting_prefix)
    return m, node, scans


@needs_native
class TestPlannerWorkIsBounded:
    def test_one_scan_of_b_per_column_count(self, guarded):
        """The parent's bound (one scan per column count), tightened: one
        per *round*, and no pass over A per panel at all."""
        m, node, scans = guarded
        report = plan_grid(m, m, node)
        c = report.grid.num_col_panels
        assert c >= 8                                # many shapes were priced
        # one scan per round (limits 8, 16), where the per-c planner
        # made one per column count; and no pass over A per panel
        assert len(scans["b_buckets"]) == (1 if c <= 8 else 2)
        assert scans["a_prefixes"] == 0
        # the plan's sizing reads chunks without building its table
        assert report.sizing._table is None
        assert scans["b_buckets"] == sorted(scans["b_buckets"])

    def test_suite_operands_plan_in_one_scan(self, monkeypatch):
        """The bench-shaped default plan: one round, one scan of B."""
        calls = []
        real = chunks_mod.native_cut_cells
        monkeypatch.setattr(chunks_mod, "native_cut_cells",
                            lambda *args: calls.append(1) or real(*args))
        m = build_matrix("stokes")
        report = plan_grid(m, m, v100_node(device_for(m, 0.5)))
        assert report.grid.num_chunks > 1 and calls == [1]

    def test_peak_memory_is_rows_by_panels_not_nnz_by_panels(self, guarded):
        m, node, scans = guarded

        def peak(plan) -> int:
            tracemalloc.start()
            try:
                plan(m, m, node)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        new_peak = peak(plan_grid)
        # the cut table's scratch — a few words per B row and two per B
        # element — under what the widest round's dense tables took (B's
        # rows by its buckets, counted and prefix-summed, plus four
        # nnz-sized scratch arrays): never n_rows_A x sum(c), never
        # nnz_A x c
        buckets = max(scans["b_buckets"])
        bound = 8 * (m.n_rows * 2 * buckets + 4 * m.nnz)
        assert new_peak <= bound
        # and the bound is tight enough to notice the gather coming back
        assert peak(oracle.plan_grid) > bound


@pytest.fixture
def tables_built(monkeypatch):
    """The column count of every ``ProductTable`` constructed."""
    built = []
    real = ProductTable.__init__

    def counting(self, a, b, col_bounds):
        built.append(len(col_bounds) - 1)
        real(self, a, b, col_bounds)

    monkeypatch.setattr(ProductTable, "__init__", counting)
    return built


@needs_native
class TestRunReadsThePlannersTables:
    """A run builds a row-level table only when a reader asks for rows:
    ordering, both admissions and the re-split pre-check read chunk-level
    numbers; the governor's re-split reads rows, off one table of the
    run's column count."""

    LIMITS = dict(host_mem_budget_bytes=1 << 30)

    @pytest.fixture(scope="class")
    def planned(self):
        m = rmat(10, 24.0, seed=5)    # plans 4 x 13
        return m, v100_node(device_for(m, 0.3))

    def test_governed_grid_run_builds_no_table(self, planned, tables_built):
        """The cut table prices every candidate without a row-level
        table, and the governed run that reads the plan's sizing builds
        none either."""
        m, node = planned
        report = plan_grid(m, m, node)
        assert report.grid.num_col_panels > 1            # several c were visited
        gov = GovernorConfig(device_pool_bytes=report.worst_chunk_bytes,
                             **self.LIMITS)
        profile, _ = execute_chunk_grid(
            m, m, report.grid, sizing=report.sizing, governor=gov,
            workers=2, backend="thread")
        assert tables_built == []
        assert [c.flops for c in profile.chunks] == report.flops.ravel().tolist()

    def test_governed_run_out_of_core_builds_the_planners_tables(
            self, planned, tables_built):
        """... which are none: every chunk fits, nothing reads rows."""
        m, node = planned
        report = plan_grid(m, m, node)
        gov = GovernorConfig(device_pool_bytes=report.worst_chunk_bytes,
                             **self.LIMITS)
        run_out_of_core(m, m, node, governor=gov, workers=2)
        assert tables_built == []

    def test_ungoverned_serial_run_builds_no_sizing(self, planned,
                                                    tables_built):
        m, node = planned
        execute_chunk_grid(m, m, ChunkGrid.regular(m.n_rows, m.n_cols, 3, 2))
        run_out_of_core(m, m, node)
        assert tables_built == []

    @pytest.mark.parametrize("backend,workers", [("serial", 1), ("thread", 3)])
    def test_a_forced_resplit_builds_the_runs_table_once(
            self, planned, tables_built, backend, workers):
        """A pool under the worst chunks re-splits several of them; all
        size their sub-panels off one table of the run's column count."""
        m, node = planned
        report = plan_grid(m, m, node)
        pool = int(np.sort(report.sizing.device_bytes)[-3]) - 1
        gov = GovernorConfig(device_pool_bytes=pool, **self.LIMITS)
        tracer = Tracer()
        result = run_out_of_core(m, m, node, governor=gov, workers=workers,
                                 backend=backend, tracer=tracer)
        assert_equals_scipy_product(result.matrix, m, m)
        assert tracer.counters("faults")["resplits"] >= 3
        assert tables_built == [report.grid.num_col_panels]


class TestEngineTakesFlops:
    @needs_native
    def test_given_flops_the_engine_derives_none(self, tables_built):
        """Ordering and both governor bounds come from the sizing passed
        in; ``run_hybrid`` hands over the plan's."""
        m = rmat(8, 8.0, seed=3)
        grid = ChunkGrid.regular(m.n_rows, m.n_cols, 3, 2)
        sizing = GridSizing(m, m, grid)
        gov = GovernorConfig(device_pool_bytes=1 << 30,
                             host_mem_budget_bytes=1 << 30)
        profile, _ = execute_chunk_grid(m, m, grid, workers=2, backend="thread",
                                        governor=gov, sizing=sizing)
        assert [c.flops for c in profile.chunks] == sizing.flops.ravel().tolist()
        run_hybrid(m, m, v100_node(1 << 30), workers=2)
        assert tables_built == []

    def test_flops_of_another_grid_are_refused(self):
        m = rmat(8, 8.0, seed=3)
        grid = ChunkGrid.regular(m.n_rows, m.n_cols, 3, 2)
        other = GridSizing(m, m, ChunkGrid.regular(m.n_rows, m.n_cols, 2, 3))
        with pytest.raises(ValueError, match="sizing is of another grid"):
            execute_chunk_grid(m, m, grid, sizing=other)


# ----------------------------------------------------------------------
# default grids: every shape the kernels take, the planners take
# ----------------------------------------------------------------------
def shaped(m, k, n):
    """A ``problems()`` example of dense ``m x k`` and ``k x n`` masks."""
    return (np.ones((m, k), dtype=bool), np.ones((k, n), dtype=bool),
            ChunkGrid.regular(m, n, 1, 1))


class TestDefaultGridsTakeEveryShape:
    @given(problem=problems())
    @example(problem=shaped(0, 5, 4))    # no rows
    @example(problem=shaped(5, 4, 0))    # no columns
    @example(problem=shaped(0, 0, 0))
    @example(problem=shaped(1, 5, 4))    # fewer rows than shards
    @example(problem=shaped(2, 3, 1))
    @settings(max_examples=40, deadline=None)
    def test_entry_points_equal_scipy(self, problem):
        """No grid is named: ``plan_grid`` plans one panel for an empty
        dimension and ``run_sharded`` clamps its split to the rows and
        columns that exist."""
        a, b = from_mask(problem[0]), from_mask(problem[1])
        assert_equals_scipy_product(run_out_of_core(a, b).matrix, a, b)
        assert_equals_scipy_product(run_hybrid(a, b, workers=2).matrix, a, b)
        for num_shards in (1, 2, 3):
            res = run_sharded(a, b, ShardConfig(num_shards=num_shards))
            assert_equals_scipy_product(res.matrix, a, b)
            assert res.num_shards <= max(a.n_rows, 1)


# ----------------------------------------------------------------------
# refusals
# ----------------------------------------------------------------------
class TestRefusals:
    @pytest.mark.parametrize("b_rows", [30, 50])  # B shorter / taller than A is wide
    def test_shape_mismatch_is_refused(self, b_rows):
        a = from_mask(np.ones((20, 40), dtype=bool))
        b = from_mask(np.ones((b_rows, 10), dtype=bool))
        grid = ChunkGrid.regular(20, 10, 2, 2)
        message = r"dimension mismatch: A is \(20, 40\), B is \(%d, 10\)" % b_rows
        with pytest.raises(ValueError, match=message):
            ProductTable(a, b, grid.col_bounds)
        with pytest.raises(ValueError, match=message):
            chunk_flops(a, b, grid)
        with pytest.raises(ValueError, match=message):
            plan_grid(a, b, v100_node(1 << 30))
        with pytest.raises(ValueError, match=message):
            GridSizing(a, b, grid)

    def test_inputs_larger_than_device_says_so(self):
        m = rmat(10, 8.0, seed=91)
        device = 1 << 10
        resident = resident_input_bytes(m, m, 1)
        with pytest.raises(ValueError, match="no grid") as err:
            plan_grid(m, m, v100_node(device))
        assert "resident_input_bytes" in str(err.value)
        assert f"{resident} bytes" in str(err.value)
        assert f"{device} bytes" in str(err.value)
