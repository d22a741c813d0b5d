"""The output layout: C counted over the grid, allocated once, every
chunk written at its final address.

One property — the in-place product, ``assemble_chunks`` of the chunk
path and the ``hstack``/``vstack`` concatenation the layout replaced are
the same bytes, with equal profiles — checked over generated operands,
grids, kernels and backends; then the refusals that make writing into a
shared buffer safe, and a guard on what a default run allocates that
reads no clock.
"""

import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings

import repro.sparse.ops as ops_mod
from repro.core.api import run_hybrid, run_out_of_core
from repro.core.assemble import OutputLayout, assemble_chunks
from repro.core.chunks import ChunkGrid, csr_bytes
from repro.core.executor import execute_chunk_grid
from repro.core.governor import GovernorConfig
from repro.core.planner import working_set_bytes
from repro.core.spill import Checkpoint, DiskChunkStore, MemoryChunkStore
from repro.device.specs import v100_node
from repro.observability import Tracer
from repro.sparse.formats import CSRMatrix
from repro.sparse.generators import banded, random_csr, rmat
from repro.sparse.ops import hstack, vstack
from repro.spgemm.native import (
    native_available,
    native_build_error,
    native_fill_slots,
)
from repro.spgemm.numeric import RowSlots, place_rows
from repro.spgemm.twophase import spgemm_numeric, spgemm_symbolic, spgemm_twophase
from tests.conftest import assert_same_bytes
from tests.core.test_product_table import problems

needs_native = pytest.mark.skipif(
    not native_available(),
    reason=f"native kernel unavailable: {native_build_error()}",
)

KINDS = [k for k in ("native", "esc")
         if k != "native" or native_available()]
BACKENDS = [("serial", 1), ("thread", 3)]


def oracle(outputs) -> CSRMatrix:
    """What ``assemble_chunks`` was before the layout: every strip
    ``hstack``-ed, the strips ``vstack``-ed."""
    return vstack([hstack(list(row)) for row in outputs])


def traced_peak(fn) -> int:
    """Peak bytes allocated while ``fn()`` ran (its result dropped)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def with_values(mask: np.ndarray) -> CSRMatrix:
    """The pattern with seeded non-integer values, so a changed
    accumulation order would change bits."""
    rng = np.random.default_rng(int(mask.sum()) + 7 * mask.shape[1])
    return CSRMatrix.from_scipy(sp.csr_matrix(mask * rng.uniform(0.5, 1.5, mask.shape)))


# ----------------------------------------------------------------------
# one property, one oracle
# ----------------------------------------------------------------------
class TestInPlaceIsTheChunkPathIsTheOracle:
    @given(problem=problems())
    @settings(max_examples=100, deadline=None)
    def test_every_kernel_and_backend(self, problem):
        a_mask, b_mask, grid = problem
        a, b = with_values(a_mask), with_values(b_mask)
        pattern = (sp.csr_matrix(a_mask.astype(np.int64))
                   @ sp.csr_matrix(b_mask.astype(np.int64))).tocsr()
        pattern.sort_indices()
        for kind in KINDS:
            chunk_profile, outputs = execute_chunk_grid(
                a, b, grid, keep_outputs=True, kernel=kind)
            ref = oracle(outputs)
            assert_same_bytes(assemble_chunks(outputs), ref)
            # scipy agrees on the stored structure (positive values: no
            # cancellation, so structure is the pattern product's)
            np.testing.assert_array_equal(ref.row_offsets, pattern.indptr)
            np.testing.assert_array_equal(ref.col_ids, pattern.indices)
            for backend, workers in BACKENDS:
                profile, c = execute_chunk_grid(
                    a, b, grid, assemble=True, kernel=kind,
                    backend=backend, workers=workers)
                assert_same_bytes(c, ref)
                assert profile == chunk_profile

    @pytest.mark.parametrize("kind", KINDS)
    def test_api_entry_points_are_the_oracle(self, kind):
        a = rmat(8, 6.0, seed=5)
        grid = ChunkGrid.regular(a.n_rows, a.n_cols, 3, 4)
        _, outputs = execute_chunk_grid(a, a, grid, keep_outputs=True, kernel=kind)
        ref = oracle(outputs)
        assert_same_bytes(run_out_of_core(a, a, grid=grid, kernel=kind).matrix, ref)
        assert_same_bytes(
            run_out_of_core(a, a, grid=grid, kernel=kind, workers=3).matrix, ref)
        assert_same_bytes(
            run_hybrid(a, a, grid=grid, kernel=kind, workers=2).matrix, ref)
        # a caller that needs chunk objects (a store) takes the chunk path
        store = MemoryChunkStore()
        assert_same_bytes(
            run_out_of_core(a, a, grid=grid, kernel=kind, chunk_store=store).matrix,
            ref)
        assert_same_bytes(store.assemble(), ref)

    def test_process_backend_assembles_by_copy(self):
        a = rmat(8, 6.0, seed=5)
        grid = ChunkGrid.regular(a.n_rows, a.n_cols, 2, 2)
        chunk_profile, outputs = execute_chunk_grid(a, a, grid, keep_outputs=True)
        profile, c = execute_chunk_grid(a, a, grid, assemble=True,
                                        backend="process", workers=2)
        assert_same_bytes(c, oracle(outputs))
        assert profile == chunk_profile

    @pytest.mark.parametrize("faults", [None, "symbolic:oom:chunk=1",
                                        "numeric:oom:chunk=2"])
    def test_resplit_chunks_are_placed(self, faults):
        """A chunk that is re-split — by the device bound before either
        pass, or by an overflow inside one — arrives as a matrix and is
        copied into the same layout."""
        a = rmat(8, 8.0, seed=3)
        grid = ChunkGrid.regular(a.n_rows, a.n_cols, 2, 2)
        _, outputs = execute_chunk_grid(a, a, grid, keep_outputs=True)
        # without a fault: a pool every whole chunk overflows
        pool = (1 << 30) if faults else (1 << 16)
        tracer = Tracer()
        profile, c = execute_chunk_grid(
            a, a, grid, assemble=True, tracer=tracer, faults=faults or "",
            governor=GovernorConfig(device_pool_bytes=pool))
        assert_same_bytes(c, oracle(outputs))
        assert profile.total_nnz_out == c.nnz
        assert tracer.counters("faults").get("resplits", 0) >= 1

    def test_return_form_is_one_or_the_other(self):
        a = random_csr(10, 10, 30, seed=1)
        grid = ChunkGrid.regular(10, 10, 2, 2)
        with pytest.raises(ValueError, match="assemble=True"):
            execute_chunk_grid(a, a, grid, assemble=True, keep_outputs=True)
        profile, none = execute_chunk_grid(a, a, grid)
        assert none is None and profile.total_nnz_out > 0


# ----------------------------------------------------------------------
# the layout validates before it allocates
# ----------------------------------------------------------------------
class TestLayoutValidation:
    @pytest.fixture
    def chunks(self):
        a = rmat(7, 6.0, seed=2)
        grid = ChunkGrid.regular(a.n_rows, a.n_cols, 2, 3)
        return execute_chunk_grid(a, a, grid, keep_outputs=True)[1]

    def test_missing_chunk_is_named(self, chunks):
        chunks[1][2] = None
        with pytest.raises(ValueError, match=r"chunk \(1, 2\) is missing"):
            assemble_chunks(chunks)

    def test_row_count_disagreement_is_named(self, chunks):
        tall = chunks[1][1]
        chunks[1][1] = CSRMatrix.empty(tall.n_rows + 3, tall.n_cols)
        with pytest.raises(ValueError, match=(
                rf"row panel 1 is {tall.n_rows} rows tall, chunk \(1, 1\) "
                rf"has {tall.n_rows + 3}")):
            assemble_chunks(chunks)

    def test_width_disagreement_is_named(self, chunks):
        wide = chunks[1][0]
        chunks[1][0] = CSRMatrix.empty(wide.n_rows, wide.n_cols + 1)
        with pytest.raises(ValueError, match=(
                rf"column panel 0 has inconsistent widths: chunk \(1, 0\) is "
                rf"{wide.n_cols + 1} wide, chunk \(0, 0\) is {wide.n_cols}")):
            assemble_chunks(chunks)

    def test_unsealed_and_uncounted(self):
        layout = OutputLayout([0, 2, 4], [0, 3])
        with pytest.raises(RuntimeError, match="seal"):
            layout.slots(0, 0)
        layout.set_counts(0, 0, np.array([1, 2]))
        with pytest.raises(ValueError, match=r"chunk \(1, 0\) is missing"):
            layout.seal()
        assert not layout.sealed                     # nothing was allocated
        layout.set_counts(1, 0, np.array([0, 3]))
        layout.seal()
        np.testing.assert_array_equal(layout.matrix().row_offsets, [0, 1, 3, 3, 6])
        with pytest.raises(RuntimeError, match="sealed"):
            layout.set_counts(0, 0, np.array([1, 2]))

    def test_prefix_sum_orders_panels_within_a_row(self):
        layout = OutputLayout([0, 2], [0, 4, 6, 9])
        for cp, counts in enumerate(([2, 0], [1, 1], [0, 3])):
            layout.set_counts(0, cp, np.array(counts))
        layout.seal()
        starts = [layout.slots(0, cp).starts.tolist() for cp in range(3)]
        assert starts == [[0, 3], [2, 3], [3, 4]]
        assert [layout.slots(0, cp).shift for cp in range(3)] == [0, 4, 6]


# ----------------------------------------------------------------------
# refusals: a row is checked against its slot before it is written
# ----------------------------------------------------------------------
PAD = 64


class Guarded:
    """Output arrays in the middle of sentinel padding, which every test
    must leave untouched."""

    def __init__(self, nnz: int) -> None:
        self.cols = np.full(nnz + 2 * PAD, -7, dtype=np.int64)
        self.vals = np.full(nnz + 2 * PAD, -7.0)
        self.nnz = nnz

    def slots(self, starts, counts, shift=0) -> RowSlots:
        # copies: the tests edit them
        return RowSlots(np.array(starts, dtype=np.int64),
                        np.array(counts, dtype=np.int64), shift,
                        self.cols[PAD:PAD + self.nnz], self.vals[PAD:PAD + self.nnz])

    def padding_untouched(self) -> bool:
        return all(np.all(arr[:PAD] == -7) and np.all(arr[PAD + self.nnz:] == -7)
                   for arr in (self.cols, self.vals))


@pytest.fixture
def problem():
    a = random_csr(25, 25, 150, seed=21)
    ref = spgemm_twophase(a, a, kernel="esc").matrix
    assert ref.nnz > 40 and ref.row_nnz().min() > 0
    return a, ref


BAD_SLOTS = {
    # name: (edit of (starts, counts, nnz), the row refused)
    "count_one_short": (lambda s, c, n: c.__setitem__(9, c[9] - 1), 9),
    "count_one_long": (lambda s, c, n: c.__setitem__(3, c[3] + 1), 3),
    "slot_before_the_buffer": (lambda s, c, n: s.__setitem__(0, -1), 0),
    "slot_overlaps_the_buffer_end":
        (lambda s, c, n: s.__setitem__(24, n - c[24] + 1), 24),
    "slot_far_outside":
        (lambda s, c, n: s.__setitem__(5, np.iinfo(np.int64).max // 2), 5),
}


class TestSlotsRefuseBadRows:
    """The ``(start, count)`` form of ``TestFillRefusesBadSlots``, for
    both writers: the fill kernel and the ``place`` copy."""

    @needs_native
    def test_fill_intact_slots_with_a_shift(self, problem):
        a, ref = problem
        out = Guarded(ref.nnz)
        slots = out.slots(ref.row_offsets[:-1], ref.row_nnz(), shift=1000)
        native_fill_slots(a, a, np.arange(a.n_rows), slots.starts, slots.counts,
                          slots.shift, slots.col_ids, slots.data)
        np.testing.assert_array_equal(slots.col_ids, ref.col_ids + 1000)
        np.testing.assert_array_equal(slots.data.view(np.int64),
                                      ref.data.view(np.int64))
        assert out.padding_untouched()

    @needs_native
    @pytest.mark.parametrize("case", BAD_SLOTS)
    def test_fill_refuses(self, problem, case):
        a, ref = problem
        edit, row = BAD_SLOTS[case]
        out = Guarded(ref.nnz)
        slots = out.slots(ref.row_offsets[:-1], ref.row_nnz())
        edit(slots.starts, slots.counts, ref.nnz)
        with pytest.raises(RuntimeError, match=f"row {row} does not fit its slot"):
            native_fill_slots(a, a, np.arange(a.n_rows), slots.starts,
                              slots.counts, 0, slots.col_ids, slots.data)
        assert out.padding_untouched()
        # rows run in order: the refused row's slot and everything after
        # it were never written
        assert np.all(slots.col_ids[ref.row_offsets[row]:] == -7)

    @needs_native
    def test_fill_rejects_slots_it_cannot_address(self, problem):
        a, ref = problem
        out = Guarded(ref.nnz)
        slots = out.slots(ref.row_offsets[:-1], ref.row_nnz())
        rows = np.arange(a.n_rows)
        with pytest.raises(ValueError, match="starts/counts"):
            native_fill_slots(a, a, rows, slots.starts[:-1], slots.counts, 0,
                              slots.col_ids, slots.data)
        with pytest.raises(ValueError, match="starts/counts"):
            native_fill_slots(a, a, rows, slots.starts,
                              slots.counts.astype(np.int32), 0,
                              slots.col_ids, slots.data)

    def test_place_intact_slots_with_a_shift(self, problem):
        _, ref = problem
        out = Guarded(ref.nnz)
        slots = out.slots(ref.row_offsets[:-1], ref.row_nnz(), shift=17)
        place_rows(ref.row_offsets, ref.col_ids, ref.data, slots)
        np.testing.assert_array_equal(slots.col_ids, ref.col_ids + 17)
        np.testing.assert_array_equal(slots.data, ref.data)
        assert out.padding_untouched()

    @pytest.mark.parametrize("case", BAD_SLOTS)
    def test_place_refuses(self, problem, case):
        _, ref = problem
        edit, row = BAD_SLOTS[case]
        out = Guarded(ref.nnz)
        slots = out.slots(ref.row_offsets[:-1], ref.row_nnz())
        edit(slots.starts, slots.counts, ref.nnz)
        with pytest.raises(RuntimeError, match=f"row {row} does not fit its slot"):
            place_rows(ref.row_offsets, ref.col_ids, ref.data, slots)
        assert out.padding_untouched()

    def test_place_names_the_slot_row_of_a_scattered_group(self, problem):
        _, ref = problem
        out = Guarded(ref.nnz)
        counts = ref.row_nnz()
        counts[11] += 1
        slots = out.slots(ref.row_offsets[:-1], counts)
        rows = np.array([4, 11, 20])
        sub = vstack([ref.row_slice(r, r + 1) for r in rows])
        with pytest.raises(RuntimeError, match="row 11 does not fit its slot"):
            place_rows(sub.row_offsets, sub.col_ids, sub.data, slots, rows=rows)
        assert out.padding_untouched()

    def test_place_refuses_a_source_that_leaves_its_arrays(self, problem):
        _, ref = problem
        out = Guarded(ref.nnz)
        slots = out.slots(ref.row_offsets[:-1], ref.row_nnz())
        with pytest.raises(RuntimeError, match="row 24 does not fit its slot"):
            place_rows(ref.row_offsets, ref.col_ids[:-1], ref.data[:-1], slots)
        assert out.padding_untouched()

    def test_layout_place_of_a_chunk_with_other_row_counts(self):
        a = rmat(7, 6.0, seed=2)
        grid = ChunkGrid.regular(a.n_rows, a.n_cols, 2, 2)
        _, outputs = execute_chunk_grid(a, a, grid, keep_outputs=True)
        layout = OutputLayout.from_counts(
            [[c.row_nnz() for c in row] for row in outputs],
            [[c.n_cols for c in row] for row in outputs])
        before = layout.matrix().col_ids.copy()
        # same shape, same nnz, two rows traded an entry
        donor = outputs[1][0]
        counts = donor.row_nnz()
        rich, poor = int(np.argmax(counts)), int(np.argmin(counts))
        counts[rich] -= 1
        counts[poor] += 1
        offsets = np.concatenate([[0], np.cumsum(counts)])
        forged = CSRMatrix(donor.n_rows, donor.n_cols, offsets, donor.col_ids,
                           donor.data, check=False)
        first = min(rich, poor)
        with pytest.raises(RuntimeError, match=(
                rf"chunk \(1, 0\): row {first} does not fit its slot")):
            layout.place(1, 0, forged)
        with pytest.raises(ValueError, match=r"chunk \(0, 1\) is \(\d+, \d+\), its place"):
            layout.place(0, 1, CSRMatrix.empty(3, 3))
        if not native_available():  # the numpy copy writes nothing of a refused chunk
            np.testing.assert_array_equal(layout.matrix().col_ids, before)
        # placing the true chunk (again, after a refusal) still works
        for rp, row in enumerate(outputs):
            for cp, chunk in enumerate(row):
                layout.place(rp, cp, chunk)
                layout.place(rp, cp, chunk)
        assert_same_bytes(layout.matrix(), oracle(outputs))

    @pytest.mark.parametrize("kind", KINDS)
    def test_numeric_refuses_a_destination_with_other_counts(self, kind):
        a = random_csr(20, 20, 90, seed=4)
        sym = spgemm_symbolic(a, a, kernel=kind)
        counts = sym.row_nnz.copy()
        # an empty row if there is one: no kernel would ever visit it
        row = int(np.argmin(counts))
        counts[row] += 1
        out = Guarded(int(counts.sum()))
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
        with pytest.raises(RuntimeError, match=f"row {row} does not fit its slot"):
            spgemm_numeric(sym, dest=out.slots(starts, counts))
        assert out.padding_untouched()
        assert np.all(out.cols == -7)          # refused before anything ran


# ----------------------------------------------------------------------
# store.assemble(): one chunk at a time
# ----------------------------------------------------------------------
class TestStoreAssemble:
    def test_disk_store_holds_one_chunk_beside_the_product(self, tmp_path):
        a = rmat(10, 10.0, seed=6)
        grid = ChunkGrid.regular(a.n_rows, a.n_cols, 6, 4)
        _, outputs = execute_chunk_grid(a, a, grid, keep_outputs=True)
        ref = oracle(outputs)
        store = DiskChunkStore(tmp_path / "chunks")
        for rp, row in enumerate(outputs):
            for cp, chunk in enumerate(row):
                store.put(rp, cp, chunk)
        sizes = {(rp, cp): chunk.nbytes() for rp, row in enumerate(outputs)
                 for cp, chunk in enumerate(row)}
        del outputs, row, chunk
        # what reading one chunk back costs: its decoded size plus the
        # inflate buffers of DiskChunkStore.get, measured on the largest
        one_get = traced_peak(lambda: store.get(*max(sizes, key=sizes.get)))
        holder = []
        peak = traced_peak(lambda: holder.append(store.assemble()))
        c = holder.pop()
        assert_same_bytes(c, ref)
        # C, one chunk in flight, the layout's tables — not C as chunks
        # (the parent held every chunk, every strip and C: three copies)
        c_bytes = csr_bytes(c.n_rows, c.nnz)
        tables = 16 * c.n_rows * grid.num_col_panels
        assert peak <= c_bytes + one_get + tables + (1 << 16), (peak, c_bytes, one_get)
        assert one_get < c_bytes / 2 and sum(sizes.values()) > 0.9 * c_bytes
        # a second store over the same directory adopts the files: no
        # remembered counts, same bytes
        adopted = DiskChunkStore(tmp_path / "chunks")
        assert_same_bytes(adopted.assemble(), ref)
        store.close()

    def test_discard_forgets_the_counts(self):
        a = rmat(7, 6.0, seed=2)
        grid = ChunkGrid.regular(a.n_rows, a.n_cols, 2, 2)
        _, outputs = execute_chunk_grid(a, a, grid, keep_outputs=True)
        store = MemoryChunkStore()
        for rp, row in enumerate(outputs):
            for cp, chunk in enumerate(row):
                store.put(rp, cp, chunk)
        store.discard(1, 1)
        with pytest.raises(ValueError, match="incomplete"):
            store.assemble()
        store.put(1, 1, outputs[1][1])
        assert_same_bytes(store.assemble(), oracle(outputs))


# ----------------------------------------------------------------------
# a strip run: the same C, written once into a disk store's file
# ----------------------------------------------------------------------
def strip_run(a, b, grid, **kwargs) -> CSRMatrix:
    """C of a run whose only sink is an empty disk store, from the
    store's ``assemble()`` and from its chunks' ``get()``; the store
    must have written strips, not chunk files."""
    with tempfile.TemporaryDirectory() as directory:
        store = DiskChunkStore(directory)
        execute_chunk_grid(a, b, grid, checkpoint=Checkpoint(store), **kwargs)
        assert [p.name for p in Path(directory).iterdir()] == ["c.strips"]
        c = store.assemble()
        rows, cols = store.grid_shape()
        chunks = [[store.get(i, j) for j in range(cols)] for i in range(rows)]
        assert_same_bytes(assemble_chunks(chunks), c)
        store.close()
    return c


class TestStripRunIsTheChunkPath:
    @given(problem=problems())
    @settings(max_examples=60, deadline=None)
    def test_every_kernel_and_backend(self, problem):
        a_mask, b_mask, grid = problem
        a, b = with_values(a_mask), with_values(b_mask)
        for kind in KINDS:
            _, outputs = execute_chunk_grid(a, b, grid, keep_outputs=True,
                                            kernel=kind)
            ref = assemble_chunks(outputs)
            for backend, workers in [("serial", 1), ("thread", 2)]:
                assert_same_bytes(strip_run(a, b, grid, kernel=kind,
                                            backend=backend, workers=workers),
                                  ref)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("panels", [(1, 1), (4, 1), (1, 3), (4, 3)])
    def test_grids_and_a_rectangular_product(self, kind, panels):
        a = random_csr(60, 45, 300, seed=11).to_scipy().toarray()
        b = random_csr(45, 70, 280, seed=12).to_scipy().toarray()
        a[15:30] = 0.0          # C's row panel 1 of 4 is empty,
        b[:, :24] = 0.0         # and its column panel 0 of 3
        a, b = (CSRMatrix.from_scipy(sp.csr_matrix(m)) for m in (a, b))
        grid = ChunkGrid.regular(60, 70, *panels)
        _, outputs = execute_chunk_grid(a, b, grid, keep_outputs=True, kernel=kind)
        ref = assemble_chunks(outputs)
        for backend, workers in [("serial", 1), ("thread", 2)]:
            assert_same_bytes(strip_run(a, b, grid, kernel=kind,
                                        backend=backend, workers=workers), ref)

    def test_a_chunk_counts_once_and_a_failed_write_stays_open(self):
        class Sink:
            def __init__(self):
                self.written, self.fail = [], True

            def open_strips(self, layout):
                pass

            def write_strip(self, row_panel, first, col_ids, data):
                if self.fail:
                    self.fail = False
                    raise OSError("disk full")
                self.written.append((row_panel, int(first), col_ids.tolist()))

        layout = OutputLayout([0, 1, 3], [0, 2, 4], Sink())
        for rp, cp, row_nnz in [(0, 0, [1]), (0, 1, [2]), (1, 0, [1, 0]),
                                (1, 1, [0, 1])]:
            layout.set_counts(rp, cp, np.array(row_nnz))
        layout.seal()
        with pytest.raises(RuntimeError, match="sink"):
            layout.matrix()
        for cp, cols in [(0, [1]), (1, [0, 1])]:
            slots = layout.slots(0, cp)
            slots.col_ids[slots.starts[0]:][:len(cols)] = np.add(cols, slots.shift)
        layout.filled(0, 0)
        layout.filled(0, 0)                     # landed again: counts once
        assert layout.sink.written == []
        with pytest.raises(OSError):
            layout.filled(0, 1)
        layout.filled(0, 1)                     # the retry writes the strip
        for cp, col in [(0, 1), (1, 2)]:
            slots = layout.slots(1, cp)
            slots.col_ids[slots.starts[cp]] = col
            layout.filled(1, cp)
        assert layout.sink.written == [(0, 0, [1, 2, 3]), (1, 3, [1, 2])]
        assert layout._strips == {}

    @needs_native  # the numpy kernels' own intermediates dwarf C
    def test_the_heap_never_holds_c(self):
        a = rmat(11, 14.0, seed=1)
        grid = ChunkGrid.regular(a.n_rows, a.n_cols, 8, 2)
        c_bytes = csr_bytes(a.n_rows, strip_run(a, a, grid).nnz)  # (and a warm-up)

        def run():
            with tempfile.TemporaryDirectory() as directory:
                store = DiskChunkStore(directory)
                execute_chunk_grid(a, a, grid, checkpoint=Checkpoint(store))
                store.close()

        peak = traced_peak(run)
        # one strip of eight beside the operand panels, never C
        assert peak < c_bytes / 2, (peak, c_bytes)


# ----------------------------------------------------------------------
# a guard that reads no clock
# ----------------------------------------------------------------------
def _refuse(name):
    def refused(*args, **kwargs):
        raise AssertionError(f"sparse.ops.{name} was called on the product path")
    return refused


@pytest.fixture(params=["rmat", "banded"])
def guarded(request, monkeypatch):
    """An operand, a device its product does not fit (the benchmark's
    rule: the inputs plus half of the rest of the working set, so the
    planner must chunk), ``hstack`` / ``vstack`` replaced by refusals
    wherever they are bound, and a counter of layout seals."""
    a = rmat(11, 14.0, seed=1) if request.param == "rmat" else banded(3000, 40, seed=1)
    whole = spgemm_twophase(a, a)
    c_nnz = whole.matrix.nnz
    inputs = 2 * csr_bytes(a.n_rows, a.nnz)
    rest = working_set_bytes(a.n_rows, a.nnz, whole.stats.flops, c_nnz) - inputs
    node = v100_node(inputs + max(rest // 2, 8 << 20))
    del whole
    for name in ("hstack", "vstack"):
        real = getattr(ops_mod, name)
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("repro")
                    and getattr(module, name, None) is real):
                monkeypatch.setattr(module, name, _refuse(name))
    seals = []
    real_seal = OutputLayout.seal

    def counting_seal(self):
        seals.append(self)
        real_seal(self)

    monkeypatch.setattr(OutputLayout, "seal", counting_seal)
    return a, node, csr_bytes(a.n_rows, c_nnz), seals


def panel_bytes(a: CSRMatrix, grid: ChunkGrid) -> int:
    """What the engine copies of the operands: A as row panels, B (= A
    here) as column panels, each panel with its own row offsets."""
    return 2 * a.nbytes() + 8 * a.n_rows * (grid.num_col_panels + 1)


class TestDefaultRunLaysOutOnce:
    def test_no_stack_and_one_allocation(self, guarded):
        a, node, c_bytes, seals = guarded
        result = run_out_of_core(a, a, node)    # hstack / vstack would raise
        grid = result.profile.grid
        assert grid.num_chunks >= 4 and grid.num_col_panels >= 2
        assert len(seals) == 1                  # the output arrays: allocated once
        assert seals[0].matrix() is result.matrix
        assert csr_bytes(a.n_rows, result.matrix.nnz) == c_bytes

    @needs_native  # the numpy kernels' own intermediates dwarf C
    def test_one_copy_of_c(self, guarded):
        a, node, c_bytes, seals = guarded
        grid = run_out_of_core(a, a, node).profile.grid   # (and a warm-up)
        peak = traced_peak(lambda: run_out_of_core(a, a, node))
        fixed = panel_bytes(a, grid)
        assert peak <= 1.3 * c_bytes + fixed, (peak, c_bytes, fixed)

    @needs_native
    def test_chunk_path_holds_two_copies_not_three(self, guarded):
        a, node, c_bytes, seals = guarded
        grid = run_out_of_core(a, a, node).profile.grid
        fixed = panel_bytes(a, grid)
        del seals[:]

        def chunk_path():
            return run_out_of_core(a, a, node, chunk_store=MemoryChunkStore(),
                                   keep_output=True)

        peak = traced_peak(chunk_path)
        assert len(seals) == 1
        # the chunks beside the operand panels while the grid runs, beside
        # C while it is assembled — never all three
        bound = max(2.3 * c_bytes, 1.3 * c_bytes + fixed)
        assert peak <= bound, (peak, c_bytes, fixed)
        # and the bound notices the strips coming back: the assemble this
        # replaced (chunks + strips + C, the module's oracle) fails it

        def parent():
            _, outputs = execute_chunk_grid(a, a, grid, keep_outputs=True)
            return oracle(outputs)

        old = traced_peak(parent)
        assert old > bound, (old, c_bytes, fixed)
