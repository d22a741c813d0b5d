"""Golden equivalence suite for the kernel-dispatch interface.

Pins the cross-kernel identity contract (DESIGN.md Section 10):

* every kernel produces the scipy product on a battery of adversarial
  inputs (empty rows, fully dense rows, single-column chunks,
  duplicate-heavy expansions, rectangular shapes);
* ``esc`` / ``native`` / ``auto`` combine duplicate products in the same
  ascending-``k`` expansion order and are therefore **bit-identical** to
  each other for arbitrary float inputs;
* the contract survives the execution engine: every backend x kernel
  combination of :func:`execute_chunk_grid` matches the serial ``esc``
  run bitwise, including under injected chaos faults with retries.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.chunks import ChunkGrid
from repro.core.executor import RetryPolicy, execute_chunk_grid
from repro.core.executor.faults import FaultInjector
from repro.sparse.formats import CSRMatrix
from repro.sparse.generators import banded, random_csr, rmat
from repro.spgemm.kernels import KERNEL_KINDS, KernelSpec, resolve_kernel
from repro.spgemm.native import native_available, native_build_error
from repro.spgemm.twophase import spgemm_twophase
from tests.conftest import assert_equals_scipy_product

needs_native = pytest.mark.skipif(
    not native_available(),
    reason=f"native kernel unavailable: {native_build_error()}",
)

#: every concrete kernel (auto exercised separately), native gated
ALL_KERNELS = ["esc", pytest.param("native", marks=needs_native)]

#: the expansion-order summation family: mutually bit-identical on floats
EXACT_KERNELS = ["esc", "auto", pytest.param("native", marks=needs_native)]


#: kernel x backend cases of the engine equivalence test
ENGINE_CASES = [
    pytest.param(kernel, backend,
                 marks=needs_native if kernel == "native" else ())
    for kernel in ("esc", "native")
    for backend in ("serial", "thread", "process")
]


def _with_integer_values(m: CSRMatrix) -> CSRMatrix:
    """Same pattern, small-integer values: float addition is exact, so
    *every* summation order gives bitwise equal results."""
    data = np.floor(m.data * 7.0) - 3.0
    data[data == 0.0] = 1.0
    return CSRMatrix(m.n_rows, m.n_cols, m.row_offsets, m.col_ids, data)


def _empty_rows_matrix() -> CSRMatrix:
    """Half the rows (and the matching B rows) are entirely empty."""
    m = random_csr(40, 40, 160, seed=101)
    dense = m.to_dense()
    dense[::2, :] = 0.0
    dense[:, 1::3] = 0.0
    return CSRMatrix.from_dense(dense)


def _dense_rows_matrix() -> CSRMatrix:
    """A few fully dense rows on top of a sparse background: the widest
    possible accumulator rows."""
    m = random_csr(30, 30, 90, seed=102)
    dense = m.to_dense()
    dense[3, :] = 1.25
    dense[17, :] = -0.5
    return CSRMatrix.from_dense(dense)


def _duplicate_heavy() -> CSRMatrix:
    """Tall expansion, tiny column space: nearly every intermediate
    product is a duplicate, stressing combination order."""
    return random_csr(25, 6, 300, seed=103)


ADVERSARIAL = {
    "empty_rows": lambda: (_empty_rows_matrix(),) * 2,
    "dense_rows": lambda: (_dense_rows_matrix(),) * 2,
    "duplicate_heavy": lambda: (_duplicate_heavy(),
                                random_csr(6, 25, 60, seed=104)),
    "single_column": lambda: (random_csr(20, 15, 70, seed=105),
                              random_csr(15, 1, 10, seed=106)),
    "single_row_b": lambda: (random_csr(12, 1, 9, seed=107),
                             random_csr(1, 18, 12, seed=108)),
    "rectangular": lambda: (random_csr(18, 33, 120, seed=109),
                            random_csr(33, 9, 80, seed=110)),
    "all_empty": lambda: (CSRMatrix.empty(8, 8),) * 2,
    "identity": lambda: (CSRMatrix.identity(16),) * 2,
    "rmat": lambda: (rmat(7, 6.0, seed=111),) * 2,
    "banded": lambda: (banded(90, 5, seed=112, fill=0.7),) * 2,
}


@pytest.fixture(params=sorted(ADVERSARIAL), name="ab")
def _ab(request):
    return ADVERSARIAL[request.param]()


class TestGoldenVsScipy:
    @pytest.mark.parametrize("kernel", ALL_KERNELS + ["auto"])
    def test_matches_scipy(self, ab, kernel):
        a, b = ab
        r = spgemm_twophase(a, b, kernel=kernel)
        assert_equals_scipy_product(r.matrix, a, b)

    @pytest.mark.parametrize("kernel", ALL_KERNELS + ["auto"])
    def test_integer_data_bit_identical_to_scipy(self, ab, kernel):
        """On integer-valued data float addition is exact, so every
        kernel must match scipy *bitwise*."""
        from repro.sparse.ops import drop_explicit_zeros
        from tests.reference import spgemm_scipy

        a, b = ab
        a, b = _with_integer_values(a), _with_integer_values(b)
        # ours keeps structural entries that cancelled to exact 0.0;
        # scipy prunes them — compare after the same pruning
        got = drop_explicit_zeros(spgemm_twophase(a, b, kernel=kernel).matrix)
        expected = spgemm_scipy(a, b)
        np.testing.assert_array_equal(got.row_offsets, expected.row_offsets)
        np.testing.assert_array_equal(got.col_ids, expected.col_ids)
        np.testing.assert_array_equal(got.data, expected.data)


class TestCrossKernelBitIdentity:
    def test_exact_family_bit_identical_on_floats(self, ab):
        """esc / native / auto share expansion-order summation:
        byte-identical products for arbitrary floats."""
        a, b = ab
        ref = spgemm_twophase(a, b, kernel="esc").matrix
        kinds = ["auto"]
        if native_available():
            kinds.append("native")
        for kind in kinds:
            got = spgemm_twophase(a, b, kernel=kind).matrix
            np.testing.assert_array_equal(ref.row_offsets, got.row_offsets,
                                          err_msg=kind)
            np.testing.assert_array_equal(ref.col_ids, got.col_ids,
                                          err_msg=kind)
            np.testing.assert_array_equal(ref.data, got.data, err_msg=kind)


#: products that are all -0.0: a sum seeded with +0.0 answers +0.0
NEGATIVE_ZEROS = {
    "one_product": ([[-0.0]], [[1.0]]),
    "two_products": ([[-0.0, -0.0]], [[1.0], [1.0]]),
    "underflow": ([[-5e-324]], [[0.5]]),
}


def _stored(dense) -> CSRMatrix:
    """Every cell of ``dense`` as a stored entry, zeros and their signs
    included (``from_dense`` would drop them)."""
    dense = np.asarray(dense, dtype=np.float64)
    n, m = dense.shape
    return CSRMatrix(n, m, np.arange(n + 1) * m, np.tile(np.arange(m), n),
                     dense.ravel())


class TestSignedZeros:
    """The contract covers the sign of zero: an entry whose products are
    all -0.0 is -0.0 from every kind, with and without the compiler."""

    @pytest.mark.parametrize("kernel", EXACT_KERNELS)
    @pytest.mark.parametrize("case", sorted(NEGATIVE_ZEROS))
    def test_a_sum_of_negative_zeros_is_negative_zero(self, case, kernel):
        a, b = map(_stored, NEGATIVE_ZEROS[case])
        got = spgemm_twophase(a, b, kernel=kernel).matrix
        assert got.col_ids.tolist() == [0]
        assert got.data.view(np.uint64).tolist() == [0x8000000000000000]


#: what a stored value may be: both zeros, both infinities, quiet NaNs of
#: both signs and one with a payload, the smallest subnormals, a larger
#: subnormal, values whose products overflow, and ordinary ones
SPECIAL_VALUES = np.concatenate([
    np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000001234],
             dtype=np.uint64).view(np.float64),
    [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1e-310, 1e308, -1e308,
     1.0, -1.0, 0.5, 3.0, -2.75, 1e-3, 7e5],
])


@st.composite
def special_value_pairs(draw):
    """Small rectangular ``A != B`` with stored values drawn from
    :data:`SPECIAL_VALUES`, and up to two hub rows: a full A row (every B
    row merged into one output row) and a long run in a B row."""
    n, k, m = (draw(st.integers(1, 12)) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    a_mask = rng.random((n, k)) < draw(st.floats(0.0, 0.6))
    b_mask = rng.random((k, m)) < draw(st.floats(0.0, 0.6))
    for _ in range(draw(st.integers(0, 2))):
        a_mask[rng.integers(n), :] = True
        b_mask[rng.integers(k), rng.integers(m):] = True

    def stored(mask):
        rows, cols = np.nonzero(mask)
        offsets = np.concatenate([[0], np.cumsum(mask.sum(axis=1))])
        return CSRMatrix(*mask.shape, offsets, cols,
                         rng.choice(SPECIAL_VALUES, size=rows.size))

    return stored(a_mask), stored(b_mask)


class TestSpecialValues:
    """The contract on generated special values: every kind stores the
    structure the reference does, and the same bits in every entry that
    is not NaN in both.

    The comparison is NaN-aware on purpose.  Where two *different* NaNs
    are added the hardware keeps one operand's sign and payload, and
    numpy's ``add.at`` and C's ``+=`` hand the operands over in different
    orders — so which NaN survives is the one thing the contract leaves
    unspecified (DESIGN.md Section 10).  That it is a NaN is not."""

    @given(pair=special_value_pairs())
    @settings(max_examples=200, deadline=None)
    def test_same_structure_and_same_bits_where_not_nan(self, pair):
        a, b = pair
        with np.errstate(all="ignore"):  # inf - inf, 0 x inf, overflow: intended
            # against native where there is one, else against esc
            kinds = ["esc", "auto"]
            if native_available():
                kinds.insert(0, "native")
            ref = spgemm_twophase(a, b, kernel=kinds[0]).matrix
            for kind in kinds[1:]:
                got = spgemm_twophase(a, b, kernel=kind).matrix
                np.testing.assert_array_equal(got.row_offsets, ref.row_offsets, kind)
                np.testing.assert_array_equal(got.col_ids, ref.col_ids, kind)
                both_nan = np.isnan(got.data) & np.isnan(ref.data)
                np.testing.assert_array_equal(
                    got.data.view(np.uint64)[~both_nan],
                    ref.data.view(np.uint64)[~both_nan], kind)


class TestKernelSpec:
    def test_defaults(self):
        spec = KernelSpec()
        assert spec.kind == "auto"

    def test_the_kinds(self):
        assert KERNEL_KINDS == ("auto", "esc", "native")

    @pytest.mark.parametrize("kind", list(KERNEL_KINDS))
    def test_encode_parse_roundtrip(self, kind):
        spec = KernelSpec(kind=kind)
        assert KernelSpec.parse(spec.encode()) == spec

    def test_wire_form_is_the_bare_kind(self):
        assert KernelSpec(kind="esc").encode() == "esc"
        assert KernelSpec.parse("esc") == KernelSpec(kind="esc")

    def test_resolve(self):
        assert resolve_kernel(None) == KernelSpec()
        assert resolve_kernel("esc") == KernelSpec(kind="esc")
        spec = KernelSpec(kind="native")
        assert resolve_kernel(spec) is spec
        assert resolve_kernel(spec.encode()) == spec

    def test_rejects_unknown_kind(self):
        """The removed ``merge`` / ``hash`` / ``dense`` kinds and the
        ``kind@threshold`` wire form are refused like any other unknown
        kind, not ignored."""
        with pytest.raises(ValueError):
            KernelSpec(kind="gpu")
        m = rmat(4, 2.0, seed=1)
        for wire in ("gpu", "merge", "hash", "dense", "hash@0.25", "esc@nope"):
            with pytest.raises(ValueError, match="unknown kernel kind"):
                resolve_kernel(wire)
            with pytest.raises(ValueError, match="unknown kernel kind"):
                spgemm_twophase(m, m, kernel=wire)

    def test_spec_takes_no_threshold(self):
        with pytest.raises(TypeError):
            KernelSpec(kind="esc", dense_threshold=0.25)

    def test_stats_record_kernel(self):
        a = rmat(6, 4.0, seed=5)
        r = spgemm_twophase(a, a, kernel="esc")
        assert r.stats.kernel == "esc"
        assert r.stats.symbolic_seconds >= 0
        assert r.stats.numeric_seconds >= 0


class TestPlanGroups:
    """Every row with work runs under the spec's resolved kernel, one
    launch per stage."""

    def test_single_group_methods(self):
        a = rmat(6, 4.0, seed=9)
        kinds = ["esc", "native"] if native_available() else ["esc"]
        for kind in kinds:
            stats = spgemm_twophase(a, a, kernel=KernelSpec(kind=kind)).stats
            assert stats.kernel == kind
            assert (stats.symbolic_kernels, stats.numeric_kernels) == (1, 1)

    @needs_native
    def test_auto_prefers_native(self):
        a = rmat(6, 4.0, seed=9)
        assert KernelSpec(kind="auto").resolved().kind == "native"
        assert spgemm_twophase(a, a, kernel="auto").stats.kernel == "native"

    def test_native_unavailable_raises(self, monkeypatch):
        from repro.spgemm import kernels, native, numeric

        for module in (kernels, native, numeric):
            monkeypatch.setattr(module, "native_available", lambda: False)
        a = rmat(6, 4.0, seed=9)
        with pytest.raises(RuntimeError, match="native"):
            spgemm_twophase(a, a, kernel="native")
        # auto degrades to ESC instead of raising
        r = spgemm_twophase(a, a, kernel="auto")
        assert r.stats.kernel == "esc"
        assert_equals_scipy_product(r.matrix, a, a)

    def test_a_run_refuses_an_unbuildable_native_before_it_starts(
            self, monkeypatch):
        """Where a run resolves its kernel the refusal is a ValueError,
        raised before anything is planned or partitioned."""
        import repro.core.api as api
        import repro.core.executor.engine as engine
        from repro.spgemm import kernels as K

        monkeypatch.setattr(K, "native_available", lambda: False)
        monkeypatch.setattr(api, "plan_grid", None)           # calling it fails
        monkeypatch.setattr(engine, "partition_rows", None)
        a = rmat(5, 3.0, seed=3)
        grid = ChunkGrid.regular(a.n_rows, a.n_cols, 2, 2)
        for run in (lambda: api.run_out_of_core(a, a, kernel="native"),
                    lambda: execute_chunk_grid(a, a, grid, kernel="native")):
            with pytest.raises(ValueError, match="requested but unavailable"):
                run()


class TestEngineKernelEquivalence:
    """The serial esc product is the golden answer; every backend x
    kernel combination in :data:`ENGINE_CASES` must reproduce it bitwise."""

    @pytest.fixture(scope="class")
    def setup(self):
        a = rmat(8, 6.0, seed=77)
        grid = ChunkGrid.regular(a.n_rows, a.n_cols, 2, 2)
        _, golden = execute_chunk_grid(a, a, grid, workers=1,
                                       keep_outputs=True, kernel="esc")
        return a, grid, golden

    def _assert_matches(self, golden, out):
        for rp, row in enumerate(golden):
            for cp, g in enumerate(row):
                o = out[rp][cp]
                np.testing.assert_array_equal(g.row_offsets, o.row_offsets)
                np.testing.assert_array_equal(g.col_ids, o.col_ids)
                np.testing.assert_array_equal(g.data, o.data)

    @pytest.mark.parametrize("kernel,backend", ENGINE_CASES)
    def test_backend_kernel_grid(self, setup, backend, kernel):
        a, grid, golden = setup
        workers = 1 if backend == "serial" else 2
        profile, out = execute_chunk_grid(
            a, a, grid, workers=workers, backend=backend,
            keep_outputs=True, kernel=kernel,
        )
        self._assert_matches(golden, out)
        assert all(c.kernel == kernel for c in profile.chunks)

    @pytest.mark.parametrize("kernel", ["esc"])
    def test_chaos_faults_with_retry(self, setup, kernel):
        """An injected numeric-stage fault on the first attempt of chunk
        1 must be retried away without changing any output bit."""
        a, grid, golden = setup
        _, out = execute_chunk_grid(
            a, a, grid, workers=2, backend="thread", keep_outputs=True,
            kernel=kernel, retry=RetryPolicy(max_attempts=3,
                                             base_delay=0.001),
            faults=FaultInjector.from_string("numeric:raise:chunk=1:times=1"),
        )
        self._assert_matches(golden, out)
