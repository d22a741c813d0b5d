"""The full spECK-style in-core SpGEMM kernel (paper Fig. 3).

Pipeline of the three stages the paper describes:

1. **row analysis** — intermediate products per row of ``A`` (on the GPU
   a device kernel whose result is shipped to the host to bin rows);
2. **symbolic execution** — exact output nnz per row, enabling exact
   allocation;
3. **numeric execution** — values, written into that allocation.

The host kernels bin nothing: every row with work runs under one kernel,
one launch per stage.  Which kernel is decided by a
:class:`~repro.spgemm.kernels.KernelSpec` (``--kernel`` on the CLI): the
compiled ``native`` Gustavson kernel or the vectorized numpy ESC batch.
``native`` runs the stages as the paper draws them: its count pass is
stages 1-2 in one sweep, the output is allocated once from the exact
counts, and its fill pass writes that allocation in place.  ESC is
*fused*: it produces values already during the symbolic pass; its
results are kept and the numeric stage only copies them into the exact
allocation, halving the work while keeping the two-phase structure (and
its stats/spans) intact.

The pipeline can be cut where the paper's Fig. 3 ships the exact nnz to
the host: :func:`spgemm_symbolic` runs stages 1-2 and returns a
:class:`SymbolicPhase`, :func:`spgemm_numeric` runs stage 3 from it —
into its own exact allocation, or into slots of a larger product the
caller laid out from the counts (:class:`~repro.spgemm.numeric.RowSlots`).
:func:`spgemm_twophase` is the two composed.

Alongside the result we return :class:`TwoPhaseStats` — everything the
out-of-core scheduler and the simulated-device cost model need: flops,
output nnz/bytes, per-stage kernel-launch counts and wall seconds, and
the sizes of the two intermediate device->host transfers that Section
IV's transfer scheduling reasons about.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from ..sparse.codec import csr_nbytes
from ..sparse.formats import CSRMatrix, INDEX_DTYPE, VALUE_DTYPE
from .accumulators import RowResults, esc_accumulate_rows
from .flops import compression_ratio, products_per_row
from .kernels import KernelSpec, resolve_kernel
from .native import native_count_rows, native_fill_slots
from .numeric import RowSlots, place_rows

__all__ = [
    "TwoPhaseStats",
    "TwoPhaseResult",
    "SymbolicPhase",
    "spgemm_symbolic",
    "spgemm_symbolic_empty",
    "spgemm_numeric",
    "spgemm_twophase",
]


@dataclass(frozen=True)
class TwoPhaseStats:
    """Workload metrics of one in-core SpGEMM invocation."""

    flops: int                  # 2 x intermediate products
    nnz_out: int                # nonzeros of the result
    rows_out: int               # rows of the result (= rows of A panel)
    analysis_bytes: int         # row-analysis result shipped D2H (Fig. 3)
    symbolic_bytes: int         # per-row nnz info shipped D2H
    output_bytes: int           # CSR result chunk shipped D2H
    symbolic_kernels: int       # kernel launches in the symbolic stage
    numeric_kernels: int        # kernel launches in the numeric stage
    input_nnz: int              # nnz(A panel) + nnz(B panel)
    kernel: str = ""            # KernelSpec wire form that produced this
    # measured wall seconds per stage; -1 marks "not measured" (merged
    # stats of resplit subchunks, or records from before these fields).
    # For the native kernel symbolic = count pass and numeric = fill
    # pass; for the fused numpy kernel (esc) symbolic holds the
    # whole accumulation and numeric only the scatter.
    analysis_seconds: float = field(default=-1.0, compare=False)
    symbolic_seconds: float = field(default=-1.0, compare=False)
    numeric_seconds: float = field(default=-1.0, compare=False)

    @property
    def compression_ratio(self) -> float:
        return compression_ratio(self.flops, self.nnz_out)


@dataclass(frozen=True)
class TwoPhaseResult:
    #: the product; ``None`` when the numeric stage wrote it into a
    #: destination the caller supplied
    matrix: Optional[CSRMatrix]
    stats: TwoPhaseStats


def _stage_gauges(tracer, trace_label: str, stats: TwoPhaseStats) -> None:
    """Per-stage throughput gauges: GFLOP/s and bytes/s of each stage.

    GFLOP/s attributes the multiplication's total flops to each stage's
    wall time (the standard way SpGEMM papers quote per-phase rates);
    bytes/s uses the stage's own D2H transfer volume.  Gauges are pure
    observability — skipped entirely when timings are absent.
    """
    for stage, seconds, nbytes in (
        ("analysis", stats.analysis_seconds, stats.analysis_bytes),
        ("symbolic", stats.symbolic_seconds, stats.symbolic_bytes),
        ("numeric", stats.numeric_seconds, stats.output_bytes),
    ):
        if seconds <= 0.0:
            continue
        tracer.gauge(
            f"throughput[{trace_label}]",
            **{
                f"{stage}_gflops": stats.flops / seconds / 1e9,
                f"{stage}_bytes_per_s": nbytes / seconds,
            },
        )


@dataclass(frozen=True)
class SymbolicPhase:
    """One multiplication at the paper's D2H point (Fig. 3): analysis
    and symbolic stages done, exact ``row_nnz`` known, nothing of the
    output allocated yet.  Holds what :func:`spgemm_numeric` needs to
    finish the same invocation — operands, tracing and fault context
    included — and may be finished more than once (a retry re-fills the
    same slots)."""

    a: CSRMatrix
    b: CSRMatrix
    spec: KernelSpec
    flops: int                     # 2 x intermediate products (stage 1)
    row_nnz: np.ndarray            # exact nnz per output row
    #: ESC's values, computed during the symbolic pass (``None``: native)
    fused: Optional[RowResults]
    analysis_seconds: float
    symbolic_seconds: float
    tracer: object
    trace_label: str
    fault_hook: Optional[Callable[[str], None]]


def spgemm_symbolic(
    a: CSRMatrix,
    b: CSRMatrix,
    *,
    kernel: Union[None, str, KernelSpec] = None,
    tracer=None,
    trace_label: str = "",
    fault_hook=None,
) -> SymbolicPhase:
    """Stages 1-2 of :func:`spgemm_twophase` (same parameters): row
    analysis, then exact nnz per output row."""
    from ..observability import as_tracer  # deferred: avoid import cycles

    tracer = as_tracer(tracer)
    spec = resolve_kernel(kernel)
    if a.n_cols != b.n_rows:
        raise ValueError(f"dimension mismatch: A is {a.shape}, B is {b.shape}")
    # the native count pass walks every product anyway: its one sweep is
    # both stages, booked under stage 2; stage 1 keeps its hook and span
    wire = spec.resolved().encode()
    swept = wire == "native"

    # stage 1: row analysis (products per row; the host receives this)
    if fault_hook is not None:
        fault_hook("analysis")
    t0 = time.perf_counter()
    with tracer.span(f"analysis[{trace_label}]", "analysis"):
        products = None if swept else products_per_row(a, b)
    analysis_seconds = time.perf_counter() - t0

    # stage 2: symbolic execution — exact nnz per output row.  The native
    # kernel only counts.  ESC computes values in the same pass over the
    # rows with products; its RowResults are kept so the numeric stage
    # only has to copy them into place.
    if fault_hook is not None:
        fault_hook("symbolic")
    t0 = time.perf_counter()
    fused = None
    with tracer.span(f"symbolic[{trace_label}]", "symbolic",
                     kernels=1 if swept else int(products.any()),
                     kernel=wire):
        if swept:
            row_nnz, products = native_count_rows(
                a, b, np.arange(a.n_rows, dtype=INDEX_DTYPE),
                return_products=True)
        else:
            fused = esc_accumulate_rows(a, b, np.flatnonzero(products))
            row_nnz = np.zeros(a.n_rows, dtype=INDEX_DTYPE)
            row_nnz[fused.rows] = fused.counts
    symbolic_seconds = time.perf_counter() - t0

    return SymbolicPhase(
        a=a, b=b, spec=spec, flops=2 * int(products.sum()),
        row_nnz=row_nnz, fused=fused,
        analysis_seconds=analysis_seconds, symbolic_seconds=symbolic_seconds,
        tracer=tracer, trace_label=trace_label, fault_hook=fault_hook,
    )


def spgemm_symbolic_empty(a: CSRMatrix, b: CSRMatrix, *, kernel=None,
                          tracer=None, trace_label: str = "",
                          fault_hook=None) -> SymbolicPhase:
    """:func:`spgemm_symbolic` of a product its caller knows has no
    intermediate products (a chunk its grid's sizing prices at 0): the
    stage hooks fire and the spans open, but no kernel runs — every row
    count is 0, as a kernel would find."""
    from ..observability import as_tracer  # deferred: avoid import cycles

    tracer, spec, seconds = as_tracer(tracer), resolve_kernel(kernel), []
    for stage, args in (("analysis", {}), ("symbolic", dict(
            kernels=0, kernel=spec.resolved().encode()))):
        if fault_hook is not None:
            fault_hook(stage)
        t0 = time.perf_counter()
        with tracer.span(f"{stage}[{trace_label}]", stage, **args):
            seconds.append(time.perf_counter() - t0)
    return SymbolicPhase(a, b, spec, 0, np.zeros(a.n_rows, dtype=INDEX_DTYPE),
                         None, *seconds, tracer, trace_label, fault_hook)


def spgemm_numeric(
    sym: SymbolicPhase, dest: Optional[RowSlots] = None
) -> TwoPhaseResult:
    """Stage 3 of :func:`spgemm_twophase`: values, from a finished
    :class:`SymbolicPhase`.

    Without ``dest`` the product is allocated here, exactly, and returned
    as ``result.matrix``.  With it, row ``r`` is written into the slot
    ``dest`` names for it — ``dest.counts`` must equal ``sym.row_nnz``,
    and the kernels refuse any row that does not fit — and
    ``result.matrix`` is ``None``.  The stats are the same either way.
    """
    a, b, row_nnz = sym.a, sym.b, sym.row_nnz
    tracer, trace_label = sym.tracer, sym.trace_label
    # record the *resolved* wire form ("auto" is a policy, not a kernel)
    # so stats and caches never alias timings from different kernels
    wire = sym.spec.resolved().encode()
    nnz_out = int(row_nnz.sum())
    if dest is not None:
        if dest.counts.shape != row_nnz.shape:
            raise ValueError("dest must hold one slot per row of A")
        # the kernels check the rows they write; a row without output
        # (symbolic count 0) must own an empty slot too
        wrong = np.flatnonzero(dest.counts != row_nnz)
        if wrong.size:
            r = int(wrong[0])
            raise RuntimeError(
                f"row {r} does not fit its slot: the symbolic count is "
                f"{int(row_nnz[r])}, the slot holds {int(dest.counts[r])}"
            )

    # stage 3: numeric execution into the exact allocation
    if sym.fault_hook is not None:
        sym.fault_hook("numeric")
    t0 = time.perf_counter()
    row_offsets = None
    with tracer.span(f"numeric[{trace_label}]", "numeric",
                     kernels=int(nnz_out > 0), kernel=wire):
        if dest is None:
            row_offsets = np.zeros(a.n_rows + 1, dtype=INDEX_DTYPE)
            np.cumsum(row_nnz, out=row_offsets[1:])
            dest = RowSlots(row_offsets[:-1], row_nnz, 0,
                            np.empty(nnz_out, dtype=INDEX_DTYPE),
                            np.empty(nnz_out, dtype=VALUE_DTYPE))
        if not nnz_out:
            pass  # no row has output: nothing to write, no kernel to run
        elif sym.fused is None:
            # the kernel itself refuses a row that disagrees with its slot
            native_fill_slots(a, b, np.flatnonzero(row_nnz), dest.starts,
                              dest.counts, dest.shift, dest.col_ids, dest.data)
        else:
            f = sym.fused
            place_rows(f.offsets(), f.col_ids, f.values, dest, rows=f.rows)
    numeric_seconds = time.perf_counter() - t0

    stats = TwoPhaseStats(
        flops=sym.flops,
        nnz_out=nnz_out,
        rows_out=a.n_rows,
        analysis_bytes=8 * a.n_rows,  # one int64 of products per row
        symbolic_bytes=int(row_nnz.nbytes),
        output_bytes=csr_nbytes(a.n_rows, nnz_out),
        symbolic_kernels=int(sym.flops > 0),
        numeric_kernels=int(nnz_out > 0),
        input_nnz=a.nnz + b.nnz,
        kernel=wire,
        analysis_seconds=sym.analysis_seconds,
        symbolic_seconds=sym.symbolic_seconds,
        numeric_seconds=numeric_seconds,
    )
    _stage_gauges(tracer, trace_label, stats)
    matrix = None if row_offsets is None else CSRMatrix(
        a.n_rows, b.n_cols, row_offsets, dest.col_ids, dest.data, check=False)
    return TwoPhaseResult(matrix=matrix, stats=stats)


def spgemm_twophase(
    a: CSRMatrix,
    b: CSRMatrix,
    *,
    kernel: Union[None, str, KernelSpec] = None,
    tracer=None,
    trace_label: str = "",
    fault_hook=None,
) -> TwoPhaseResult:
    """Multiply ``A x B`` with the full three-stage kernel pipeline.

    ``kernel`` selects the kernel — ``None``, a wire string (``"auto"``,
    ``"esc"``, ``"native"``), or a :class:`KernelSpec`.  The default
    ``auto`` uses the compiled Gustavson kernel (count pass, exact
    allocation, in-place fill pass) when available and the vectorized
    ESC batch otherwise.  Both kernels produce the same matrix; see
    :mod:`repro.spgemm.kernels` for the bit-identity contract.

    ``tracer`` (:mod:`repro.observability`) records the three phase
    boundaries as spans named ``analysis[label]`` / ``symbolic[label]`` /
    ``numeric[label]`` — the same labels the schedule simulator uses, so
    measured and simulated phases line up side by side in one trace — plus
    a ``throughput[label]`` gauge with per-stage GFLOP/s and bytes/s.
    Tracing never alters the computation; results are bit-identical with
    it on or off.

    ``fault_hook`` (chaos testing, :mod:`repro.core.executor.faults`) is
    called with the stage name (``analysis`` / ``symbolic`` / ``numeric``)
    at each stage entry; it may sleep, raise, or kill the process.  The
    default ``None`` costs nothing.
    """
    return spgemm_numeric(spgemm_symbolic(
        a, b, kernel=kernel, tracer=tracer, trace_label=trace_label,
        fault_hook=fault_hook,
    ))
