"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``
    Show the simulated device (Table I) and package metadata.
``suite [--features]``
    List the nine evaluation matrices, optionally with their Table II rows.
``gen <family> --n N [options] --out FILE``
    Generate a synthetic matrix (rmat / erdos-renyi / banded) to .npz/.mtx.
``multiply A [B] [--mode ...] [--device-mem MB] [--workers N] [--backend ...] [--out FILE]``
    (alias: ``run``) Out-of-core multiply: operands are .npz/.mtx paths
    or suite names; ``B`` defaults to ``A`` (the paper's ``C = A x A``).
    Prints the run summary; optionally writes the product.  ``--workers
    N`` executes the chunks through the execution engine; ``--backend``
    picks where the kernels run (``serial`` / ``thread`` / ``process``).
    Fault tolerance: ``--retries N`` retries failed chunks with backoff,
    ``--crash-budget N`` lets the process backend survive worker deaths,
    ``--checkpoint PATH`` writes a resumable run manifest, and
    ``--resume PATH`` continues an interrupted run, recomputing only its
    unfinished chunks (see docs/FAULT_TOLERANCE.md).
``trace MATRIX [--mode ...] [--workers N] [--backend ...] [--trace-out FILE]``
    Run the real pipeline under the tracer and export a Chrome-trace JSON
    (measured spans as pid 0, the simulated schedule as pid 1) plus a
    per-lane utilization and critical-path summary.
``experiment <name|all>``
    Regenerate a paper table/figure (fig4, fig7, fig8, fig9, fig10,
    table1, table2, table3, ablations, all).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .core.api import run_hybrid, run_out_of_core
from .device.specs import v100_node
from .sparse import generators
from .sparse.formats import CSRMatrix
from .sparse.io import load_npz, read_matrix_market, save_npz, write_matrix_market
from .sparse.suite import SUITE
from .spgemm.kernels import KERNEL_KINDS, require_kernel
from .spgemm.native import native_build_error, native_crc32_error

__all__ = ["main", "build_parser"]

#: ``--kernel`` is checked by :func:`require_kernel` in :func:`main`, not
#: by argparse, so a refused kind reads the same here as at every other
#: entry point (API, served job, shard run)
_KERNEL_METAVAR = "{" + ",".join(KERNEL_KINDS) + "}"


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Out-of-core CPU-GPU SpGEMM (IPDPS 2021 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="simulated device and package info")
    p_info.set_defaults(func=_cmd_info)

    p_suite = sub.add_parser("suite", help="list the evaluation matrices")
    p_suite.set_defaults(func=_cmd_suite)
    p_suite.add_argument("--features", action="store_true",
                         help="compute Table II feature rows (slower)")

    p_gen = sub.add_parser("gen", help="generate a synthetic matrix")
    p_gen.set_defaults(func=_cmd_gen)
    p_gen.add_argument("family", choices=["rmat", "erdos-renyi", "banded"])
    p_gen.add_argument("--n", type=int, required=True,
                       help="rows (rmat: rounded up to a power of two)")
    p_gen.add_argument("--degree", type=float, default=8.0,
                       help="average nonzeros per row (graphs)")
    p_gen.add_argument("--bandwidth", type=int, default=4, help="banded half-width")
    p_gen.add_argument("--fill", type=float, default=1.0, help="banded fill ratio")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True, help="output .npz or .mtx path")

    p_mul = sub.add_parser("multiply", aliases=["run"],
                           help="out-of-core SpGEMM")
    p_mul.set_defaults(func=_cmd_multiply)
    p_mul.add_argument("a", help="matrix A: .npz/.mtx path or suite name")
    p_mul.add_argument("b", nargs="?", default=None,
                       help="matrix B (default: A, computing A^2)")
    p_mul.add_argument("--mode", choices=["sync", "async", "hybrid"],
                       default="async")
    p_mul.add_argument("--ratio", type=float, default=0.65,
                       help="hybrid GPU flop share")
    p_mul.add_argument("--device-mem", type=int, default=None, metavar="MiB",
                       help="simulated device memory (default: auto out-of-core)")
    p_mul.add_argument("--workers", type=_positive_int, default=1,
                       help="workers for real chunk execution (default 1)")
    p_mul.add_argument("--backend", choices=["serial", "thread", "process"],
                       default=None,
                       help="chunk executor backend (default: serial for "
                            "--workers 1, thread otherwise)")
    p_mul.add_argument("--kernel", metavar=_KERNEL_METAVAR, default=None,
                       help="SpGEMM kernel (default: auto — native C "
                            "when buildable, else esc; see docs/KERNELS.md)")
    p_mul.add_argument("--retries", type=_positive_int, default=1,
                       metavar="N",
                       help="max attempts per chunk (default 1 = no retry)")
    p_mul.add_argument("--retry-delay", type=float, default=0.05,
                       metavar="SECONDS",
                       help="base backoff delay between chunk attempts "
                            "(default 0.05; doubles per attempt, jittered)")
    p_mul.add_argument("--crash-budget", type=int, default=0, metavar="N",
                       help="process backend: worker deaths absorbed by "
                            "respawn before the run aborts (default 0)")
    p_mul.add_argument("--deadline", type=float, default=None,
                       metavar="SECONDS",
                       help="per-chunk wall-clock deadline; a chunk past it "
                            "raises ChunkTimeout (retryable), and under the "
                            "process backend the hung worker is killed")
    p_mul.add_argument("--heartbeat-interval", type=float, default=None,
                       metavar="SECONDS",
                       help="process backend: worker heartbeat period; a "
                            "worker silent for 2x this is presumed frozen "
                            "and killed by the watchdog")
    p_mul.add_argument("--host-mem-budget", type=int, default=None,
                       metavar="MiB",
                       help="cap on in-flight + stored chunk bytes; "
                            "dispatch blocks (and spills the chunk store "
                            "when possible) instead of exceeding it")
    p_mul.add_argument("--checkpoint", default=None, metavar="PATH",
                       help="write a resumable run manifest to PATH and "
                            "spill chunks next to it (PATH.chunks/)")
    p_mul.add_argument("--resume", default=None, metavar="PATH",
                       help="resume from the manifest at PATH, recomputing "
                            "only its unfinished chunks")
    p_mul.add_argument("--out", default=None, help="write the product (.npz/.mtx)")

    p_tr = sub.add_parser(
        "trace",
        help="run the real pipeline under the tracer and export a Chrome "
             "trace (measured spans + simulated schedule side by side)")
    p_tr.set_defaults(func=_cmd_trace)
    p_tr.add_argument("matrix", help="suite name or .npz/.mtx path")
    p_tr.add_argument("--mode", choices=["sync", "async", "hybrid"], default="async")
    p_tr.add_argument("--device-mem", type=int, default=None, metavar="MiB")
    p_tr.add_argument("--workers", type=_positive_int, default=1,
                      help="workers for the real traced execution (default 1)")
    p_tr.add_argument("--backend", choices=["serial", "thread", "process"],
                      default=None,
                      help="chunk executor backend; process-backend worker "
                           "spans are merged into the exported trace")
    p_tr.add_argument("--kernel", metavar=_KERNEL_METAVAR, default=None,
                      help="SpGEMM kernel (kernel and per-stage "
                           "throughput gauges land in the exported trace)")
    p_tr.add_argument("--window", type=_positive_int, default=None,
                      help="bounded in-flight window (default: 2 x workers)")
    p_tr.add_argument("--trace-out", "--out", dest="trace_out",
                      default="trace.json",
                      help="output .json (chrome://tracing / Perfetto)")

    p_exp = sub.add_parser("experiment", help="regenerate a paper table/figure")
    p_exp.set_defaults(func=_cmd_experiment)
    p_exp.add_argument(
        "name",
        choices=["table1", "table2", "table3", "fig4", "fig7", "fig8",
                 "fig9", "fig10", "fig56", "ablations", "scaling", "breakdown", "chunksweep", "reorder", "all"],
    )

    p_srv = sub.add_parser(
        "serve",
        help="run the async multi-tenant SpGEMM job server "
             "(HTTP/JSON + NDJSON event streaming; see docs/SERVING.md)")
    p_srv.set_defaults(func=_cmd_serve)
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument("--port", type=int, default=8642,
                       help="TCP port (0 = ephemeral, printed at start)")
    p_srv.add_argument("--unix-socket", default=None, metavar="PATH",
                       help="additionally serve on this unix socket")
    p_srv.add_argument("--slots", type=_positive_int, default=4,
                       help="concurrent jobs on the shared worker pool")
    p_srv.add_argument("--host-mem", type=int, default=2048, metavar="MiB",
                       help="cross-job host-memory admission budget "
                            "(default 2048 MiB)")
    p_srv.add_argument("--cache-mem", type=int, default=256, metavar="MiB",
                       help="content-addressed operand cache budget "
                            "(default 256 MiB)")
    p_srv.add_argument("--trace-dir", default=None, metavar="DIR",
                       help="write one Chrome trace per traced job here")

    p_sw = sub.add_parser(
        "shard-worker",
        help="host one remote shard's executor: serve run requests over "
             "the length-prefixed socket transport (see docs/SHARDING.md)")
    p_sw.set_defaults(func=_cmd_shard_worker)
    p_sw.add_argument("--listen", default="tcp:127.0.0.1:0",
                      metavar="ADDR",
                      help="listen address, tcp:HOST:PORT or unix:PATH "
                           "(default tcp:127.0.0.1:0 = ephemeral port)")
    p_sw.add_argument("--announce", action="store_true",
                      help="print 'LISTENING <addr>' on stdout once bound "
                           "(how a spawning node discovers the real port)")
    return parser


def _load_matrix(spec: str) -> CSRMatrix:
    """Resolve a CLI matrix operand: file path or suite name."""
    by_name = {e.name: e for e in SUITE}
    by_name.update({e.abbr: e for e in SUITE})
    if spec in by_name:
        from .experiments.runner import get_matrix

        return get_matrix(by_name[spec].abbr)
    if spec.endswith(".npz"):
        return load_npz(spec)
    if spec.endswith(".mtx"):
        return read_matrix_market(spec)
    raise SystemExit(
        f"cannot resolve matrix {spec!r}: not a suite name and not .npz/.mtx"
    )


def _save_matrix(path: str, mat: CSRMatrix) -> None:
    if path.endswith(".npz"):
        save_npz(path, mat)
    elif path.endswith(".mtx"):
        write_matrix_market(path, mat)
    else:
        raise SystemExit(f"output must be .npz or .mtx, got {path!r}")


def _cmd_info(_args) -> int:
    from . import __version__
    from .experiments.table1 import run as table1_run

    print(f"repro {__version__} — out-of-core CPU-GPU SpGEMM reproduction")
    why = native_build_error()
    print("kernel: auto -> " + (
        "native" if why is None else f"esc (native unavailable: {why})"))
    why = native_crc32_error()
    print("crc32: " + ("native fold (pclmul)" if why is None else f"zlib ({why})"))
    print(table1_run())
    return 0


def _cmd_suite(args) -> int:
    if args.features:
        from .experiments.table2 import run as table2_run

        print(table2_run())
    else:
        for e in SUITE:
            print(f"{e.abbr:<10} {e.name:<22} [{e.family}]  {e.description}")
    return 0


def _cmd_gen(args) -> int:
    if args.family == "rmat":
        scale = max(1, (args.n - 1).bit_length())
        mat = generators.rmat(scale, args.degree, seed=args.seed)
    elif args.family == "erdos-renyi":
        mat = generators.erdos_renyi(args.n, args.degree, seed=args.seed)
    else:
        mat = generators.banded(args.n, args.bandwidth, seed=args.seed, fill=args.fill)
    _save_matrix(args.out, mat)
    print(f"wrote {mat} -> {args.out}")
    return 0


def _cmd_multiply(args) -> int:
    if args.out is not None and not args.out.endswith((".npz", ".mtx")):
        raise ValueError(f"output must be .npz or .mtx, got {args.out!r}")
    a = _load_matrix(args.a)
    b = _load_matrix(args.b) if args.b else a
    if args.device_mem is not None:
        node = v100_node(args.device_mem << 20)
    else:
        from .core.chunks import csr_bytes
        from .core.planner import default_device_bytes
        from .spgemm.flops import total_flops

        inputs = csr_bytes(a.n_rows, a.nnz) + csr_bytes(b.n_rows, b.nnz)
        node = v100_node(
            default_device_bytes(inputs, a.n_rows, total_flops(a, b)))

    keep = args.out is not None
    retry = None
    if args.retries > 1:
        from .core.executor import RetryPolicy

        retry = RetryPolicy(max_attempts=args.retries,
                            base_delay=args.retry_delay)
    governor = None
    if (args.deadline is not None or args.heartbeat_interval is not None
            or args.host_mem_budget is not None):
        from .core.governor import Governor, GovernorConfig

        governor = Governor(GovernorConfig(
            deadline_seconds=args.deadline,
            heartbeat_interval=args.heartbeat_interval,
            host_mem_budget_bytes=(args.host_mem_budget << 20
                                   if args.host_mem_budget is not None
                                   else None),
        ))
    if args.mode == "hybrid":
        if args.checkpoint or args.resume:
            raise SystemExit(
                "--checkpoint/--resume support the sync/async modes only"
            )
        result = run_hybrid(a, b, node, ratio=args.ratio, keep_output=keep,
                            name=args.a, workers=args.workers,
                            backend=args.backend, kernel=args.kernel,
                            retry=retry, crash_budget=args.crash_budget,
                            governor=governor)
    else:
        store = None
        checkpoint = resume = None
        if args.resume:
            from .core.spill import Checkpoint, DiskChunkStore

            # the manifest says where the run spilled its chunks
            resume = Checkpoint.open(a, b, None, path=args.resume,
                                     resume=True).manifest
            if resume.store_dir is not None:
                store = DiskChunkStore(resume.store_dir)
            elif keep:
                raise SystemExit(
                    f"manifest {args.resume} records no spill directory; "
                    "cannot rebuild the full product (--out) from it"
                )
        elif args.checkpoint:
            from .core.spill import DiskChunkStore

            store = DiskChunkStore(args.checkpoint + ".chunks")
            checkpoint = args.checkpoint
        result = run_out_of_core(
            a, b, node, mode=args.mode, keep_output=keep, name=args.a,
            order="natural" if args.mode == "sync" else "flops_desc",
            workers=args.workers, backend=args.backend, kernel=args.kernel,
            retry=retry, crash_budget=args.crash_budget,
            chunk_store=store, checkpoint=checkpoint, resume=resume,
            governor=governor,
        )
    grid = result.profile.grid
    print(result.summary())
    if governor is not None and governor.hostmem is not None:
        hm = governor.hostmem
        print(f"host-mem budget {hm.budget_bytes >> 20} MiB: "
              f"peak {hm.peak_bytes} bytes, overcommits {hm.overcommits}")
    if args.mode != "hybrid":
        if args.resume:
            done = result.profile.grid.num_chunks - result.resumed_chunks
            print(f"resumed {result.resumed_chunks} chunks from "
                  f"{args.resume}; recomputed {done}")
        elif args.checkpoint:
            print(f"checkpoint manifest -> {args.checkpoint} "
                  f"(chunks in {args.checkpoint}.chunks/)")
    print(
        f"grid {grid.num_row_panels}x{grid.num_col_panels}, "
        f"device {node.gpu.device_memory_bytes >> 20} MiB, "
        f"output nnz {result.profile.total_nnz_out}"
    )
    if keep:
        _save_matrix(args.out, result.matrix)
        print(f"product written to {args.out}")
    return 0


def _cmd_trace(args) -> int:
    """Run the real out-of-core pipeline under the tracer and export a
    Chrome trace: measured spans (queue wait, analysis/symbolic/numeric,
    sink writes, lane gauges) as pid 0, the cost-model schedule of the
    same workload as pid 1 — loadable side by side in Perfetto.  Prints
    the per-lane utilization and critical-path summary."""
    from .observability import (Tracer, render_summary, timeline_events,
                                tracer_events, write_chrome_trace)

    a = _load_matrix(args.matrix)
    if args.device_mem is not None:
        node = v100_node(args.device_mem << 20)
    else:
        from .experiments.runner import get_node
        from .sparse.suite import SUITE as _S

        known = {e.abbr for e in _S} | {e.name for e in _S}
        if args.matrix in known:
            node = get_node(args.matrix)
        else:
            node = v100_node()

    tracer = Tracer()
    # a traced store receives every chunk, so the trace shows the full
    # lifecycle including sink/store_put spans and the bytes-held gauge
    from .core.spill import MemoryChunkStore

    store = MemoryChunkStore(tracer=tracer)
    if args.mode == "hybrid":
        # run_hybrid has no chunk_store hook; keeping outputs exercises
        # the same traced sink path
        result = run_hybrid(a, a, node, keep_output=True, name=args.matrix,
                            workers=args.workers, window=args.window,
                            tracer=tracer, backend=args.backend,
                            kernel=args.kernel)
    else:
        result = run_out_of_core(
            a, a, node, mode=args.mode, keep_output=False, name=args.matrix,
            order="natural" if args.mode == "sync" else "flops_desc",
            workers=args.workers, window=args.window, tracer=tracer,
            chunk_store=store, backend=args.backend, kernel=args.kernel,
        )
    events = tracer_events(tracer) + timeline_events(result.timeline)
    write_chrome_trace(args.trace_out, events, metadata={
        "matrix": args.matrix, "mode": result.mode, "workers": args.workers,
        "backend": args.backend or "auto", "kernel": args.kernel or "auto",
    })
    print(render_summary(tracer))
    print(
        f"wrote {len(events)} events ({result.mode}, measured "
        f"{tracer.wall_seconds() * 1e3:.3f} ms + simulated "
        f"{result.elapsed * 1e3:.3f} ms) -> {args.trace_out}"
    )
    print("open with chrome://tracing or https://ui.perfetto.dev")
    return 0


def _cmd_experiment(args) -> int:
    from . import experiments

    table = {
        "table1": experiments.table1.run,
        "table2": experiments.table2.run,
        "table3": experiments.table3.run,
        "fig4": experiments.fig04.run,
        "fig7": experiments.fig07.run,
        "fig8": experiments.fig08.run,
        "fig9": experiments.fig09.run,
        "fig10": experiments.fig10.run,
        "fig56": experiments.fig56.run,
        "ablations": experiments.ablations.run,
        "scaling": experiments.scaling.run,
        "breakdown": experiments.breakdown.run,
        "chunksweep": experiments.chunksweep.run,
        "reorder": experiments.reorder_matrix.run,
        "all": experiments.run_all,
    }
    print(table[args.name]())
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from .serve import ServerConfig, SpgemmServer

    config = ServerConfig(
        host=args.host, port=args.port, unix_socket=args.unix_socket,
        slots=args.slots,
        host_mem_bytes=args.host_mem << 20,
        cache_bytes=args.cache_mem << 20,
        trace_dir=args.trace_dir,
    )

    async def _serve() -> None:
        server = SpgemmServer(config)
        await server.start()
        host, port = server.address
        print(f"repro serve: listening on http://{host}:{port}"
              + (f" and {config.unix_socket}" if config.unix_socket else ""))
        print(f"  slots={config.slots} host-mem="
              f"{config.host_mem_bytes >> 20}MiB "
              f"cache={config.cache_bytes >> 20}MiB")
        try:
            await asyncio.Event().wait()  # until interrupted
        finally:
            await server.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("repro serve: shut down")
    return 0


def _cmd_shard_worker(args) -> int:
    from .distributed.transport import shard_worker_main

    return shard_worker_main(args.listen, announce=args.announce)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "kernel", None) is not None:
            require_kernel(args.kernel)  # refused before an operand is loaded
        return args.func(args)
    except ValueError as refusal:
        # a typed refusal of the user's arguments: argparse's form, no traceback
        print(f"repro {args.command}: error: {refusal}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
