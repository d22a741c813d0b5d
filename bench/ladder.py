"""The per-layer ladder: every layer timed from outside, on one workload's
operands, each rung a span with one child span per repetition.

Layers are the package names under `src/repro/`.  A rung calls a public
function, takes the median of its repetitions (after one warm-up) and
records exact counts where the layer exposes them.  Nothing here claims a
gain; it is the baseline a later change names.
"""

from __future__ import annotations

import asyncio
import json
import secrets
import shutil
import socket
import statistics
import tempfile
import threading
import time
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Dict, List, Tuple

import operands as ops
from harness import Spans, nproc, timed
from workloads import Server, ServeWorkload, spawn_shard_pool

MAX_REPS = 7


class Rungs:
    """Times rungs under one workload root span."""

    def __init__(self, spans: Spans, rung_budget_s: float, quick: bool) -> None:
        self.spans = spans
        self.budget = rung_budget_s
        self.quick = quick
        self.samples: Dict[str, List[float]] = {}

    def time(self, name: str, fn: Callable[[], object]):
        """Median seconds of `fn` and its last result.  One warm-up that the
        median leaves out, then as many repetitions (at most seven, at least
        one) as the rung's share of the run allows.  A rung whose warm-up
        alone takes twice that share is not called again: the warm-up is its
        sample.  Quick mode takes one repetition and no warm-up.  Each result
        is dropped before the next call, so a rung never holds two outputs."""
        samples: List[float] = []
        out = None
        with self.spans.span(name):
            reps = 1
            if not self.quick:
                with self.spans.span(f"{name}#warmup"):
                    warm, out = timed(fn)
                if warm > 2 * self.budget:
                    reps, samples = 0, [warm]
                else:
                    reps = max(1, min(MAX_REPS, int(self.budget / max(warm, 1e-9))))
            for i in range(reps):
                out = None
                with self.spans.span(f"{name}#{i}"):
                    seconds, out = timed(fn)
                samples.append(seconds)
        self.samples[name] = samples
        return statistics.median(samples), out


def run_ladder(workload, st: SimpleNamespace, spans: Spans, *,
               seconds: float, quick: bool, native_build_s: float
               ) -> Tuple[Dict[str, float], Dict[str, List[float]]]:
    """Every per-layer metric for one workload's operands `A x A`."""
    from repro.core.api import run_out_of_core, simulate_out_of_core
    from repro.core.assemble import assemble_chunks
    from repro.core.executor import execute_chunk_grid
    from repro.core.governor import GovernorConfig
    from repro.core.governor.integrity import crc32_matrix
    from repro.core.planner import plan_grid
    from repro.core.spill import DiskChunkStore, SpillableChunkStore
    from repro.observability import Tracer
    from repro.sparse.partition import partition_columns
    from repro.sparse.shm import SharedCSR
    from repro.spgemm.estimate import estimate_row_nnz
    from repro.spgemm.twophase import spgemm_twophase

    a, s, node, tmp = st.a, st.s, st.node, Path(st.tmp)
    r = Rungs(spans, 0.08 * seconds, quick)
    m: Dict[str, float] = {"spgemm.native_build_s": native_build_s}

    # -- anchor ----------------------------------------------------------
    m["anchor.scipy_s"], _ = r.time("anchor.scipy", lambda: s @ s)

    # -- spgemm ----------------------------------------------------------
    m["spgemm.twophase_s"], two = r.time(
        "spgemm.twophase", lambda: spgemm_twophase(a, a))
    stats = two.stats
    c_bytes = two.matrix.nbytes()
    m["spgemm.flops"] = stats.flops
    m["spgemm.nnz_out"] = stats.nnz_out
    m["spgemm.compression_ratio"] = stats.compression_ratio
    # computed from array sizes: both operands read once, C written once
    m["spgemm.flops_per_byte_computed"] = stats.flops / (2 * a.nbytes() + c_bytes)
    m["spgemm.analysis_s"] = stats.analysis_seconds
    m["spgemm.symbolic_s"] = stats.symbolic_seconds
    m["spgemm.numeric_s"] = stats.numeric_seconds
    m["spgemm.twophase_vs_scipy"] = m["spgemm.twophase_s"] / m["anchor.scipy_s"]
    del two
    m["spgemm.kernel_esc_s"], _ = r.time(
        "spgemm.kernel_esc", lambda: spgemm_twophase(a, a, kernel="esc"))
    m["spgemm.estimate_s"], est = r.time(
        "spgemm.estimate", lambda: estimate_row_nnz(a, a))
    m["spgemm.estimate_rel_error"] = abs(est.total_nnz - stats.nnz_out) / stats.nnz_out

    # -- core: planner, executor, assemble -------------------------------
    m["core.plan_grid_s"], report = r.time(
        "core.plan_grid", lambda: plan_grid(a, a, node))
    grid = report.grid
    m["core.plan_chunks"] = grid.num_chunks

    def grid_run(**kwargs):
        return execute_chunk_grid(a, a, grid, keep_outputs=True, **kwargs)

    m["core.grid_serial_s"], (profile, outputs) = r.time(
        "core.grid_serial", lambda: grid_run(backend="serial"))
    chunk_seconds = sum(ch.measured_seconds for ch in profile.chunks)
    m["core.per_chunk_overhead_s"] = (
        (r.samples["core.grid_serial"][-1] - chunk_seconds) / grid.num_chunks)
    m["core.grid_overhead_vs_twophase"] = (
        m["core.grid_serial_s"] / m["spgemm.twophase_s"])
    workers = max(nproc(), 1)
    m["core.grid_thread_s"], _ = r.time(
        "core.grid_thread", lambda: grid_run(backend="thread", workers=workers))
    m["core.grid_process_s"], _ = r.time(
        "core.grid_process", lambda: grid_run(backend="process", workers=workers))
    m["core.assemble_s"], c = r.time(
        "core.assemble", lambda: assemble_chunks(outputs))
    m["core.crc32_s"], _ = r.time("core.crc32", lambda: crc32_matrix(c))

    # -- sparse ----------------------------------------------------------
    m["sparse.operand_bytes"] = 2 * a.nbytes()
    m["sparse.partition_columns_s"], _ = r.time(
        "sparse.partition_columns",
        lambda: partition_columns(a, grid.num_col_panels))

    def shm_roundtrip():
        with SharedCSR.create(a, f"repro-bench-{secrets.token_hex(4)}") as owner:
            with SharedCSR.attach(owner.descriptor) as view:
                return view.matrix.nnz

    m["sparse.shm_roundtrip_s"], _ = r.time("sparse.shm_roundtrip", shm_roundtrip)

    # -- device: the simulated timeline (model outputs, never wall-clock)
    m["device.simulate_s"], sim = r.time(
        "device.simulate", lambda: simulate_out_of_core(profile, node))
    sync = simulate_out_of_core(profile, node, mode="sync")
    m["device.sim_async_makespan_s"] = sim.elapsed
    m["device.sim_sync_makespan_s"] = sync.elapsed
    m["device.sim_async_speedup"] = sync.elapsed / sim.elapsed
    m["device.sim_transfer_fraction"] = sim.transfer_fraction

    # -- core: api, spill, governor --------------------------------------
    m["core.ooc_s"], _ = r.time(
        "core.ooc", lambda: run_out_of_core(a, a, node).matrix)
    m["core.ooc_residual_s"] = (m["core.ooc_s"] - m["core.plan_grid_s"]
                                - m["core.grid_serial_s"] - m["device.simulate_s"])

    spill_dir = Path(tempfile.mkdtemp(prefix="ladder-spill-", dir=tmp))
    try:
        store = DiskChunkStore(spill_dir / "put")

        def spill_put():
            for rp, row in enumerate(outputs):
                for cp, chunk in enumerate(row):
                    store.put(rp, cp, chunk)

        m["core.spill_put_s"], _ = r.time("core.spill_put", spill_put)
        m["core.spill_bytes_on_disk"] = store.nbytes()
        m["core.spill_mb_per_s"] = (
            sum(ch.nbytes() for row in outputs for ch in row)
            / m["core.spill_put_s"] / 2**20)
        m["core.spill_assemble_s"], _ = r.time("core.spill_assemble", store.assemble)
        store.close()

        # host budget = half the output, so the store must spill
        budget = max(c_bytes // 2, 1)
        governed = SimpleNamespace(spilled=0, overcommits=0)

        def governed_run():
            from repro.core.governor import Governor

            gstore = SpillableChunkStore(spill_dir / "governed")
            gov = Governor(GovernorConfig(host_mem_budget_bytes=budget))
            try:
                run_out_of_core(a, a, node, chunk_store=gstore,
                                keep_output=False, governor=gov)
                out = gstore.assemble()
                governed.spilled = gstore.spilled_bytes_total
                governed.overcommits = gov.hostmem.overcommits
                return out
            finally:
                gstore.close()

        m["core.governed_s"], _ = r.time("core.governed", governed_run)
        m["core.governed_spilled_bytes"] = governed.spilled
        m["core.governed_overcommits"] = governed.overcommits
    finally:
        shutil.rmtree(spill_dir, ignore_errors=True)

    # -- observability: the same grid with a Tracer attached -------------
    tracers: List[Tracer] = []

    def traced_grid():
        tracers.append(Tracer())
        return grid_run(backend="serial", tracer=tracers[-1])

    traced_s, _ = r.time("observability.traced_grid", traced_grid)
    m["observability.tracer_overhead_ratio"] = traced_s / m["core.grid_serial_s"]
    m["observability.trace_events"] = (len(tracers[-1].spans)
                                       + len(tracers[-1].gauges))
    del outputs, c

    # -- serve and distributed -------------------------------------------
    m.update(_serve_rungs(workload, st, r))
    m.update(_distributed_rungs(st, r, grid))
    return m, r.samples


# ----------------------------------------------------------------------
# serve: one server, the workload's kind of job
# ----------------------------------------------------------------------
def _serve_rungs(workload, st, r: Rungs) -> Dict[str, float]:
    """Health, upload and job rungs against a fresh `repro serve`.  A serve
    workload submits its own kind of job; a library workload's operand is
    uploaded once and multiplied by hash."""
    from repro.serve.client import ServeClient

    inline = isinstance(workload, ServeWorkload) and workload.inline
    spec = ops.inline_spec(st.s)
    m: Dict[str, float] = {}
    with r.spans.span("serve.start"):
        server = Server(Path(st.tmp), nproc())
    try:
        client = ServeClient(unix_socket=server.socket_path)
        run = asyncio.run
        m["serve.health_roundtrip_s"], _ = r.time(
            "serve.health_roundtrip", lambda: run(client.health()))
        m["serve.upload_operand_s"], up = r.time(
            "serve.upload_operand", lambda: run(client.upload_operand(spec)))
        by_hash = {"a": {"hash": up["hash"]}, "b": {"hash": up["hash"]}}
        payload = ({"a": spec, "b": spec, "return_result": True} if inline
                   else by_hash)

        lags: List[float] = []
        snaps: List[Tuple[float, dict]] = []
        gen = SimpleNamespace(rng=ops.rng_for(st.seed, 2000), due=None, gap=0.0)

        def job():
            # open loop in miniature, one connection: due times advance by
            # seeded exponential gaps (mean twice the last job's latency)
            # whatever the server does, so a slow job makes the next late
            now = time.perf_counter()
            gen.due = now if gen.due is None else gen.due + gen.rng.exponential(gen.gap)
            time.sleep(max(0.0, gen.due - now))
            sent = time.perf_counter()
            lags.append(sent - gen.due)
            snap = run(client.submit_job(payload))
            client_s = time.perf_counter() - sent
            snaps.append((client_s, snap))
            gen.gap = 2.0 * client_s
            return snap

        _, snap = r.time("serve.job", job)
        if snap.get("state") != "done":
            raise RuntimeError(f"ladder job did not finish: {snap}")
        timed_snaps = snaps[-len(r.samples["serve.job"]):]
        med = statistics.median
        m["serve.job_client_s"] = med(lat for lat, _ in timed_snaps)
        m["serve.job_engine_s"] = med(
            sn["result"]["wall_seconds"] for _, sn in timed_snaps)
        m["serve.job_prequeue_s"] = med(
            sn["latency_seconds"] - sn["result"]["wall_seconds"]
            for _, sn in timed_snaps)
        m["serve.job_wire_s"] = med(
            lat - sn["latency_seconds"] for lat, sn in timed_snaps)
        if inline:
            # the same multiply named by hash: what the codec costs on top
            m["serve.job_by_hash_s"], _ = r.time(
                "serve.job_by_hash", lambda: run(client.submit_job(by_hash)))
        else:
            m["serve.job_by_hash_s"] = m["serve.job_client_s"]
        m["serve.request_bytes"] = len(json.dumps(payload).encode())
        m["serve.response_bytes"] = len(json.dumps(snap).encode())
        m["serve.loadgen_lag_s_max"] = max(lags)
        stats = run(client.stats())
        m["serve.cache_hit_rate"] = stats["cache"]["hit_rate"]
        m["serve.rejected"] = stats["scheduler"]["rejected"]
    finally:
        server.stop()
    return m


# ----------------------------------------------------------------------
# distributed: two shards, in-process then over the socket transport
# ----------------------------------------------------------------------
def _wire_roundtrip(strip):
    """csr_arrays -> pack_frame -> recv_frame -> csr_from_arrays over a
    socketpair; the sender runs on a thread because a strip does not fit
    in the socket buffer."""
    from repro.distributed.transport import (csr_arrays, csr_from_arrays,
                                             pack_frame, recv_frame)

    left, right = socket.socketpair()
    try:
        meta, arrays = csr_arrays(strip)
        frame = pack_frame("chunk", meta, arrays)
        sender = threading.Thread(target=left.sendall, args=(frame,))
        sender.start()
        got = recv_frame(right)
        sender.join()
        return csr_from_arrays(got.meta, got.arrays)
    finally:
        left.close()
        right.close()


def _distributed_rungs(st, r: Rungs, grid) -> Dict[str, float]:
    from repro.distributed.shard import ShardConfig, run_sharded

    a = st.a
    m: Dict[str, float] = {}
    m["distributed.shard_local_s"], local = r.time(
        "distributed.shard_local",
        lambda: run_sharded(a, a, ShardConfig(num_shards=2), grid=grid))
    flops = [rec.flops for rec in local.records]
    m["distributed.shard_flops_imbalance"] = max(flops) / (sum(flops) / len(flops))
    first = local.records[0]
    rows = int(grid.row_bounds[first.rp_hi] - grid.row_bounds[first.rp_lo])
    strip = local.matrix.row_slice(0, rows)
    del local
    m["distributed.wire_roundtrip_s"], _ = r.time(
        "distributed.wire_roundtrip", lambda: _wire_roundtrip(strip))
    del strip

    with r.spans.span("distributed.pool_spawn") as spawn:
        pool = spawn_shard_pool(Path(st.tmp))
    m["distributed.pool_spawn_s"] = spawn["end"] - spawn["start"]
    try:
        cfg = ShardConfig(num_shards=2, transport="socket")
        m["distributed.shard_socket_s"], res = r.time(
            "distributed.shard_socket",
            lambda: run_sharded(a, a, cfg, grid=grid, worker_pool=pool))
        recs = res.records
        m["distributed.bcast_s"] = sum(rec.bcast_seconds for rec in recs)
        m["distributed.gather_s"] = sum(rec.gather_seconds for rec in recs)
        m["distributed.bytes_sent"] = sum(rec.bytes_sent for rec in recs)
        m["distributed.bytes_received"] = sum(rec.bytes_received for rec in recs)
        m["distributed.gather_mb_per_s"] = (
            m["distributed.bytes_received"] / m["distributed.gather_s"] / 2**20)
        m["distributed.reconnects"] = sum(rec.reconnects for rec in recs)
    finally:
        pool.close()
    return m
