"""The six workloads: inputs, the call that is one *op*, and the loop.

An op is one product delivered to the caller.  Library workloads call
the public function in a closed loop with one caller; serve workloads
drive a `repro serve` subprocess over its unix socket, in turns open loop
(seeded Poisson arrivals, latency counted from each job's due time) and
closed loop with `nproc` clients (capacity).  Every product is verified
outside the timed region.
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import operands as ops
from harness import (OP_TIMEOUT_S, ROOT, Verifier, nproc, peak_rss_mb,
                     percentile, summarize, timed)

#: set-up is repeated and the fastest repeat reported: a fresh server or
#: worker process first touches a few hundred MB, and on this host the
#: page-fault path is 2-8x slower for seconds at a time, so a median of
#: three moves with it while added set-up work raises all three alike
SETUP_REPEATS = 3
#: floor on samples per library workload (ISSUE: never below 16)
MIN_LIBRARY_OPS = 16
#: floor on open-loop samples per serve workload (ISSUE: never below 100);
#: like the library floor it outranks `--seconds`
MIN_SERVE_JOBS = 100
#: a serve run alternates this many open segments and closed bursts
SERVE_ROUNDS = 5
#: quick mode: at most this many ops per library workload
QUICK_OPS = 3


# ----------------------------------------------------------------------
# library workloads: closed loop, one caller
# ----------------------------------------------------------------------
class LibraryWorkload:
    """`build` makes the operand from the seed, `op` is the timed call."""

    def __init__(self, name: str, build: Callable, op: Callable,
                 prepare: Optional[Callable] = None) -> None:
        self.name = name
        self._build = build
        self._op = op
        self._prepare = prepare

    def setup(self, seed: int, tmp: Path) -> SimpleNamespace:
        s = self._build(ops.rng_for(seed))
        ref = ops.reference_product(s)
        st = SimpleNamespace(seed=seed, s=s, ref=ref, a=ops.wrap(s), tmp=tmp,
                             node=ops.ooc_node(s, ref),
                             verifier=Verifier(ref), pool=None, grid=None,
                             warm_ok=False)
        try:
            if self._prepare is not None:
                self._prepare(st)
            # warm-up op: caches fill, and the first product is the one
            # compared to scipy
            st.warm_ok = st.verifier.check(self._op(st))
        except BaseException:
            self.teardown(st)
            raise
        return st

    def single_op(self, st: SimpleNamespace) -> Tuple[float, bool]:
        seconds, c = timed(lambda: self._op(st))
        return seconds, st.verifier.check(c) and seconds <= OP_TIMEOUT_S

    def teardown(self, st: SimpleNamespace) -> None:
        if st.pool is not None:
            st.pool.close()
            st.pool = None

    def measure(self, st: SimpleNamespace, seconds: float, quick: bool) -> dict:
        lat: List[float] = []
        anchor: List[float] = []
        attempted = failed = 0
        spent = 0.0
        min_ops, max_ops = (1, QUICK_OPS) if quick else (MIN_LIBRARY_OPS, 10_000)
        while (spent < seconds or attempted < min_ops) and attempted < max_ops:
            attempted += 1
            t0 = time.perf_counter()
            try:
                dt, ok = self.single_op(st)
            except Exception as exc:  # the op is the system under test
                print(f"  op {attempted} raised {type(exc).__name__}: {exc}")
                dt, ok = time.perf_counter() - t0, False
            spent += dt
            if ok:
                lat.append(dt)
            else:
                failed += 1
            # the anchor, interleaved so both see the same machine state
            anchor.append(timed(lambda: st.s @ st.s)[0])
        if not st.warm_ok:
            attempted += 1
            failed += 1
        return {"latencies": lat, "anchor": anchor,
                "ops_per_s": len(lat) / sum(lat) if lat else 0.0,
                "attempted": attempted, "failed": failed,
                "phases": {"closed": {"sent": attempted,
                                      "succeeded": len(lat), "failed": failed}}}


def _op_ooc(st):
    from repro.core.api import run_out_of_core

    return run_out_of_core(st.a, st.a, st.node).matrix


def _op_spill(st):
    from repro.core.api import run_out_of_core
    from repro.core.spill import DiskChunkStore

    directory = tempfile.mkdtemp(prefix="spill-", dir=st.tmp)
    store = DiskChunkStore(directory)
    try:
        run_out_of_core(st.a, st.a, st.node, chunk_store=store,
                        keep_output=False)
        return store.assemble()
    finally:
        store.close()
        shutil.rmtree(directory, ignore_errors=True)


def spawn_shard_pool(tmp: Path):
    """Two shard workers over unix sockets under the workload's tmp dir
    (`tempfile.tempdir` points there); localhost TCP when that path would
    not fit in a `sun_path`."""
    from repro.distributed.transport import RemoteShardPool

    kind = "unix" if len(str(tmp)) < 60 else "tcp"
    return RemoteShardPool.spawn(2, kind=kind)


def _prepare_shard(st):
    from repro.core.planner import plan_grid

    st.grid = plan_grid(st.a, st.a, st.node).grid
    st.pool = spawn_shard_pool(st.tmp)


def _op_shard(st):
    from repro.distributed.shard import ShardConfig, run_sharded

    cfg = ShardConfig(num_shards=2, transport="socket")
    return run_sharded(st.a, st.a, cfg, grid=st.grid,
                       worker_pool=st.pool).matrix


# ----------------------------------------------------------------------
# serve workloads: open loop then closed loop against `repro serve`
# ----------------------------------------------------------------------
#: Keeps one vCPU from halting: spins at idle priority, so it runs only when
#: nothing else wants the CPU, and ends with the process that started it.
_SPINNER = """
import os, sys
os.sched_setaffinity(0, {int(sys.argv[1])})
os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
while os.getppid() == int(sys.argv[2]):
    for _ in range(1_000_000):
        pass
"""


class Server:
    """A `python -m repro serve` subprocess on a unix socket.

    While it lives, an idle-priority spinner per CPU keeps the vCPUs awake.
    A served job is a chain of wake-ups (client, event loop, slot thread and
    back), and on this host waking a halted vCPU costs anything up to a
    millisecond: without the spinners the open-loop median of `serve-warm`
    moved 0.013-0.021 s between runs of one seed, with them 0.0126-0.0139 s."""

    def __init__(self, tmp: Path, slots: int) -> None:
        self.spinners: List[subprocess.Popen] = []
        # relative to ROOT (the cwd): a sun_path holds ~107 bytes
        self.socket_path = os.path.relpath(tmp / "serve.sock", ROOT)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--unix-socket", self.socket_path, "--slots", str(slots)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
        try:
            for cpu in sorted(os.sched_getaffinity(0)):
                self.spinners.append(subprocess.Popen(
                    [sys.executable, "-c", _SPINNER, str(cpu), str(os.getpid())]))
            self._await_listening(30.0)
        except BaseException:
            self.stop()
            raise

    def _await_listening(self, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited with {self.proc.returncode}")
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.25)
            if ready and "listening" in self.proc.stdout.readline():
                return
        raise RuntimeError("repro serve did not start listening in time")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)  # graceful: unlinks socket + shm
            try:
                self.proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10.0)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        for spinner in self.spinners:
            spinner.kill()
        for spinner in self.spinners:
            spinner.wait()


class ServeWorkload:
    """`pool` operands; jobs name them by hash (`inline=False`, CRC-only
    results) or ship them in every request and ask for the arrays back."""

    def __init__(self, name: str, *, scale: int, degree: float, pool: int,
                 rate: float, inline: bool) -> None:
        self.name = name
        self.scale, self.degree, self.pool = scale, degree, pool
        self.rate, self.inline = rate, inline

    # -- set-up ---------------------------------------------------------
    def setup(self, seed: int, tmp: Path) -> SimpleNamespace:
        from repro.core.api import spgemm
        from repro.core.governor.integrity import crc32_matrix
        from repro.serve.client import ServeClient

        # the wiki analog's mild skew: jobs of one pool cost about the same,
        # so the latency median does not hop between operand-sized modes
        mats = [ops.rmat(self.scale, self.degree, ops.rng_for(seed, i),
                         a=0.45, b=0.22, c=0.22)
                for i in range(self.pool)]
        st = SimpleNamespace(seed=seed, s=mats[0], mats=mats,
                             a=ops.wrap(mats[0]), tmp=tmp,
                             verifiers=[], crcs=[], payloads=[], warm_ok=True,
                             server=None, client=None)
        st.ref = ops.reference_product(mats[0])
        st.node = ops.ooc_node(mats[0], st.ref)
        for i, s in enumerate(mats):
            # the expected CRC comes from a local product that was itself
            # compared to scipy; the server's must be bit-identical to it
            v = Verifier(st.ref if i == 0 else ops.reference_product(s))
            c = spgemm(ops.wrap(s), ops.wrap(s))
            st.warm_ok &= v.check(c)
            st.verifiers.append(v)
            st.crcs.append(crc32_matrix(c))
        st.server = Server(tmp, nproc())
        try:
            st.client = ServeClient(unix_socket=st.server.socket_path)
            specs = [ops.inline_spec(s) for s in mats]
            if self.inline:
                st.payloads = [{"a": spec, "b": spec, "return_result": True}
                               for spec in specs]
            else:
                hashes = asyncio.run(self._upload(st.client, specs))
                st.payloads = [{"a": {"hash": h}, "b": {"hash": h}}
                               for h in hashes]
            for i in range(self.pool):  # warm-up: one verified job each
                st.warm_ok &= self.single_op(st, i)[1]
        except BaseException:
            self.teardown(st)
            raise
        return st

    @staticmethod
    async def _upload(client, specs) -> List[str]:
        return [(await client.upload_operand(spec))["hash"] for spec in specs]

    def teardown(self, st: SimpleNamespace) -> None:
        if st.server is not None:
            st.server.stop()
            st.server = None

    # -- one job --------------------------------------------------------
    def check(self, st: SimpleNamespace, index: int, snap: Optional[dict]) -> bool:
        """Snapshot CRC against the scipy-verified local product; the
        returned arrays too when the job asked for them."""
        if not snap or snap.get("state") != "done":
            return False
        result = snap.get("result", {})
        if result.get("crc32") != st.crcs[index]:
            return False
        if self.inline:
            from repro.sparse.formats import CSRMatrix

            m = result.get("matrix")
            if not m:
                return False
            c = CSRMatrix(m["shape"][0], m["shape"][1], m["row_offsets"],
                          m["col_ids"], m["data"])
            return st.verifiers[index].check(c)
        return True

    def single_op(self, st: SimpleNamespace, index: int = 0) -> Tuple[float, bool]:
        t0 = time.perf_counter()
        snap = asyncio.run(_submit(st.client, st.payloads[index]))
        seconds = time.perf_counter() - t0
        return seconds, self.check(st, index, snap)

    # -- the two phases -------------------------------------------------
    def measure(self, st: SimpleNamespace, seconds: float, quick: bool) -> dict:
        """`SERVE_ROUNDS` rounds of an open segment then a closed burst of as
        many jobs.  This host runs up to twice slower for seconds at a time;
        taken in turns, both phases sample the same stretches of it, and a
        burst that is a job count keeps `attempted` and the server's memory
        (it retains every job record) the same from run to run."""
        if quick:
            rounds, per_round = 1, max(1, int(round(self.rate * 1.5)))
        else:
            rounds = SERVE_ROUNDS
            per_round = -(-max(MIN_SERVE_JOBS, int(round(self.rate * 0.7 * seconds)))
                          // rounds)
        rng = ops.rng_for(st.seed, 1000)
        results: Dict[str, List[dict]] = {"open": [], "closed": []}
        anchor: List[float] = []
        for _ in range(rounds):
            for label in results:
                order = rng.integers(0, self.pool, size=per_round)
                gc.collect()
                gc.disable()  # the load generator must not stall mid-segment
                try:
                    if label == "open":
                        due = np.cumsum(rng.exponential(1.0 / self.rate, size=per_round))
                        raw, ticks = asyncio.run(_while_timing_anchor(
                            st.mats, _open_loop(st.client, st.payloads, order, due)))
                        anchor += ticks
                    else:
                        raw = asyncio.run(
                            _closed_loop(st.client, st.payloads, order, nproc()))
                finally:
                    gc.enable()
                # checked between segments, outside every timed region, and
                # the returned matrices dropped
                for r in raw:
                    r["ok"] = (self.check(st, r.pop("index"), r.pop("snap"))
                               and r["latency"] <= OP_TIMEOUT_S)
                results[label] += raw

        good = {label: [r for r in rs if r["ok"]] for label, rs in results.items()}
        phases = {label: {"sent": len(rs), "succeeded": len(good[label]),
                          "failed": len(rs) - len(good[label])}
                  for label, rs in results.items()}
        lat = [r["latency"] for r in good["open"]]
        closed_lat = [r["latency"] for r in good["closed"]]
        attempted = phases["open"]["sent"] + phases["closed"]["sent"]
        failed = phases["open"]["failed"] + phases["closed"]["failed"]
        if not st.warm_ok:
            attempted += 1
            failed += 1
        # capacity by Little's law from the *median* closed-loop job time:
        # completions / wall would report the host's stalls, not the server
        capacity = nproc() / statistics.median(closed_lat) if closed_lat else 0.0
        return {"latencies": lat, "anchor": anchor, "ops_per_s": capacity,
                "attempted": attempted, "failed": failed, "phases": phases,
                "loadgen_lag_s_max": max((r["lag"] for r in good["open"]),
                                         default=0.0),
                "offered_rate_per_s": self.rate}


async def _submit(client, payload) -> Optional[dict]:
    """One wait-mode job; a refused, timed-out or dropped one comes back
    as an `error` snapshot, which no check accepts."""
    from repro.serve.client import ServeError

    try:
        return await asyncio.wait_for(client.submit_job(payload), OP_TIMEOUT_S)
    except (ServeError, asyncio.TimeoutError, OSError, ValueError,
            asyncio.IncompleteReadError) as exc:
        return {"state": "error", "error": f"{type(exc).__name__}: {exc}"}


#: one scipy product every this many seconds while the open loop runs
ANCHOR_PERIOD_S = 0.05


async def _while_timing_anchor(mats, jobs):
    """Await `jobs` with the scipy anchor timed in the gaps, one
    sub-millisecond product of a pool operand every 50 ms: this host's speed
    wanders within a second, and only samples spread over the same seconds
    as the jobs share that drift.  Returns the jobs' result and the samples."""
    anchor: List[float] = []

    async def time_anchor() -> None:
        for s in itertools.cycle(mats):
            t0 = time.perf_counter()
            s @ s
            anchor.append(time.perf_counter() - t0)
            await asyncio.sleep(ANCHOR_PERIOD_S)

    ticker = asyncio.create_task(time_anchor())
    try:
        return await jobs, anchor
    finally:
        ticker.cancel()


async def _open_loop(client, payloads, order, due) -> List[dict]:
    """Send job *i* at `due[i]` whatever the server is doing; latency runs
    from the due time, so a stall is charged to every job it delays."""
    loop = asyncio.get_running_loop()
    start = loop.time() + 0.05

    async def one(i: int) -> dict:
        target = start + float(due[i])
        await asyncio.sleep(max(0.0, target - loop.time()))
        lag = loop.time() - target
        snap = await _submit(client, payloads[int(order[i])])
        return {"index": int(order[i]), "lag": lag, "snap": snap,
                "latency": loop.time() - target}

    return list(await asyncio.gather(*(one(i) for i in range(len(due)))))


async def _closed_loop(client, payloads, order, clients: int) -> List[dict]:
    """`clients` callers share the jobs of `order`, each sending its next
    one when its last returns."""
    loop = asyncio.get_running_loop()
    pending = iter(order)
    results: List[dict] = []

    async def caller() -> None:
        for index in pending:
            t0 = loop.time()
            snap = await _submit(client, payloads[int(index)])
            results.append({"index": int(index), "snap": snap,
                            "latency": loop.time() - t0})

    await asyncio.gather(*(caller() for _ in range(clients)))
    return results


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------
WORKLOADS: Dict[str, object] = {
    "ooc-mesh": LibraryWorkload(
        "ooc-mesh", lambda rng: ops.mesh(40_000, rng), _op_ooc),
    "ooc-graph": LibraryWorkload(
        "ooc-graph", lambda rng: ops.wiki_rmat(13, rng), _op_ooc),
    "ooc-spill": LibraryWorkload(
        "ooc-spill", lambda rng: ops.wiki_rmat(11, rng), _op_spill),
    "serve-warm": ServeWorkload(
        "serve-warm", scale=9, degree=8, pool=6, rate=16.0, inline=False),
    "serve-inline": ServeWorkload(
        "serve-inline", scale=8, degree=8, pool=4, rate=4.5, inline=True),
    "shard-socket": LibraryWorkload(
        "shard-socket", lambda rng: ops.wiki_rmat(13, rng), _op_shard,
        prepare=_prepare_shard),
}


# ----------------------------------------------------------------------
# one plain (untraced) run of one workload
# ----------------------------------------------------------------------
def timed_setups(workload, seed: int, tmp: Path, repeats: int):
    """Set up `repeats` times, keep the last state; returns it with the
    per-repeat seconds (teardown of the discarded states is not timed)."""
    seconds: List[float] = []
    st = None
    for _ in range(repeats):
        if st is not None:
            workload.teardown(st)
        t0 = time.perf_counter()
        st = workload.setup(seed, tmp)
        seconds.append(time.perf_counter() - t0)
    return st, seconds


def run_plain(name: str, seed: int, seconds: float, quick: bool, tmp: Path) -> dict:
    """Set up, measure, tear down; returns the end-to-end metrics with
    their samples summarised, and the counts."""
    workload = WORKLOADS[name]
    st, setup_seconds = timed_setups(workload, seed, tmp,
                                     1 if quick else SETUP_REPEATS)
    try:
        m = workload.measure(st, seconds, quick)
    finally:
        workload.teardown(st)
    lat, anchor = m["latencies"], m["anchor"]
    # a run with no successful op still reports (as failed), with the
    # timeout standing in for the latency it never achieved
    p50 = statistics.median(lat) if lat else OP_TIMEOUT_S
    p90 = percentile(lat, 90) if lat else OP_TIMEOUT_S
    scipy_s = statistics.median(anchor)
    rss = peak_rss_mb()
    metrics = {
        "setup_s": {"value": min(setup_seconds), "unit": "s",
                    **summarize(setup_seconds)},
        "op_latency_s_p50": {"value": p50, "unit": "s", **summarize(lat)},
        "op_latency_s_p90": {"value": p90, "unit": "s", **summarize(lat)},
        "ops_per_s": {"value": m["ops_per_s"], "unit": "1/s",
                      **summarize([m["ops_per_s"]])},
        "slowdown_vs_scipy": {"value": p50 / scipy_s, "unit": "ratio",
                              **summarize([x / scipy_s for x in lat])},
        # products delivered in the time scipy takes for one
        "throughput_vs_scipy": {"value": m["ops_per_s"] * scipy_s, "unit": "ratio",
                                **summarize([m["ops_per_s"] * scipy_s])},
        "peak_rss_mb": {"value": rss, "unit": "MiB", **summarize([rss])},
    }
    detail = {k: m[k] for k in ("phases", "loadgen_lag_s_max", "offered_rate_per_s")
              if k in m}
    detail["anchor_scipy_s"] = scipy_s
    if lat:
        detail["op_latency_s_p75"] = percentile(lat, 75)
    return {"metrics": metrics, "attempted": m["attempted"],
            "failed": m["failed"], "detail": detail}
