"""End-to-end tests for the asyncio job server (repro.serve.server).

Each test spins a real server on an ephemeral TCP port inside one
``asyncio.run`` and talks to it with the hand-rolled client — the same
wire path the ``serve-warm`` / ``serve-inline`` benchmark workloads use.
"""

import asyncio
import collections
import glob
import json
import threading

import numpy as np
import pytest
from hypothesis import given, settings

import repro.core.chunks as chunks_mod
import repro.serve.server as server_mod
import repro.sparse.partition as partition_mod
from repro.core.assemble import assemble_chunks
from repro.core.chunks import ChunkGrid, csr_bytes
from repro.core.executor import execute_chunk_grid
from repro.core.governor.integrity import crc32_matrix
from repro.observability import validate_chrome_trace
from repro.sparse.formats import CSRMatrix
from tests.reference import assert_same_product
from repro.serve import (
    ServeClient,
    ServeError,
    ServerConfig,
    SpgemmServer,
    TenantQuota,
)
from repro.serve.jobs import resolve_operand
from repro.serve.server import (
    CEILING_SHARE,
    MAX_HEAD_BYTES,
    MAX_HEAD_LINES,
    RETAINED_PAYLOADS,
    price_job,
)
from repro.spgemm.flops import product_prefix
from repro.spgemm.twophase import spgemm_twophase
from tests.core.test_product_table import from_mask, problems

A_SPEC = {"gen": {"family": "banded", "n": 256, "bandwidth": 4, "seed": 1}}
B_SPEC = {"gen": {"family": "banded", "n": 256, "bandwidth": 4, "seed": 2}}
GRID = [2, 1]


def serve(coro_fn, config=None):
    """Run ``await coro_fn(server, client)`` against a live server."""

    async def main():
        server = SpgemmServer(config or ServerConfig(slots=4))
        await server.start()
        client = ServeClient(*server.address)
        try:
            return await coro_fn(server, client)
        finally:
            await server.stop()

    return asyncio.run(main())


async def drained(server):
    """Wait until the scheduler's queue and slots are empty."""
    assert await asyncio.get_running_loop().run_in_executor(
        None, server.scheduler.wait_idle, 30.0
    )


def job_payload(**overrides):
    payload = {"a": A_SPEC, "b": B_SPEC, "grid": GRID}
    payload.update(overrides)
    return payload


def local_product():
    a = resolve_operand(A_SPEC)
    b = resolve_operand(B_SPEC)
    grid = ChunkGrid.regular(a.n_rows, b.n_cols, *GRID)
    _, outputs = execute_chunk_grid(a, b, grid, workers=1, keep_outputs=True)
    return a, b, assemble_chunks(outputs)


class TestEndToEnd:
    def test_ten_concurrent_jobs_shared_operands(self):
        # ten overlapping jobs over one operand pair: every result must
        # match the single-run engine bit-for-bit and the repeated
        # operands must come out of the cache, not be rebuilt
        async def run(server, client):
            health = await client.health()
            assert health["ok"] is True
            payloads = [job_payload(tenant=f"t{i % 3}") for i in range(10)]
            snapshots = await asyncio.gather(
                *(client.submit_job(p) for p in payloads)
            )
            # the done event fires before the scheduler's bookkeeping
            # finishes; drain it so the counters below are final
            await drained(server)
            stats = await client.stats()
            return snapshots, stats

        snapshots, stats = serve(run)
        _, _, expected = local_product()
        expected_crc = crc32_matrix(expected)
        assert len(snapshots) == 10
        for snap in snapshots:
            assert snap["state"] == "done", snap.get("error")
            assert snap["result"]["crc32"] == expected_crc
            assert snap["result"]["nnz"] == expected.nnz
            assert snap["chunks_done"] == snap["chunks_total"] == 2
        # 20 operand resolutions, only the first build of each side may
        # miss; concurrent first arrivals dedup inside get_or_put
        assert stats["cache"]["hit_rate"] > 0.5
        assert stats["scheduler"]["completed"] == 10
        assert stats["scheduler"]["overcommits"] == 0
        assert (stats["host_mem_peak_reserved"]
                <= stats["scheduler"]["host_budget_bytes"])

    def test_result_matches_scipy_oracle(self):
        async def run(server, client):
            return await client.submit_job(job_payload(return_result=True))

        snap = serve(run)
        assert snap["state"] == "done"
        arrays = snap["result"]["matrix"]
        got = CSRMatrix(*arrays["shape"],
                        np.asarray(arrays["row_offsets"]),
                        np.asarray(arrays["col_ids"]),
                        np.asarray(arrays["data"]))
        a, b, expected = local_product()
        assert got == expected
        assert_same_product(got, a, b)

    def test_wait_false_returns_queued_then_polls_to_done(self):
        async def run(server, client):
            queued = await client.submit_job(job_payload(wait=False))
            assert queued["state"] in ("queued", "admitted", "running",
                                       "done")
            job_id = queued["job_id"]
            for _ in range(200):
                snap = await client.job(job_id)
                if snap["state"] in ("done", "failed"):
                    return snap
                await asyncio.sleep(0.02)
            return snap

        snap = serve(run)
        assert snap["state"] == "done"

    def test_unix_socket_transport(self, tmp_path):
        sock = str(tmp_path / "serve.sock")

        async def run(server, client):
            unix_client = ServeClient(unix_socket=sock)
            snap = await unix_client.submit_job(job_payload())
            assert snap["state"] == "done"
            return await unix_client.health()

        health = serve(run, ServerConfig(slots=2, unix_socket=sock))
        assert health["ok"] is True


class TestStreaming:
    def test_event_stream_order_and_chunk_feed(self):
        async def run(server, client):
            events = []
            async for event in client.stream_job(job_payload()):
                events.append(event)
            return events

        events = serve(run)
        kinds = [e["event"] for e in events]
        assert kinds[0] == "queued"
        assert kinds[-1] == "done"
        # lifecycle events arrive in causal order with one chunk event
        # per completed chunk in between
        assert kinds.index("queued") < kinds.index("admitted") \
            < kinds.index("started") < kinds.index("done")
        assert kinds.count("chunk") == GRID[0] * GRID[1]
        done = events[-1]
        assert done["result"]["nnz"] > 0

    def test_a_done_event_longer_than_a_stream_buffer(self):
        # 65,728 nnz: the done line is ~1.5 MB, past asyncio's 64 KiB
        # default line limit
        big = {"gen": {"family": "banded", "n": 2000, "bandwidth": 8}}
        payload = {"a": big, "b": big, "return_result": True}

        async def run(server, client):
            events = [e async for e in client.stream_job(payload)]
            return events[-1], await client.submit_job(payload)

        done, waited = serve(run)
        assert done["event"] == "done"
        assert done["result"]["nnz"] == waited["result"]["nnz"] == 65_728
        assert done["result"]["matrix"] == waited["result"]["matrix"]


class TestJobFlags:
    FLAGS = ("return_result", "trace", "stream", "wait")

    @pytest.mark.parametrize("flag", FLAGS)
    def test_only_json_booleans_are_flags(self, flag):
        async def run(server, client):
            refusals = []
            for value in ("false", 0, "yes"):
                with pytest.raises(ServeError) as err:
                    await client.submit_job(job_payload(**{flag: value}))
                refusals.append(err.value)
            return refusals, len(server._records)

        refusals, records = serve(run)
        for err in refusals:
            assert err.status == 400
            assert f"{flag} must be true or false" in err.payload["error"]
        assert records == 0

    def test_true_and_false_are_accepted(self):
        async def run(server, client):
            snaps = [await client.submit_job(job_payload(
                return_result=v, trace=v, stream=False, wait=True))
                for v in (True, False)]
            queued = await client.submit_job(job_payload(wait=False))
            events = [e async for e in client.stream_job(job_payload())]
            await drained(server)
            return snaps, queued, events

        (with_result, without), queued, events = serve(run)
        assert with_result["state"] == without["state"] == "done"
        assert "matrix" in with_result["result"]
        assert "matrix" not in without["result"]
        assert queued["event"] == "queued"
        assert events[-1]["event"] == "done"


class TestJobFieldTypes:
    """``workers``, ``grid`` and ``tenant`` are taken as JSON sends them:
    integers are integers (``true`` is not), a grid is a two-item array
    of them, a tenant is a string — nothing is coerced."""

    @pytest.mark.parametrize("field, value", [
        ("workers", 2.7), ("workers", True), ("workers", "2"),
        ("workers", None), ("workers", 0), ("grid", "12"),
        ("grid", [1.9, "2"]), ("grid", [2.0, 1]), ("grid", [True, 1]),
        ("grid", [2, 1, 1]), ("grid", {"0": 2, "1": 1}), ("grid", 2),
        ("tenant", None), ("tenant", 5), ("tenant", ["t"]),
    ], ids=repr)
    def test_a_value_of_the_wrong_type_is_refused(self, field, value):
        async def run(server, client):
            with pytest.raises(ServeError) as err:
                await client.submit_job(job_payload(**{field: value}))
            return err.value, len(server._records)

        err, records = serve(run)
        assert err.status == 400
        assert err.payload["state"] == "rejected"
        assert f"{field} must be" in err.payload["error"]
        assert records == 0

    def test_integers_and_strings_are_accepted(self):
        async def run(server, client):
            snap = await client.submit_job(job_payload(
                workers=2, grid=[1, 2], tenant="acme"))
            return snap

        snap = serve(run)
        assert snap["state"] == "done"
        assert snap["tenant"] == "acme"
        assert snap["chunks_total"] == 2


class TestOperandUpload:
    def test_hash_spec_round_trip(self):
        async def run(server, client):
            first = await client.upload_operand(A_SPEC)
            again = await client.upload_operand(A_SPEC)
            assert first["hash"] == again["hash"]
            assert not first["cached"] and again["cached"]
            snap = await client.submit_job(
                job_payload(a={"hash": first["hash"]})
            )
            return snap

        snap = serve(run)
        assert snap["state"] == "done"
        assert snap["cache"]["a"] is True

    def test_unknown_hash_rejects(self):
        async def run(server, client):
            with pytest.raises(ServeError) as exc_info:
                await client.submit_job(job_payload(a={"hash": "f" * 64}))
            return exc_info.value

        err = serve(run)
        assert err.status == 400
        assert "not in the cache" in err.payload["error"]


class TestValidation:
    def test_unknown_field_rejects(self):
        async def run(server, client):
            with pytest.raises(ServeError) as exc_info:
                await client.submit_job(job_payload(frobnicate=1))
            return exc_info.value

        err = serve(run)
        assert err.status == 400

    def test_mismatched_shapes_reject(self):
        async def run(server, client):
            bad_b = {"gen": {"family": "banded", "n": 128}}
            with pytest.raises(ServeError) as exc_info:
                await client.submit_job(job_payload(b=bad_b))
            return exc_info.value

        err = serve(run)
        assert err.status == 400
        assert "do not chain" in err.payload["error"]

    @pytest.mark.parametrize("refused", [
        {"kernel": "bogus"},
        {"kernel": "merge"},          # a removed kind is an unknown kind
        {"kernel": "hash@0.25"},      # and so is the removed wire form
        {"backend": "bogus"},
        {"backend": "serial", "workers": 2},
        {"grid": [1000, 1]},          # 256-row operands
        {"grid": [1, 1000]},
    ], ids=["kernel", "merge", "threshold", "backend", "serial-workers",
            "grid-rows", "grid-cols"])
    def test_what_the_engine_would_refuse_is_never_admitted(self, refused):
        """400 and ``rejected`` at the door: no price, no queue entry, no
        ledger reservation, no slot — and the server carries on."""
        async def run(server, client):
            with pytest.raises(ServeError) as exc_info:
                await client.submit_job(job_payload(**refused))
            after_refusal = await client.stats()
            snap = await client.submit_job(job_payload())
            return exc_info.value, after_refusal, snap

        err, stats, snap = serve(run)
        assert err.status == 400
        assert err.payload["state"] == "rejected"
        assert "ValueError" in err.payload["error"]
        assert "priced" not in err.payload
        scheduler = stats["scheduler"]
        assert scheduler["submitted"] == scheduler["failed"] == 0
        assert scheduler["host_peak_bytes"] == 0
        assert stats["jobs_by_state"].get("failed", 0) == 0
        assert snap["state"] == "done"

    def test_an_unbuildable_native_is_refused_at_submit(self, monkeypatch):
        """On a host that cannot build the native kernel an explicit
        ``native`` job is a 400 at the door, not a failure in the engine:
        nothing is priced or queued."""
        import repro.spgemm.kernels as kernels

        monkeypatch.setattr(kernels, "native_available", lambda: False)
        monkeypatch.setattr(kernels, "native_build_error",
                            lambda: "disabled via REPRO_NATIVE=0")

        async def run(server, client):
            with pytest.raises(ServeError) as exc_info:
                await client.submit_job(job_payload(kernel="native"))
            return exc_info.value, await client.stats()

        err, stats = serve(run)
        assert err.status == 400
        assert err.payload["state"] == "rejected"
        assert "kernel 'native' requested but unavailable" in err.payload["error"]
        assert "priced" not in err.payload
        assert stats["scheduler"]["submitted"] == 0
        assert stats["scheduler"]["host_peak_bytes"] == 0

    def test_unknown_routes_404(self):
        async def run(server, client):
            with pytest.raises(ServeError) as exc_info:
                await client.request("GET", "/v1/nope")
            assert exc_info.value.status == 404
            with pytest.raises(ServeError) as exc_info:
                await client.job(999999)
            assert exc_info.value.status == 404

        serve(run)

    def test_malformed_heads_get_400_not_a_dead_handler(self):
        """A head the parser cannot size must be answered (or the
        connection closed) by ``_handle`` itself — never by an exception
        escaping into the event loop."""
        heads = {
            "not-a-number": b"POST /v1/jobs HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
            "negative": b"POST /v1/jobs HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
            # EOF before the blank line, and before the promised body
            "truncated": b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 10\r\n",
            # a body the server cannot size: refused, not read as empty
            "chunked": b"POST /v1/jobs HTTP/1.1\r\nTransfer-Encoding: chunked"
                       b"\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
        }

        async def run(server, client):
            escaped = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: escaped.append(context))
            replies = {}
            for name, head in heads.items():
                reader, writer = await asyncio.open_connection(*server.address)
                writer.write(head)
                writer.write_eof()
                replies[name] = await asyncio.wait_for(reader.read(), 10.0)
                writer.close()
                await writer.wait_closed()
            await client.health()  # the server still answers
            return replies, escaped

        replies, escaped = serve(run)
        assert escaped == []
        for name in ("not-a-number", "negative"):
            head, _, body = replies[name].partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 400 "), replies[name]
            assert "Content-Length" in json.loads(body)["error"]
        head, _, body = replies["chunked"].partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 501 Not Implemented"), head
        assert "Content-Length" in json.loads(body)["error"]
        assert replies["truncated"] == b""  # a clean close


def inline_spec(matrix):
    return {"inline": {
        "shape": list(matrix.shape),
        "row_offsets": matrix.row_offsets.tolist(),
        "col_ids": matrix.col_ids.tolist(),
        "data": matrix.data.tolist(),
    }}


def held_payloads(server):
    """Job ids whose record still pins a result matrix or an inline
    operand body."""
    return sorted(
        job_id for job_id, record in server._records.items()
        if "matrix" in record.result
        or any(op.get("inline") for op in (record.spec.a_spec,
                                           record.spec.b_spec))
    )


def container_sizes(server):
    """``len()`` of every container reachable from the server through
    the attributes of the package's own objects, by attribute path —
    job records aside, whose count is the job count by design."""
    sizes, seen = {}, set()
    stack = [("server", server)]
    while stack:
        path, obj = stack.pop()
        if id(obj) in seen or path == "server._records":
            continue
        seen.add(id(obj))
        if isinstance(obj, (list, tuple, set, frozenset, dict,
                            collections.deque)):
            sizes[path] = sizes.get(path, 0) + len(obj)
            members = obj.values() if isinstance(obj, dict) else obj
            stack.extend((path + "[]", m) for m in members)
        elif (type(obj).__module__.startswith("repro.")
              and hasattr(obj, "__dict__")):  # enums and slotted records: no
            stack.extend((f"{path}.{k}", v) for k, v in vars(obj).items())
    return sizes


class TestRetention:
    def test_only_the_scalar_records_grow_with_the_job_count(self):
        """No per-job sample, span or handle outlives its job: between
        100 and 200 served jobs the only container that gets longer is
        ``_records`` — and the peak ``/v1/stats`` reports is the
        ledger's own, held incrementally."""
        async def run(server, client):
            sizes = []
            for _ in range(2):
                for _ in range(10):
                    await asyncio.gather(*(
                        client.submit_job(job_payload(tenant=f"t{i % 3}"))
                        for i in range(10)))
                await drained(server)
                sizes.append(container_sizes(server))
            return (sizes, len(server._records), await client.stats(),
                    server.scheduler.hostmem.peak_bytes, held_payloads(server))

        sizes, records, stats, ledger_peak, held = serve(run)
        assert records == 200 and held == []
        assert len(sizes[0]) > 10  # the walk reached scheduler, ledger, cache
        assert sizes[1] == sizes[0]
        assert stats["scheduler"]["completed"] == 200
        assert 0 < stats["host_mem_peak_reserved"] == ledger_peak
        assert ledger_peak <= stats["scheduler"]["host_budget_bytes"]

    def test_delivered_jobs_keep_only_the_scalar_record(self):
        inline = inline_spec(resolve_operand(A_SPEC))

        async def run(server, client):
            snaps = await asyncio.gather(*(
                client.submit_job({"a": inline, "b": inline,
                                   "return_result": True})
                for _ in range(50)
            ))
            polled = [await client.job(s["job_id"]) for s in snaps]
            return snaps, polled, held_payloads(server)

        snaps, polled, held = serve(run)
        assert all("matrix" in s["result"] for s in snaps)
        assert held == []
        for delivered, later in zip(snaps, polled):
            assert later["state"] == "done"
            assert "matrix" not in later["result"]
            assert later["result"]["crc32"] == delivered["result"]["crc32"]
            assert later["result"]["nnz"] == delivered["result"]["nnz"]

    def test_streamed_job_drops_its_payload(self):
        async def run(server, client):
            tiny = {"gen": {"family": "banded", "n": 32, "bandwidth": 4}}
            events = [e async for e in client.stream_job(
                {"a": tiny, "b": tiny, "return_result": True})]
            await client.health()  # the handler finishes after its last write
            return events[-1], held_payloads(server)

        done, held = serve(run)
        assert "matrix" in done["result"]
        assert held == []

    def test_unattended_jobs_keep_the_most_recent_payloads(self):
        extra = 3

        async def run(server, client):
            ids = []
            for _ in range(RETAINED_PAYLOADS + extra):
                queued = await client.submit_job(
                    job_payload(wait=False, return_result=True))
                ids.append(queued["job_id"])
            await drained(server)
            await client.health()  # let the last terminal event land
            newest = await client.job(ids[-1])
            return ids, newest, held_payloads(server)

        ids, newest, held = serve(run, ServerConfig(slots=1))
        assert held == ids[extra:]
        assert "matrix" in newest["result"]

    def test_rejected_and_refused_submits_leave_no_done_event(self):
        gate = threading.Event()

        async def run(server, client):
            run_job = server.scheduler._runner
            server.scheduler._runner = \
                lambda record: (gate.wait(30.0), run_job(record))
            try:
                bad_b = {"gen": {"family": "banded", "n": 128}}
                with pytest.raises(ServeError) as rejected:
                    await client.submit_job(job_payload(b=bad_b))
                # one job held on the only slot, one queued: the tenant's
                # backlog is full and the next submit is refused
                with pytest.raises(ServeError) as refused:
                    for _ in range(3):
                        await client.submit_job(job_payload(wait=False))
            finally:
                gate.set()
            await drained(server)
            return (rejected.value.status, refused.value.status,
                    dict(server._done_events))

        config = ServerConfig(slots=1,
                              default_quota=TenantQuota(max_queued=1))
        assert serve(run, config) == (400, 429, {})


class TestObservability:
    def test_per_job_chrome_trace_is_valid(self, tmp_path):
        async def run(server, client):
            return await client.submit_job(job_payload(trace=True))

        snap = serve(run, ServerConfig(slots=2, trace_dir=str(tmp_path)))
        assert snap["state"] == "done"
        trace_path = snap["result"]["trace"]
        with open(trace_path) as fh:
            events = validate_chrome_trace(json.load(fh))
        assert events, "trace exported no events"

    def test_served_jobs_leave_no_shm_segments_behind(self):
        """The cache holds operands on the heap: a session that uploads
        one and runs it on the thread and on the process backend leaves
        ``/dev/shm`` as it found it while the server is still up, and
        the two backends agree on the product."""
        def segments():
            return set(glob.glob("/dev/shm/repro-*"))

        before = segments()

        async def run(server, client):
            key = (await client.upload_operand(A_SPEC))["hash"]
            snaps = [await client.submit_job(job_payload(
                a={"hash": key}, backend=backend, workers=2))
                for backend in ("thread", "process")]
            await drained(server)
            return snaps, segments() - before

        snaps, leftover = serve(run)
        assert leftover == set()
        assert [s["state"] for s in snaps] == ["done", "done"]
        assert snaps[0]["result"]["crc32"] == snaps[1]["result"]["crc32"]


# ----------------------------------------------------------------------
# the small-job fast path: guarded by counts, not by a clock
# ----------------------------------------------------------------------
@pytest.fixture
def counted(monkeypatch):
    """Call counts of what a small served job must not pay for."""
    calls = collections.Counter()

    def counting(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(server_mod, "estimate_row_nnz")
    counting(partition_mod, "build_col_offsets")
    counting(chunks_mod, "build_col_offsets")
    return calls


def count_job_thread_wakeups(server, calls):
    """Count ``call_soon_threadsafe`` calls made from the scheduler's
    threads (executor futures wake the loop from ``asyncio_*`` ones)."""
    real = server._loop.call_soon_threadsafe

    def wrapper(callback, *args, **kwargs):
        if threading.current_thread().name.startswith("serve-"):
            calls["wakeups"] += 1
        return real(callback, *args, **kwargs)

    server._loop.call_soon_threadsafe = wrapper


async def by_hash_payload(client):
    key = (await client.upload_operand(A_SPEC))["hash"]
    return {"a": {"hash": key}, "b": {"hash": key}}


class TestSmallJobFastPath:
    def test_wait_mode_job_samples_nothing_copies_nothing_wakes_once(
            self, counted):
        async def run(server, client):
            payload = await by_hash_payload(client)
            count_job_thread_wakeups(server, counted)
            snap = await client.submit_job(payload)
            await drained(server)
            return snap, await client.stats()

        snap, stats = serve(run)
        assert snap["state"] == "done"
        assert snap["priced"] == "ceiling"
        assert snap["chunks_done"] == snap["chunks_total"] == 1
        assert counted["estimate_row_nnz"] == 0
        assert counted["build_col_offsets"] == 0
        assert counted["wakeups"] == 1
        assert stats["jobs_by_pricing"] == {"ceiling": 1}
        a = resolve_operand(A_SPEC)
        assert snap["result"]["crc32"] == crc32_matrix(
            spgemm_twophase(a, a).matrix)

    def test_streamed_job_still_sees_every_event_in_order(self, counted):
        async def run(server, client):
            payload = await by_hash_payload(client)
            return [e async for e in client.stream_job(payload)]

        events = serve(run)
        total = events[-1]["chunks_total"]
        assert total == 1  # the work-based default grid
        assert [e["event"] for e in events] == (
            ["queued", "admitted", "started"] + ["chunk"] * total + ["done"])
        assert counted["estimate_row_nnz"] == 0

    def test_explicit_grid_is_untouched(self):
        async def run(server, client):
            return [e async for e in client.stream_job(job_payload())]

        events = serve(run)
        assert [e["event"] for e in events].count("chunk") == 2
        assert events[-1]["chunks_total"] == GRID[0] * GRID[1]

    def test_a_ceiling_that_matters_is_sampled_once(self, counted):
        async def run(server, client):
            snap = await client.submit_job(await by_hash_payload(client))
            return snap, await client.stats()

        # 1 MiB // (CEILING_SHARE x 4 slots) = 64 KiB, under the ~330 KB
        # ceiling price of this product
        snap, stats = serve(run, ServerConfig(slots=4, host_mem_bytes=1 << 20))
        assert snap["state"] == "done"
        assert snap["priced"] == "sampled"
        assert counted["estimate_row_nnz"] == 1
        assert stats["jobs_by_pricing"] == {"sampled": 1}
        assert stats["scheduler"]["overcommits"] == 0


class TestPricing:
    @given(problem=problems())
    @settings(max_examples=60, deadline=None)
    def test_ceiling_price_covers_the_product(self, problem):
        a, b = from_mask(problem[0]), from_mask(problem[1])
        products = int(product_prefix(a, b)[-1])
        cost, priced = price_job(a, b, products, sample_above=1 << 40)
        assert priced == "ceiling"
        operands = csr_bytes(a.n_rows, a.nnz) + csr_bytes(b.n_rows, b.nnz)
        assert cost - operands >= spgemm_twophase(a, b).matrix.nbytes()

    def test_ten_concurrent_ceiling_priced_jobs_fit_the_budget(self):
        a = resolve_operand(A_SPEC)
        products = int(product_prefix(a, a)[-1])
        cost, _ = price_job(a, a, products, sample_above=1 << 40)
        ceiling = cost - 2 * csr_bytes(a.n_rows, a.nnz)
        slots = 4
        # the smallest budget that still prices this job at its ceiling
        budget = ceiling * CEILING_SHARE * slots

        async def run(server, client):
            payload = await by_hash_payload(client)
            snaps = await asyncio.gather(
                *(client.submit_job(payload) for _ in range(10)))
            await drained(server)
            return snaps, await client.stats()

        snaps, stats = serve(run, ServerConfig(slots=slots,
                                               host_mem_bytes=budget))
        assert [s["state"] for s in snaps] == ["done"] * 10
        assert {s["priced"] for s in snaps} == {"ceiling"}
        assert {s["cost_bytes"] for s in snaps} == {cost}
        assert stats["scheduler"]["overcommits"] == 0
        assert (0 < stats["host_mem_peak_reserved"]
                <= stats["scheduler"]["host_budget_bytes"] == budget)


class TestStages:
    def test_stages_sum_to_the_latency(self):
        async def run(server, client):
            return await client.submit_job(await by_hash_payload(client))

        snap = serve(run)
        stages = snap["stages"]
        assert list(stages) == ["prepare", "queued", "engine", "finish"]
        assert all(seconds >= 0.0 for seconds in stages.values())
        assert abs(sum(stages.values()) - snap["latency_seconds"]) < 1e-3
        assert snap["priced"] == "ceiling"
        # a by-hash job's prepare materialises nothing: both operands
        # come from the cache
        assert snap["cache"] == {"a": True, "b": True}
        # the engine stage is the wall the result has always reported
        assert abs(stages["engine"] - snap["result"]["wall_seconds"]) < 1e-3

    def test_a_rejected_job_has_no_stages(self):
        async def run(server, client):
            with pytest.raises(ServeError) as exc_info:
                await client.submit_job(job_payload(a={"hash": "f" * 64}))
            return exc_info.value.payload

        snap = serve(run)
        assert "stages" not in snap and "priced" not in snap


# ----------------------------------------------------------------------
# the operand door: canonical CSR or 400
# ----------------------------------------------------------------------
def shuffled_rows(matrix, seed=0):
    """``matrix`` with the stored entries of every row in shuffled order
    (same values, same row_offsets): valid by range, not by order."""
    rng = np.random.default_rng(seed)
    col_ids, data = matrix.col_ids.copy(), matrix.data.copy()
    for r in range(matrix.n_rows):
        lo, hi = matrix.row_offsets[r], matrix.row_offsets[r + 1]
        order = lo + rng.permutation(hi - lo)
        col_ids[lo:hi], data[lo:hi] = matrix.col_ids[order], matrix.data[order]
    return CSRMatrix(matrix.n_rows, matrix.n_cols, matrix.row_offsets,
                     col_ids, data)


class TestOperandDoor:
    @pytest.mark.parametrize("grid", [[1, 2], [2, 3]])
    def test_unsorted_rows_are_refused_and_the_server_lives(self, grid,
                                                             tmp_path):
        rng = np.random.default_rng(5)
        good = CSRMatrix.from_dense(
            (rng.random((64, 64)) < 0.2) * rng.random((64, 64)))
        bad = shuffled_rows(good)
        assert not bad.has_sorted_rows()
        bad.validate()  # the range check alone lets it through
        path = tmp_path / "shuffled.npz"
        np.savez(path, shape=np.array(bad.shape), row_offsets=bad.row_offsets,
                 col_ids=bad.col_ids, data=bad.data)

        async def run(server, client):
            refused = []
            for spec in (inline_spec(bad), {"path": str(path)}):
                with pytest.raises(ServeError) as exc_info:
                    await client.submit_job(
                        {"a": inline_spec(good), "b": spec, "grid": grid})
                refused.append(exc_info.value)
            with pytest.raises(ServeError) as exc_info:
                await client.upload_operand(inline_spec(bad))
            refused.append(exc_info.value)
            ok = await client.submit_job(
                {"a": inline_spec(good), "b": inline_spec(good), "grid": grid})
            return refused, ok

        refused, ok = serve(run)
        for err in refused:
            assert err.status == 400
            assert "strictly increasing" in err.payload["error"]
        assert ok["state"] == "done"
        assert ok["result"]["crc32"] == crc32_matrix(
            CSRMatrix.from_scipy(good.to_scipy() @ good.to_scipy()))

    @pytest.mark.parametrize("field,value", [
        ("row_offsets", [0, 1.7, 2]),
        ("col_ids", [0.9, 1.2]),
        ("shape", [2.9, 3]),
        ("shape", [2, 3, 1]),
        ("data", ["1e3", True]),
        ("data", [[1.0, 2.0]]),
        ("col_ids", [1, 1]),   # a duplicate entry
        ("col_ids", [2, 0]),   # an unsorted row
    ])
    def test_truncating_and_non_canonical_inline_fields_answer_400(
            self, field, value):
        inline = {"shape": [2, 3], "row_offsets": [0, 2, 2],
                  "col_ids": [0, 1], "data": [1.0, 2.0]}
        resolve_operand({"inline": inline})  # the base form is accepted
        inline[field] = value

        async def run(server, client):
            with pytest.raises(ServeError) as exc_info:
                await client.upload_operand({"inline": inline})
            return exc_info.value

        err = serve(run)
        assert err.status == 400
        assert "malformed inline operand" in err.payload["error"]


# ----------------------------------------------------------------------
# the request head: bounded, deadlined, and fuzzed
# ----------------------------------------------------------------------
async def raw_exchange(server, request: bytes) -> bytes:
    """Send ``request`` and EOF on a fresh connection; the whole reply."""
    reader, writer = await asyncio.open_connection(*server.address)
    try:
        writer.write(request)
        await writer.drain()
        writer.write_eof()
        return await asyncio.wait_for(reader.read(), 10.0)
    finally:
        writer.close()
        await writer.wait_closed()


def parse_reply(reply: bytes):
    """``(status, JSON body)`` of a complete HTTP reply."""
    head, _, body = reply.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, json.loads(body)


def watch_loop_exceptions():
    escaped = []
    asyncio.get_running_loop().set_exception_handler(
        lambda loop, context: escaped.append(context))
    return escaped


class TestRequestHead:
    def test_oversized_heads_are_refused_with_431(self):
        heads = {
            "long request line": b"GET /" + b"a" * 100_000,
            "long header line": (b"GET /v1/health HTTP/1.1\r\nX-Pad: "
                                 + b"a" * 100_000 + b"\r\n\r\n"),
            "many header lines": (b"GET /v1/health HTTP/1.1\r\n"
                                  + b"X-Pad: 1\r\n" * 200_000 + b"\r\n"),
            "just over the line count": (
                b"GET /v1/health HTTP/1.1\r\n"
                + b"X: 1\r\n" * (MAX_HEAD_LINES + 1) + b"\r\n"),
            "just over the byte count": (
                b"GET /v1/health HTTP/1.1\r\nX-Pad: "
                + b"a" * MAX_HEAD_BYTES + b"\r\n\r\n"),
        }

        async def run(server, client):
            escaped = watch_loop_exceptions()
            replies = {name: await raw_exchange(server, head)
                       for name, head in heads.items()}
            await client.health()
            return replies, escaped

        replies, escaped = serve(run)
        assert escaped == []
        for name, reply in replies.items():
            status, body = parse_reply(reply)
            assert status == 431, name
            assert "too large" in body["error"]

    def test_a_head_under_the_bounds_is_served(self):
        head = (b"GET /v1/health HTTP/1.1\r\n"
                + b"X: 1\r\n" * (MAX_HEAD_LINES - 2) + b"\r\n")
        assert len(head) < MAX_HEAD_BYTES

        async def run(server, client):
            return await raw_exchange(server, head)

        status, body = parse_reply(serve(run))
        assert status == 200 and body["ok"] is True

    def test_an_unfinished_head_meets_a_deadline(self, monkeypatch):
        monkeypatch.setattr(server_mod, "HEAD_TIMEOUT_S", 0.2)

        async def run(server, client):
            escaped = watch_loop_exceptions()
            reader, writer = await asyncio.open_connection(*server.address)
            writer.write(b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 2\r\n")
            await writer.drain()  # no blank line, no EOF: the peer stalls
            reply = await asyncio.wait_for(reader.read(), 10.0)
            writer.close()
            await writer.wait_closed()
            await client.health()
            return reply, escaped

        reply, escaped = serve(run)
        assert escaped == []
        status, body = parse_reply(reply)
        assert status == 408 and "unfinished" in body["error"]

    def test_every_truncation_and_byte_flip_of_a_valid_request(self):
        """ROADMAP 3(b): the malformed heads are generated.  Every prefix
        of a valid job request and every single-byte substitution in its
        head is answered with a complete JSON reply that is not a 5xx
        (a substitution may leave the request valid) or a clean close;
        nothing reaches the loop's exception handler and the server keeps
        serving."""
        tiny = {"gen": {"family": "banded", "n": 16, "bandwidth": 2}}
        body = json.dumps({"a": tiny, "b": tiny}).encode()
        head = (b"POST /v1/jobs HTTP/1.1\r\nHost: fuzz\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: %d\r\n\r\n" % len(body))
        request = head + body
        rng = np.random.default_rng(20)
        cases = [request[:cut] for cut in range(len(request))]
        for at in range(len(head)):
            for flip in (0x00, 0x0A, 0x20, 0x3A, int(rng.integers(256))):
                if flip != head[at]:
                    cases.append(head[:at] + bytes([flip]) + head[at + 1:]
                                 + body)

        async def run(server, client):
            escaped = watch_loop_exceptions()
            replies = [await raw_exchange(server, case) for case in cases]
            snap = await client.submit_job({"a": tiny, "b": tiny})
            return replies, escaped, snap

        replies, escaped, snap = serve(run)
        assert escaped == []
        assert snap["state"] == "done"
        statuses = collections.Counter()
        for case, reply in zip(cases, replies):
            if reply == b"":
                statuses["closed"] += 1
                continue
            status, payload = parse_reply(reply)
            assert status == 200 or 400 <= status < 500, (case, reply)
            assert isinstance(payload, dict)
            statuses[status] += 1
        # a truncated request is never served; both outcomes occur
        assert all(reply == b"" or parse_reply(reply)[0] >= 400
                   for reply in replies[:len(request)])
        assert statuses["closed"] and statuses[400] and statuses[200]
