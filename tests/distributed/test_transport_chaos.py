"""Chaos battery for the socket shard transport.

Three failure families, each pinned to the exact recovery the design
promises, and every recovery checked bit-for-bit against an unfailed
run and scipy:

* **worker death** (SIGKILL / ``os._exit`` mid-run) → reconnect
  exhausts → failover re-placement onto a survivor, or degrade to an
  in-process local span (with ``TransportDegradedWarning``) when no
  survivor exists;
* **severed socket** (half a frame followed by an RST) → reconnect to
  the same worker with a skip-set resume — completed chunks are never
  recomputed;
* **stalled heartbeat** (worker alive but wedged holding its send
  lock) → lease expiry fires the same reconnect path even though the
  TCP connection never errored.

Chaos hooks are stripped from any re-sent or re-placed run, so a
recovered worker is never re-killed — each scenario injects exactly
one failure and must converge.

A fourth family is *not* the transport's: the node failing to take a
chunk it received (its own store, its own manifest) ends that shard with
the original exception, the workers unblamed.
"""

import errno
import threading
import time
import warnings

import pytest

from repro.core.spill import DiskChunkStore
from repro.distributed import (
    RemoteShardPool,
    ShardConfig,
    ShardedRunError,
    run_sharded,
)
from repro.distributed.transport import TransportDegradedWarning
from repro.sparse.generators import random_csr, rmat
from tests.conftest import assert_equals_scipy_product
from tests.core.test_executor_backends import leaked_shm


@pytest.fixture(scope="module")
def operands():
    a = rmat(8, 5.0, seed=91)
    b = random_csr(a.n_cols, 120, 3 * a.n_cols, seed=92)
    return a, b


@pytest.fixture(scope="module")
def oracle(operands):
    a, b = operands
    return run_sharded(a, b, ShardConfig(num_shards=1)).matrix


def socket_config(**kw):
    kw.setdefault("num_shards", 2)
    kw.setdefault("transport", "socket")
    kw.setdefault("backend", "serial")
    return ShardConfig(**kw)


class TestWorkerKill:
    def test_kill_fails_over_to_survivor(self, operands, oracle):
        """An in-worker ``os._exit`` mid-span: reconnect attempts hit a
        dead process, the span re-places onto the surviving worker with
        a skip-set, and the bits match an unfailed run."""
        a, b = operands
        res = run_sharded(
            a, b, socket_config(),
            shard_faults={1: "numeric:kill:times=1"})
        by_id = {r.shard_id: r for r in res.records}
        assert by_id[1].failover == "worker0"
        assert by_id[1].reconnects >= 1
        assert by_id[0].failover == ""
        assert res.matrix == oracle
        assert_equals_scipy_product(res.matrix, a, b)

    def test_external_sigkill_process_backend(self, operands, oracle):
        """SIGKILL from outside (the pool's own kill switch) while the
        worker grinds through a delay-stretched span, with the worker
        running a process executor pool — the transport must fail over
        and the dead worker's /dev/shm segments must not leak."""
        a, b = operands
        before = leaked_shm()
        with RemoteShardPool.spawn(2, kind="unix") as pool:
            timer = threading.Timer(0.6, pool.kill_worker, args=(1,))
            timer.start()
            try:
                res = run_sharded(
                    a, b,
                    socket_config(backend="process", workers=1),
                    worker_pool=pool,
                    shard_faults={1: "numeric:delay:times=-1:delay=0.1"})
            finally:
                timer.cancel()
        by_id = {r.shard_id: r for r in res.records}
        # the timer may lose the race on a fast machine; when it fires
        # mid-span the record must show the failover chain
        if by_id[1].failover:
            assert by_id[1].failover == "worker0"
            assert by_id[1].reconnects >= 1
        assert res.matrix == oracle
        assert_equals_scipy_product(res.matrix, a, b)
        time.sleep(0.2)
        assert leaked_shm() == before

    def test_no_survivors_degrades_to_local(self, operands, oracle):
        """With every worker dead the span re-places in-process — loudly
        (one warning), correctly (same bits), and the record says so."""
        a, b = operands
        with pytest.warns(TransportDegradedWarning):
            res = run_sharded(
                a, b, socket_config(num_shards=1),
                shard_faults={0: "numeric:kill:times=1"})
        assert res.records[0].failover == "local"
        assert res.matrix == oracle
        assert_equals_scipy_product(res.matrix, a, b)


class TestSeveredSocket:
    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_sever_mid_message_reconnects(self, operands, oracle, backend):
        """The worker cuts the connection half-way through a frame (RST,
        no FIN): the node sees a mid-frame close, reconnects to the same
        still-alive worker, and resumes from its skip-set."""
        a, b = operands
        before = leaked_shm()
        res = run_sharded(
            a, b, socket_config(backend=backend,
                                workers=2 if backend != "serial" else 1),
            shard_debug={0: {"sever_after": 2}})
        by_id = {r.shard_id: r for r in res.records}
        assert by_id[0].reconnects >= 1
        assert by_id[0].failover == ""  # same worker, no re-placement
        assert by_id[1].reconnects == 0
        assert res.matrix == oracle
        assert_equals_scipy_product(res.matrix, a, b)
        assert leaked_shm() == before


class TestStalledHeartbeat:
    def test_stall_expires_lease_and_reconnects(self, operands, oracle):
        """The worker wedges its heartbeat thread while holding the send
        lock: the socket stays open but goes silent, so only the lease
        watchdog can notice.  The span is delay-stretched so the stall
        engages mid-run."""
        a, b = operands
        res = run_sharded(
            a, b,
            socket_config(transport_heartbeat=0.05, lease_grace=2.0),
            shard_faults={0: "numeric:delay:times=-1:delay=0.15"},
            shard_debug={0: {"heartbeat_stall": 1.0}})
        by_id = {r.shard_id: r for r in res.records}
        assert by_id[0].reconnects >= 1
        assert res.matrix == oracle
        assert_equals_scipy_product(res.matrix, a, b)


class TestEndToEndChunkCheck:
    def test_chunk_crc_mismatch_reconnects(self, operands, oracle,
                                           monkeypatch):
        """A worker sends one chunk frame whose frame CRC is valid but
        whose chunk CRC (``meta["crc32"]``) is wrong: the node's end-to-end
        check drops the stream, the span reconnects, the worker recomputes
        the chunk, and the product is unchanged."""
        from repro.core.executor import RetryPolicy
        from repro.distributed.transport import worker as worker_mod

        send_chunk = worker_mod._Connection.send_chunk
        lied = []

        def lying(self, kind, meta, arrays, *args, **kwargs):
            if not lied:
                lied.append(meta["crc32"])
                meta = {**meta, "crc32": meta["crc32"] ^ 1}
            return send_chunk(self, kind, meta, arrays, *args, **kwargs)

        monkeypatch.setattr(worker_mod._Connection, "send_chunk", lying)
        # the scripted peer: a shard worker in this process, so the patch
        # reaches its send path
        server = worker_mod.ShardWorker("tcp:127.0.0.1:0")
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        faults = []
        reconnect = RetryPolicy(
            max_attempts=4, base_delay=0.01,
            retryable=lambda exc: faults.append(exc) or True)
        pool = RemoteShardPool.connect([server.address])
        try:
            res = run_sharded(
                a=operands[0], b=operands[1],
                config=socket_config(num_shards=1, reconnect=reconnect),
                worker_pool=pool)
        finally:
            pool.workers[0].request_shutdown()
            pool.close()
            thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert len(lied) == 1
        assert [type(f).__name__ for f in faults] == ["FrameCorruption"]
        assert "failed its end-to-end check" in str(faults[0])
        assert res.records[0].reconnects == 1
        assert res.records[0].failover == ""
        assert res.matrix == oracle
        assert_equals_scipy_product(res.matrix, *operands)


class TestNodeSideLandingFailure:
    def test_full_disk_is_not_blamed_on_the_workers(self, operands, oracle,
                                                    tmp_path, monkeypatch):
        """The node's checkpoint store hits ``ENOSPC`` on the first chunk
        it receives: no reconnect, no failover, no degraded re-run — one
        ``put`` per shard, the ``OSError`` itself in the run's error, and
        the caller's pool as alive as before."""
        a, b = operands
        puts = []

        def full_disk(self, row_panel, col_panel, chunk):
            puts.append(self.directory.name)
            raise OSError(errno.ENOSPC, "No space left on device")

        with RemoteShardPool.spawn(2, kind="unix") as pool:
            with monkeypatch.context() as patch, \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                patch.setattr(DiskChunkStore, "put", full_disk)
                with pytest.raises(ShardedRunError) as exc_info:
                    run_sharded(a, b, socket_config(),
                                checkpoint_dir=tmp_path / "ckpt",
                                worker_pool=pool)
            failures = exc_info.value.failures
            assert set(failures) == {0, 1}
            for exc in failures.values():
                assert type(exc) is OSError and exc.errno == errno.ENOSPC
            assert sorted(puts) == ["shard0.chunks", "shard1.chunks"]
            assert not [w for w in caught
                        if issubclass(w.category, TransportDegradedWarning)]
            assert [w.alive for w in pool.workers] == [True, True]
            # the dropped connections come back: the pool is as usable
            res = run_sharded(a, b, socket_config(), worker_pool=pool)
            assert res.matrix == oracle
            assert all(r.failover == "" for r in res.records)
