"""Chaos battery: shard worker pools die mid-run, recovery is bit-identical.

The sharded failure contract (see ``docs/SHARDING.md``): a shard whose
worker pool dies takes down only its own strip.  Surviving shards run to
completion and checkpoint; :class:`~repro.distributed.shard.\
ShardedRunError` names exactly the dead shards; and a ``resume=True``
re-run over the same checkpoint directory recomputes only what is
missing, producing the same bits as a run that never failed.

Kill delivery reuses the PR-4/5 fault framework two ways:

* **targeted** — a ``kill`` fault spec in ``shard_faults`` rides the
  per-run spawn args into exactly one shard's workers (the other
  shards' pools never see it);
* **ambient** — ``REPRO_TEST_KILL_CHUNK`` is process-environment-global,
  so every shard's workers inherit it: the whole node's pools die, the
  multi-shard analog of the original single-run kill test.

All kill tests use the process backend: a ``kill`` fault in a thread or
serial lane would take the *test process* down with it.
"""

import pytest

from repro.core.executor import WorkerCrashed
from repro.core.executor.procworker import KILL_CHUNK_ENV
from repro.distributed.shard import (
    ShardConfig,
    ShardedRunError,
    run_sharded,
)
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


def proc_config(num_shards=3):
    return ShardConfig(num_shards=num_shards, workers=1, backend="process")


class TestTargetedShardKill:
    def test_one_shard_dies_others_checkpoint(self, operands, oracle,
                                              tmp_path):
        a, b = operands
        before = leaked_shm()
        with pytest.raises(ShardedRunError) as exc_info:
            run_sharded(
                a, b, proc_config(), checkpoint_dir=tmp_path / "ckpt",
                shard_faults={1: "numeric:kill:chunk=1:times=-1"},
                crash_budget=0,
            )
        err = exc_info.value
        # the fault spec reached shard 1's pool and no one else's
        assert set(err.failures) == {1}
        assert isinstance(err.failures[1], WorkerCrashed)
        assert set(err.completed) == {0, 2}
        assert leaked_shm() == before  # the dead pool's segments swept

        # recovery: resume recomputes only the missing chunks ...
        res = run_sharded(a, b, proc_config(),
                          checkpoint_dir=tmp_path / "ckpt", resume=True)
        total = len(res.profile.chunks)
        assert 0 < res.resumed_chunks < total
        by_id = {r.shard_id: r for r in res.records}
        # ... which means every surviving shard's strip came off disk
        assert by_id[0].resumed_chunks == by_id[0].chunks
        assert by_id[2].resumed_chunks == by_id[2].chunks
        assert by_id[1].resumed_chunks < by_id[1].chunks

        # ... and the result is bit-identical to a run that never failed
        assert res.matrix == oracle
        assert_equals_scipy_product(res.matrix, a, b)
        assert leaked_shm() == before

    def test_resume_without_checkpoint_recomputes_everything(self, operands,
                                                             oracle,
                                                             tmp_path):
        a, b = operands
        res = run_sharded(a, b, proc_config(),
                          checkpoint_dir=tmp_path / "fresh", resume=True)
        assert res.resumed_chunks == 0
        assert res.matrix == oracle


class TestAmbientKill:
    def test_env_kill_takes_node_down_resume_recovers(self, operands, oracle,
                                                      tmp_path, monkeypatch):
        a, b = operands
        before = leaked_shm()
        # local chunk 0 exists in every shard: every pool dies
        monkeypatch.setenv(KILL_CHUNK_ENV, "0")
        with pytest.raises(ShardedRunError) as exc_info:
            run_sharded(a, b, proc_config(),
                        checkpoint_dir=tmp_path / "ckpt", crash_budget=0)
        assert len(exc_info.value.failures) == 3
        assert leaked_shm() == before

        monkeypatch.delenv(KILL_CHUNK_ENV)
        res = run_sharded(a, b, proc_config(),
                          checkpoint_dir=tmp_path / "ckpt", resume=True)
        assert res.matrix == oracle
        assert leaked_shm() == before


class TestAbsorbedKill:
    def test_crash_budget_absorbs_shard_kill(self, operands, oracle,
                                             tmp_path):
        """A latched kill inside one shard is absorbed by that shard's
        crash budget — respawn, requeue, no error, same bits — without
        any checkpointing at all."""
        a, b = operands
        before = leaked_shm()
        res = run_sharded(
            a, b, proc_config(),
            shard_faults={
                2: f"numeric:kill:chunk=1:latch={tmp_path / 'kill.latch'}"},
            crash_budget=1,
        )
        assert res.matrix == oracle
        assert_equals_scipy_product(res.matrix, a, b)
        # the respawn happened inside shard 2's tracer stream only
        respawns = {
            label: [s for s in tracer.spans if s.cat == "respawn"]
            for label, tracer in res.tracers.items()
        }
        assert len(respawns["shard2"]) == 1
        assert not respawns["shard0"] and not respawns["shard1"]
        assert leaked_shm() == before


class TestResumeSpliceEdges:
    def test_resume_with_one_empty_shard_checkpoint(self, operands, oracle,
                                                    tmp_path):
        """A shard killed on its very first chunk checkpoints *nothing*:
        resume must treat its empty manifest as a full recompute, not a
        malformed checkpoint."""
        a, b = operands
        with pytest.raises(ShardedRunError) as exc_info:
            run_sharded(
                a, b, proc_config(), checkpoint_dir=tmp_path / "ckpt",
                shard_faults={1: "numeric:kill:times=-1"},
                crash_budget=0,
            )
        err = exc_info.value
        assert set(err.failures) == {1}
        # shard 1's store really is empty — zero completed chunks
        assert not list((tmp_path / "ckpt" / "shard1.chunks").glob("chunk_*"))

        res = run_sharded(a, b, proc_config(),
                          checkpoint_dir=tmp_path / "ckpt", resume=True)
        by_id = {r.shard_id: r for r in res.records}
        assert by_id[1].resumed_chunks == 0
        assert by_id[1].chunks > 0
        assert by_id[0].resumed_chunks == by_id[0].chunks
        assert res.matrix == oracle
        assert_equals_scipy_product(res.matrix, a, b)

    def test_resume_after_mid_splice_crc_mismatch(self, operands, oracle,
                                                  tmp_path):
        """A chunk file rotted on disk between checkpoint and resume:
        the splice must detect the CRC mismatch, drop that chunk from
        the skip-set, and recompute it — never crash, never serve the
        corrupt bytes."""
        a, b = operands
        run_sharded(a, b, proc_config(), checkpoint_dir=tmp_path / "ckpt")
        chunk_files = sorted(
            (tmp_path / "ckpt" / "shard0.chunks").glob("chunk_*.frame"))
        assert chunk_files
        victim = chunk_files[0]
        blob = bytearray(victim.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        victim.write_bytes(bytes(blob))

        res = run_sharded(a, b, proc_config(),
                          checkpoint_dir=tmp_path / "ckpt", resume=True)
        by_id = {r.shard_id: r for r in res.records}
        assert by_id[0].corrupt_recomputed >= 1
        assert by_id[0].resumed_chunks < by_id[0].chunks
        # the untouched shards splice fully from disk
        assert by_id[1].resumed_chunks == by_id[1].chunks
        assert by_id[2].resumed_chunks == by_id[2].chunks
        assert res.matrix == oracle
        assert_equals_scipy_product(res.matrix, a, b)

    def test_sharded_error_carries_structured_tracebacks(self, operands,
                                                         tmp_path):
        """The error object itself must carry per-shard tracebacks (the
        CLI renders them); the first failure is chained as __cause__."""
        a, b = operands
        with pytest.raises(ShardedRunError) as exc_info:
            run_sharded(a, b, proc_config(),
                        shard_faults={1: "numeric:kill:chunk=1:times=-1"},
                        crash_budget=0)
        err = exc_info.value
        assert set(err.tracebacks) == {1}
        assert "WorkerCrashed" in err.tracebacks[1]
        assert err.__cause__ is err.failures[1]
