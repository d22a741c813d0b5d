"""Tests for cross-job admission + fair queueing (repro.serve.scheduler)."""

import threading
import time

import pytest

from repro.observability import Tracer
from repro.serve.jobs import JobRecord, JobSpec, JobState
from repro.serve.scheduler import FairQueue, JobScheduler, TenantQuota

A = {"gen": {"family": "banded", "n": 32}}


def make_record(tenant="default", cost=1000):
    record = JobRecord(spec=JobSpec(a_spec=A, b_spec=A, tenant=tenant))
    record.cost_bytes = cost
    return record


class TestTenantQuota:
    def test_validation(self):
        with pytest.raises(ValueError):
            TenantQuota(weight=0.0)
        with pytest.raises(ValueError):
            TenantQuota(max_concurrent=0)
        with pytest.raises(ValueError):
            TenantQuota(max_queued=0)


class TestFairQueue:
    def test_fifo_for_equal_weight_and_cost(self):
        q = FairQueue()
        records = [make_record() for _ in range(3)]
        for r in records:
            q.push(r, 100.0, 1.0)
        popped = [q.pop_eligible(lambda r: True)[2] for _ in range(3)]
        assert [p.job_id for p in popped] == [r.job_id for r in records]

    def test_heavier_tenant_gets_proportionally_more_slots(self):
        # equal costs, weight 2 vs 1: tenant "big" accrues virtual time
        # half as fast, so its backlog interleaves 2:1 ahead of "small"
        q = FairQueue()
        for _ in range(4):
            q.push(make_record("big"), 100.0, 2.0)
        for _ in range(4):
            q.push(make_record("small"), 100.0, 1.0)
        order = [q.pop_eligible(lambda r: True)[2].spec.tenant
                 for _ in range(6)]
        assert order.count("big") == 4
        assert order.count("small") == 2

    def test_expensive_jobs_advance_the_virtual_clock_faster(self):
        # same weight, 10x cost: the expensive tenant's backlog accrues
        # virtual time so fast the cheap tenant's whole backlog goes
        # first — byte-weighted fairness, not job-count fairness
        q = FairQueue()
        q.push(make_record("heavy"), 1000.0, 1.0)
        q.push(make_record("heavy"), 1000.0, 1.0)
        for _ in range(3):
            q.push(make_record("light"), 100.0, 1.0)
        order = [q.pop_eligible(lambda r: True)[2].spec.tenant
                 for _ in range(5)]
        assert order == ["light", "light", "light", "heavy", "heavy"]

    def test_pop_eligible_skips_but_preserves_ineligible(self):
        q = FairQueue()
        blocked = make_record("blocked")
        runnable = make_record("ok")
        q.push(blocked, 100.0, 1.0)
        q.push(runnable, 100.0, 1.0)
        got = q.pop_eligible(lambda r: r.spec.tenant != "blocked")
        assert got[2] is runnable
        assert len(q) == 1
        # once eligible again, the skipped job pops in its original slot
        got = q.pop_eligible(lambda r: True)
        assert got[2] is blocked

    def test_requeue_front_restores_position(self):
        q = FairQueue()
        first = make_record()
        second = make_record()
        q.push(first, 100.0, 1.0)
        q.push(second, 100.0, 1.0)
        item = q.pop_eligible(lambda r: True)
        q.requeue_front(item)
        assert q.pop_eligible(lambda r: True)[2] is first

    def test_pop_on_empty(self):
        assert FairQueue().pop_eligible(lambda r: True) is None


def run_scheduler(records, *, runner, timeout=30.0, **kwargs):
    sched = JobScheduler(runner, **kwargs)
    sched.start()
    try:
        for r in records:
            accepted, reason = sched.submit(r)
            assert accepted, reason
        assert sched.wait_idle(timeout), "scheduler did not drain"
    finally:
        sched.stop()
    return sched


class TestJobScheduler:
    def test_runs_all_jobs(self):
        done = []

        def runner(record):
            with record.lock:
                record.state = JobState.DONE
            done.append(record.job_id)

        records = [make_record() for _ in range(8)]
        sched = run_scheduler(records, runner=runner, slots=3,
                              host_budget_bytes=1 << 20)
        assert sorted(done) == sorted(r.job_id for r in records)
        assert sched.completed == 8 and sched.failed == 0

    def test_runner_exception_marks_failed(self):
        def runner(record):
            raise RuntimeError("kaboom")

        record = make_record()
        sched = run_scheduler([record], runner=runner,
                              host_budget_bytes=1 << 20)
        assert record.state is JobState.FAILED
        assert "kaboom" in record.error
        assert sched.failed == 1

    def test_max_queued_rejects_excess_backlog(self):
        release = threading.Event()

        def runner(record):
            release.wait(10.0)
            with record.lock:
                record.state = JobState.DONE

        quota = TenantQuota(max_concurrent=1, max_queued=2)
        sched = JobScheduler(runner, slots=1, host_budget_bytes=1 << 20,
                             default_quota=quota)
        sched.start()
        try:
            results = [sched.submit(make_record()) for _ in range(4)]
            accepted = [ok for ok, _ in results]
            # slot takes one off the queue quickly, so 3 fit (1 running
            # + 2 queued at most); the 4th must bounce with a reason
            assert accepted.count(False) >= 1
            reason = next(r for ok, r in results if not ok)
            assert "max_queued" in reason
            assert sched.rejected >= 1
            release.set()
            assert sched.wait_idle(10.0)
        finally:
            release.set()
            sched.stop()

    def test_max_concurrent_caps_one_tenant_not_others(self):
        running = {"cap": 0, "free": 0}
        peak = {"cap": 0, "free": 0}
        lock = threading.Lock()

        def runner(record):
            tenant = record.spec.tenant
            with lock:
                running[tenant] += 1
                peak[tenant] = max(peak[tenant], running[tenant])
            time.sleep(0.05)
            with lock:
                running[tenant] -= 1
            with record.lock:
                record.state = JobState.DONE

        records = [make_record("cap") for _ in range(4)]
        records += [make_record("free") for _ in range(4)]
        run_scheduler(
            records, runner=runner, slots=4, host_budget_bytes=1 << 20,
            quotas={"cap": TenantQuota(max_concurrent=1)},
            default_quota=TenantQuota(max_concurrent=4),
        )
        assert peak["cap"] == 1, "capped tenant exceeded max_concurrent"
        assert peak["free"] >= 2, "uncapped tenant should overlap"

    def test_ledger_never_overcommits(self):
        # the acceptance gauge: jobs costing 0.6x budget each can never
        # overlap, and the host_mem gauge stream proves reserved bytes
        # stayed under the ceiling for the whole run
        budget = 10_000
        tracer = Tracer()
        overlap = {"now": 0, "peak": 0}
        lock = threading.Lock()

        def runner(record):
            with lock:
                overlap["now"] += 1
                overlap["peak"] = max(overlap["peak"], overlap["now"])
            time.sleep(0.03)
            with lock:
                overlap["now"] -= 1
            with record.lock:
                record.state = JobState.DONE

        records = [make_record(cost=6_000) for _ in range(6)]
        sched = run_scheduler(records, runner=runner, slots=4,
                              host_budget_bytes=budget, tracer=tracer)
        assert overlap["peak"] == 1, "two 0.6-budget jobs overlapped"
        stats = sched.stats()
        assert stats["overcommits"] == 0
        assert stats["host_peak_bytes"] <= budget
        reserved_peak = tracer.gauge_max("host_mem", "reserved")
        assert reserved_peak is not None and reserved_peak <= budget

    def test_admission_packs_jobs_under_the_ceiling(self):
        budget = 10_000
        tracer = Tracer()

        def runner(record):
            time.sleep(0.02)
            with record.lock:
                record.state = JobState.DONE

        records = [make_record(cost=3_000) for _ in range(9)]
        sched = run_scheduler(records, runner=runner, slots=4,
                              host_budget_bytes=budget, tracer=tracer)
        stats = sched.stats()
        assert stats["overcommits"] == 0
        # three 3k jobs fit concurrently; a fourth would break 10k
        assert tracer.gauge_max("host_mem", "reserved") <= budget

    def test_oversized_job_runs_alone_as_counted_overcommit(self):
        # a job bigger than the whole budget must not deadlock the
        # queue: the minimum-progress escape admits it alone
        def runner(record):
            with record.lock:
                record.state = JobState.DONE

        record = make_record(cost=1 << 30)
        sched = run_scheduler([record], runner=runner, slots=2,
                              host_budget_bytes=1 << 20)
        assert record.state is JobState.DONE
        assert sched.stats()["overcommits"] == 1

    def test_submit_after_stop_refuses(self):
        sched = JobScheduler(lambda r: None, host_budget_bytes=1 << 20)
        sched.start()
        sched.stop()
        accepted, reason = sched.submit(make_record())
        assert not accepted and "shut down" in reason

    def test_one_pool_is_the_only_shape(self):
        """The simulated device shards are gone, not ignored."""
        with pytest.raises(TypeError, match="shards"):
            JobScheduler(lambda r: None, host_budget_bytes=1 << 20, shards=1)
        sched = JobScheduler(lambda r: None, host_budget_bytes=1 << 20)
        assert not {"shards", "placement"} & set(sched.stats())
