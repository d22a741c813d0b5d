"""Tests for the multi-device scaling curve (``experiments/scaling.py``):
the async pipeline over ``plan_shards``' row spans on one simulated
engine."""

import pytest

from repro.experiments.scaling import simulate_devices


class TestMultiGPURun:
    def test_two_gpus_faster_than_one(self, workload, cost):
        _, _, profile, _ = workload
        one = simulate_devices(profile, cost, 1)
        two = simulate_devices(profile, cost, 2)
        assert two.makespan() < one.makespan()

    def test_scaling_is_sublinear(self, workload, cost):
        _, _, profile, _ = workload
        one = simulate_devices(profile, cost, 1)
        four = simulate_devices(profile, cost, 4)
        speedup = one.makespan() / four.makespan()
        assert 1.0 < speedup <= 4.0

    def test_one_gpu_matches_single_device_pipeline(self, workload, cost):
        """With one device, the multi-GPU path is the ordinary pipeline."""
        from repro.core.schedule import build_async_schedule

        _, _, profile, _ = workload
        single = build_async_schedule(profile, cost).run()
        multi = simulate_devices(profile, cost, 1)
        assert multi.makespan() == pytest.approx(single.makespan())

    def test_all_devices_busy(self, workload, cost):
        _, _, profile, _ = workload
        tl = simulate_devices(profile, cost, 2)
        assert tl.busy_time("gpu0") > 0
        assert tl.busy_time("gpu1") > 0
        assert tl.busy_time("d2h0") > 0
        assert tl.busy_time("d2h1") > 0

    def test_more_gpus_than_chunks(self, workload, cost):
        """Spans are whole row panels: devices beyond the panel count
        stay idle, and every chunk still runs exactly once."""
        _, _, profile, _ = workload
        n = len(profile.chunks)
        tl = simulate_devices(profile, cost, n + 3)
        assert tl.makespan() > 0
        ran = sorted(r.meta["chunk"] for r in tl.records
                     if r.meta.get("kind") == "numeric")
        assert ran == profile.natural_order()
