"""Multi-GPU batch scaling tests."""

import pytest

from repro.errors import PipelineError
from repro.pipeline import BatchZkpSystem, MultiGpuBatchSystem, farm_throughput

SCALE = 1 << 14


class TestSharding:
    def test_shares_sum_to_batch(self):
        farm = MultiGpuBatchSystem(["V100", "A100", "H100"], scale=SCALE)
        for batch in (1, 7, 64, 257):
            assert sum(farm.shard(batch)) == batch

    def test_faster_devices_get_more(self):
        farm = MultiGpuBatchSystem(["V100", "H100"], scale=SCALE)
        v100_share, h100_share = farm.shard(100)
        assert h100_share > v100_share

    def test_homogeneous_split_is_even(self):
        farm = MultiGpuBatchSystem(["A100", "A100"], scale=SCALE)
        assert farm.shard(100) == [50, 50]

    def test_tiny_batch(self):
        farm = MultiGpuBatchSystem(["V100", "H100"], scale=SCALE)
        shares = farm.shard(1)
        assert sorted(shares) == [0, 1]

    def test_invalid_batch(self):
        farm = MultiGpuBatchSystem(["V100"], scale=SCALE)
        with pytest.raises(PipelineError):
            farm.shard(0)

    def test_no_devices(self):
        with pytest.raises(PipelineError):
            MultiGpuBatchSystem([], scale=SCALE)


class TestSimulation:
    def test_two_gpus_beat_one(self):
        single = BatchZkpSystem("A100", scale=SCALE).simulate(batch_size=512)
        farm = MultiGpuBatchSystem(["A100", "A100"], scale=SCALE).simulate(
            batch_size=512
        )
        assert (
            farm.throughput_per_second
            > 1.6 * single.sim.throughput_per_second
        )

    @pytest.mark.parametrize("gpus, min_gain", [(2, 1.7), (4, 3.2)])
    def test_farm_scales_near_linearly(self, gpus, min_gain):
        one = MultiGpuBatchSystem(["A100"], scale=1 << 16).simulate(1024)
        farm = MultiGpuBatchSystem(["A100"] * gpus, scale=1 << 16).simulate(1024)
        assert farm.throughput_per_second > min_gain * one.throughput_per_second

    def test_efficiency_improves_with_batch(self):
        farm = MultiGpuBatchSystem(["V100", "A100"], scale=SCALE)
        small = farm.simulate(batch_size=32)
        large = farm.simulate(batch_size=2048)
        assert large.scaling_efficiency > small.scaling_efficiency
        assert large.scaling_efficiency > 0.9

    def test_wall_time_is_slowest_shard(self):
        farm = MultiGpuBatchSystem(["V100", "H100"], scale=SCALE)
        res = farm.simulate(batch_size=128)
        shard_times = [
            s.result.sim.total_seconds for s in res.shards if s.result
        ]
        assert res.total_seconds == max(shard_times)

    def test_zero_task_shard_allowed(self):
        farm = MultiGpuBatchSystem(["V100", "H100"], scale=SCALE)
        res = farm.simulate(batch_size=1)
        assert sum(res.tasks_by_device().values()) == 1
        assert any(s.result is None for s in res.shards)

    def test_heterogeneous_farm_ordering(self):
        """Throughput grows monotonically as devices are added."""
        t1 = farm_throughput(["V100"], SCALE, batch_size=512)
        t2 = farm_throughput(["V100", "A100"], SCALE, batch_size=512)
        t3 = farm_throughput(["V100", "A100", "H100"], SCALE, batch_size=512)
        assert t1 < t2 < t3


class TestStatsBugfixes:
    """Regressions for the idle-shard, zero-rate, and re-probe bugs."""

    def test_idle_device_counted_in_ideal_throughput(self):
        farm = MultiGpuBatchSystem(["V100", "H100"], scale=SCALE)
        res = farm.simulate(batch_size=1)
        idle = [s for s in res.shards if s.result is None]
        assert idle and all(s.steady_rate > 0 for s in idle)
        # The ideal denominator is the full farm's steady capacity, idle
        # devices included — not just the shards that got work.
        assert res.ideal_throughput_per_second == pytest.approx(
            sum(farm.device_rates())
        )
        active_only = sum(
            s.result.sim.steady_throughput_per_second
            for s in res.shards
            if s.result is not None
        )
        assert res.ideal_throughput_per_second > active_only

    def test_idle_device_lowers_scaling_efficiency(self):
        farm = MultiGpuBatchSystem(["V100", "H100"], scale=SCALE)
        res = farm.simulate(batch_size=1)
        # One device working, one idle: efficiency can't exceed the
        # working device's share of total capacity.
        rates = farm.device_rates()
        assert res.scaling_efficiency <= max(rates) / sum(rates) + 1e-9

    def test_zero_total_rate_falls_back_to_even_split(self):
        farm = MultiGpuBatchSystem(["V100", "H100"], scale=SCALE)
        farm._rates_cache = [0.0, 0.0]  # degenerate cost model
        shares = farm.shard(5)
        assert sum(shares) == 5
        assert sorted(shares) == [2, 3]

    def test_device_rates_probed_once(self, monkeypatch):
        from repro.pipeline.system import BatchZkpSystem as System

        farm = MultiGpuBatchSystem(["V100", "A100"], scale=SCALE)
        calls = {"n": 0}
        original = System.simulate

        def counting(self, *args, **kwargs):
            calls["n"] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(System, "simulate", counting)
        farm.shard(10)
        farm.shard(20)
        farm.shard(30)
        assert calls["n"] == 2  # one probe per device, ever

    def test_repeated_simulate_does_not_reprobe(self, monkeypatch):
        from repro.pipeline.system import BatchZkpSystem as System

        farm = MultiGpuBatchSystem(["V100", "A100"], scale=SCALE)
        probes = {"n": 0}
        original = System.simulate

        def counting(self, *args, **kwargs):
            if kwargs.get("batch_size") == 64 and "multi_stream" not in kwargs:
                probes["n"] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(System, "simulate", counting)
        farm.simulate(batch_size=10)
        first = probes["n"]
        farm.simulate(batch_size=10)
        farm.simulate(batch_size=12)
        assert first == 2 and probes["n"] == first
