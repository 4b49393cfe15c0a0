"""The paper's headline claims and each table's shape, certified by pytest.

``python -m repro tableN`` (or ``experiment run tableN``) prints a table;
the tests here check its shape — orderings, speedup magnitudes and
crossovers — so ``pytest tests/`` alone checks the reproduction's
conclusions.
"""

import pytest

from repro.baselines import ZKML_BASELINES, bellperson_times, orion_arkworks_times
from repro.bench import (
    compute_breakdown,
    compute_fig9,
    compute_table3,
    compute_table4,
    compute_table5,
    compute_table6,
    compute_table7,
    compute_table8,
    compute_table9,
    compute_table10,
    compute_table11,
)
from repro.pipeline import BatchZkpSystem
from repro.zkml import simulate_vgg16_service, vgg16_cifar10


class TestAbstractClaims:
    """Claims from the paper's abstract and introduction."""

    def test_259x_over_gpu_systems(self):
        """'our system achieves more than 259.5x higher throughput compared
        to state-of-the-art GPU-accelerated systems' (abstract; the 259.5x
        is the V100 row of Table 8)."""
        ours = BatchZkpSystem("V100", scale=1 << 20).simulate(batch_size=512)
        bell = bellperson_times(1 << 20, "V100")
        speedup = ours.sim.steady_throughput_per_second * bell.total_seconds
        assert speedup > 250

    def test_subsecond_vgg16_proofs(self):
        """'our system generates 9.52 proofs per second … successfully
        achieving sub-second proof generation for the first time'."""
        res = simulate_vgg16_service(vgg16_cifar10(), device="GH200")
        amortized = 1.0 / res.sim.steady_throughput_per_second
        assert amortized < 1.0
        assert res.sim.steady_throughput_per_second == pytest.approx(9.52, rel=0.35)

    def test_vgg16_speedups_over_cpu_systems(self):
        """'458x faster than ZENO and 5601x faster than ZKML' — order of
        magnitude must hold."""
        res = simulate_vgg16_service(vgg16_cifar10(), device="GH200")
        thpt = res.sim.steady_throughput_per_second
        assert thpt / ZKML_BASELINES["ZENO"].throughput_per_second > 150
        assert thpt / ZKML_BASELINES["ZKML"].throughput_per_second > 2000


class TestSection63Claims:
    def test_speedup_over_same_module_cpu(self):
        """'more than 332.0x (up to 707.5x) over the CPU-based
        implementation that has the same computational modules'."""
        for lg in (18, 20, 21):
            ours = BatchZkpSystem("GH200", scale=1 << lg).simulate(batch_size=512)
            cpu = orion_arkworks_times(1 << lg)
            speedup = cpu.total_seconds / ours.sim.beat.overall_seconds
            assert speedup > 250, lg

    def test_breakdown_protocol_and_pipeline(self):
        """S = 2^20: protocol ~24x, pipeline ~15x (§6.3's decomposition)."""
        bd = compute_breakdown()
        assert bd["protocol_speedup"] == pytest.approx(24.34, rel=0.25)
        assert bd["pipeline_speedup"] == pytest.approx(14.70, rel=0.35)

    def test_lower_latency_than_bellperson_despite_pipelining(self):
        """'our work even achieves lower latency than Bellperson which
        utilizes old ZKP protocols' (Table 8 note)."""
        for dev in ("V100", "A100", "3090Ti", "H100"):
            ours = BatchZkpSystem(dev, scale=1 << 20).simulate(batch_size=512)
            bell = bellperson_times(1 << 20, dev)
            assert ours.latency_seconds < bell.total_seconds, dev


class TestResourceClaims:
    def test_device_memory_reduction(self):
        """Table 10: ours needs far less device memory than Bellperson."""
        from repro.baselines import bellperson_memory_gb

        for lg in (18, 20, 22):
            res = BatchZkpSystem("GH200", scale=1 << lg).simulate(batch_size=64)
            assert res.memory_high_water_gb < bellperson_memory_gb(1 << lg) / 3

    def test_communication_fully_hidden_when_compute_bound(self):
        """Table 9: 'no time is lost waiting for data transfer' on devices
        where computation exceeds communication."""
        for dev in ("V100", "A100", "H100"):
            res = BatchZkpSystem(dev, scale=1 << 20).simulate(batch_size=64)
            beat = res.sim.beat
            if beat.comp_seconds > beat.comm_seconds:
                overhead = beat.overall_seconds / beat.comp_seconds
                assert overhead < 1.05, dev

    def test_thread_allocation_tracks_module_cost(self):
        """§4: threads are split proportionally to module execution time."""
        system = BatchZkpSystem("V100", scale=1 << 20, total_threads=10240)
        alloc = system.thread_allocation()
        work = {
            name: graph.total_work_cycles()
            for name, graph in system.module_graphs.items()
        }
        total_work = sum(work.values())
        for name in alloc:
            share = alloc[name] / 10240
            ideal = work[name] / total_work
            assert share == pytest.approx(ideal, abs=0.06), name


# -- table shapes ---------------------------------------------------------------


def _by_label(compute):
    return {row.label: row.values for row in compute()}


@pytest.mark.parametrize("compute, min_vs_gpu, min_vs_cpu", [
    (compute_table3, 1, 300), (compute_table4, 1, 1000), (compute_table5, 3, 200),
])
def test_module_tables_shape(compute, min_vs_gpu, min_vs_cpu):
    """Tables 3-5: ours wins everywhere, most at the smallest input."""
    rows = list(_by_label(compute).values())  # 2^22 first, 2^18 last
    assert min(r["speedup_vs_gpu"] for r in rows) > min_vs_gpu
    assert rows[-1]["speedup_vs_gpu"] > rows[0]["speedup_vs_gpu"]
    assert min(r["speedup_vs_cpu"] for r in rows) > min_vs_cpu


def test_system_tables_shape():
    latency = _by_label(compute_table6)  # pipelining costs latency, more at 2^20
    assert all(v["ours_ms"] > v["baseline_ms"] for v in latency.values())
    assert latency["2^20/merkle"]["ratio"] < latency["2^18/merkle"]["ratio"]
    for traces in compute_fig9().values():
        assert traces["ours_mean"] > max(0.7, traces["baseline_mean"] + 0.3)
    for v in _by_label(compute_table7).values():
        assert v["libsnark_ms"] > v["bellperson_ms"] > v["ours_ms"]
        assert min(v["speedup_vs_bellperson"], v["speedup_vs_orion_ark"]) > 250
        assert v["ours_sumcheck_ms"] > v["ours_encoder_ms"] > v["ours_merkle_ms"]
    gpus = _by_label(compute_table8)
    ours = [gpus[d]["ours_throughput"] for d in ("V100", "A100", "3090Ti", "H100")]
    assert all(a < b for a, b in zip(ours, ours[1:]))
    assert gpus["V100"]["throughput_speedup"] > 250  # the abstract's 259.5x
    assert all(v["throughput_speedup"] > 200 and v["ours_latency_s"] < v["bell_latency_s"]
               for v in gpus.values())
    assert all(v["reduction"] > 3 for v in _by_label(compute_table10).values())
    for v in _by_label(compute_table9).values():  # the beat ≈ max(comm, comp)
        assert 0.99 * max(v["comm_ms"], v["comp_ms"]) <= v["overall_ms"]
        assert v["overall_ms"] < v["comm_ms"] + 0.9 * v["comp_ms"]
        assert 250 < v["comm_mb"] < 400  # ~320 MB per beat at S = 2^20
    zkml = _by_label(compute_table11)
    ours = zkml.pop("Ours")
    assert all(ours["throughput"] > 200 * v["throughput"] for v in zkml.values())
    assert ours["accuracy"] >= max(v["accuracy"] for v in zkml.values())
