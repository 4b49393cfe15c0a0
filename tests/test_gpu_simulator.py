"""GPU simulator tests: devices, kernels, streams, schedulers."""

import pytest

from repro.errors import SimulationError
from repro.gpu import (
    CPU_C5A_8XLARGE,
    GPU_CATALOG,
    KernelStage,
    ModuleGraph,
    TransferEngine,
    allocate_threads_proportional,
    allocate_threads_uniform,
    get_gpu,
    run_cpu,
    run_naive,
    run_pipelined,
)


def toy_graph(layers=4, base_work=64):
    """A halving module graph (Merkle-shaped)."""
    stages = [
        KernelStage(
            name=f"s{k}",
            work_units=base_work >> k,
            cycles_per_unit=100.0,
            bytes_in=1000 if k == 0 else 0,
            bytes_out=100,
            memory_bytes=(base_work >> k) * 10,
            unit="hash",
        )
        for k in range(layers)
    ]
    return ModuleGraph(name="toy", stages=stages)


class TestDeviceCatalog:
    def test_paper_devices_present(self):
        assert {"V100", "A100", "3090Ti", "H100", "GH200"} <= set(GPU_CATALOG)

    def test_unknown_raises(self):
        with pytest.raises(SimulationError):
            get_gpu("TPUv4")

    def test_v100_matches_paper_setup(self):
        v100 = get_gpu("V100")
        assert v100.cuda_cores == 5120  # "GPU V100 card with 5,120 CUDA cores"

    def test_cycles_roundtrip(self):
        gpu = get_gpu("V100")
        assert gpu.seconds_to_cycles(gpu.cycles_to_seconds(1e6)) == pytest.approx(1e6)

    def test_transfer_seconds_matches_table9(self):
        """320 MB per beat: V100 22.95 ms, H100 4.90 ms (Table 9)."""
        mb320 = 320 * 1e6
        assert get_gpu("V100").transfer_seconds(mb320) == pytest.approx(
            22.95e-3, rel=0.05
        )
        assert get_gpu("H100").transfer_seconds(mb320) == pytest.approx(
            4.90e-3, rel=0.05
        )

    def test_cpu_spec(self):
        assert CPU_C5A_8XLARGE.cores == 32  # §6.1 c5a.8xlarge
        assert CPU_C5A_8XLARGE.effective_parallelism > 1


class TestKernelStage:
    def test_duration_ceil(self):
        s = KernelStage("x", work_units=10, cycles_per_unit=5.0)
        assert s.duration_cycles(3) == 4 * 5.0  # ceil(10/3) waves
        assert s.duration_cycles(10) == 5.0
        assert s.duration_cycles(100) == 5.0

    def test_zero_work(self):
        s = KernelStage("x", work_units=0, cycles_per_unit=5.0)
        assert s.duration_cycles(1) == 0.0

    def test_invalid_params(self):
        with pytest.raises(SimulationError):
            KernelStage("x", work_units=-1, cycles_per_unit=1.0)
        with pytest.raises(SimulationError):
            KernelStage("x", work_units=1, cycles_per_unit=0.0)

    def test_no_threads_raises(self):
        s = KernelStage("x", work_units=10, cycles_per_unit=5.0)
        with pytest.raises(SimulationError):
            s.duration_cycles(0)

    def test_graph_aggregates(self):
        g = toy_graph()
        assert g.total_work_cycles() == sum(s.total_cycles for s in g.stages)
        assert g.total_bytes_in() == 1000
        assert g.total_bytes_out() == 400
        assert len(g) == 4


class TestAllocator:
    def test_exact_total(self):
        g = toy_graph()
        alloc = allocate_threads_proportional(g.stages, 100)
        assert sum(alloc) == 100
        assert all(a >= 1 for a in alloc)

    def test_minimax_near_ideal(self):
        g = toy_graph(layers=6, base_work=1 << 14)
        alloc = allocate_threads_proportional(g.stages, 1024)
        beat = max(s.duration_cycles(a) for s, a in zip(g.stages, alloc))
        ideal = g.total_work_cycles() / 1024
        assert beat <= ideal * 1.25

    def test_monotone_stage_sizes_get_monotone_threads(self):
        g = toy_graph(layers=4, base_work=1 << 10)
        alloc = allocate_threads_proportional(g.stages, 512)
        assert alloc == sorted(alloc, reverse=True)

    def test_too_few_threads(self):
        g = toy_graph(layers=4)
        with pytest.raises(SimulationError):
            allocate_threads_proportional(g.stages, 3)

    def test_uniform_split(self):
        g = toy_graph(layers=4)
        alloc = allocate_threads_uniform(g.stages, 10)
        assert sum(alloc) == 10
        assert max(alloc) - min(alloc) <= 3

    def test_proportional_beats_uniform(self):
        g = toy_graph(layers=6, base_work=1 << 14)
        prop = allocate_threads_proportional(g.stages, 256)
        unif = allocate_threads_uniform(g.stages, 256)
        beat_p = max(s.duration_cycles(a) for s, a in zip(g.stages, prop))
        beat_u = max(s.duration_cycles(a) for s, a in zip(g.stages, unif))
        assert beat_p < beat_u


class TestTransferEngine:
    def test_multi_stream_overlaps(self):
        gpu = get_gpu("V100")
        eng = TransferEngine(gpu, multi_stream=True, sync_overhead_fraction=0.0)
        beat = eng.beat(320 * 10**6, 24.73e-3)
        # Table 9 V100 row: comm 22.95, comp 24.73, overall 25.35.
        assert beat.comm_seconds == pytest.approx(22.95e-3, rel=0.05)
        assert beat.overall_seconds == pytest.approx(24.73e-3, rel=0.01)
        assert beat.overlap_saving_seconds > 0.02

    def test_single_stream_serializes(self):
        gpu = get_gpu("V100")
        eng = TransferEngine(gpu, multi_stream=False)
        beat = eng.beat(320 * 10**6, 24.73e-3)
        assert beat.overall_seconds == pytest.approx(
            beat.comm_seconds + beat.comp_seconds
        )
        assert beat.hidden_fraction == pytest.approx(0.0)

    def test_accumulates_totals(self):
        eng = TransferEngine(get_gpu("A100"))
        eng.beat(100, 0.001)
        eng.beat(200, 0.001)
        assert eng.total_bytes == 300

    def test_negative_inputs(self):
        eng = TransferEngine(get_gpu("A100"))
        with pytest.raises(SimulationError):
            eng.beat(-1, 0.0)


class TestSchedulers:
    def test_pipelined_work_conservation(self):
        """Total busy cycles equal the batch's total work."""
        gpu = get_gpu("V100")
        g = toy_graph(layers=5, base_work=1 << 12)
        res = run_pipelined(gpu, g, batch_size=50, include_transfers=False)
        assert res.batch_size == 50
        # steady interval >= ideal work/threads bound
        ideal = gpu.cycles_to_seconds(g.total_work_cycles() / gpu.cuda_cores)
        assert res.steady_interval_seconds >= ideal

    def test_pipelined_beats_naive_throughput(self):
        gpu = get_gpu("V100")
        g = toy_graph(layers=8, base_work=1 << 16)
        pipe = run_pipelined(gpu, g, batch_size=64, include_transfers=False)
        naive = run_naive(gpu, g, batch_size=64, compute_penalty=1.3)
        assert pipe.steady_throughput_per_second > naive.steady_throughput_per_second

    def test_naive_has_lower_latency(self):
        """Table 6's trade-off: pipelined wins throughput, loses latency
        (at realistic module sizes where compute dominates launches)."""
        from repro.pipeline import merkle_graph

        gpu = get_gpu("GH200")
        g = merkle_graph(1 << 18)
        pipe = run_pipelined(gpu, g, batch_size=64, include_transfers=False)
        naive = run_naive(gpu, g, batch_size=64, compute_penalty=1.3)
        assert naive.latency_seconds < pipe.latency_seconds
        assert pipe.steady_throughput_per_second > naive.steady_throughput_per_second

    def test_utilization_in_unit_interval(self):
        gpu = get_gpu("V100")
        g = toy_graph(layers=6, base_work=1 << 14)
        for res in (
            run_pipelined(gpu, g, batch_size=32, include_transfers=False),
            run_naive(gpu, g, batch_size=32),
        ):
            assert res.utilization_trace
            assert all(0.0 <= u <= 1.0 for _, u in res.utilization_trace)

    def test_pipelined_steady_utilization_higher(self):
        """Figure 9's claim: pipelined mean utilization beats naive."""
        gpu = get_gpu("3090Ti")
        g = toy_graph(layers=10, base_work=1 << 15)
        pipe = run_pipelined(gpu, g, batch_size=128, include_transfers=False)
        naive = run_naive(gpu, g, batch_size=128)
        assert pipe.mean_utilization > naive.mean_utilization

    def test_pipelined_memory_is_single_task(self):
        gpu = get_gpu("V100")
        g = toy_graph(layers=4, base_work=64)
        res = run_pipelined(gpu, g, batch_size=100, include_transfers=False)
        assert res.memory_high_water_bytes == g.peak_memory_bytes()

    def test_naive_memory_scales_with_concurrency(self):
        gpu = get_gpu("V100")
        g = toy_graph(layers=4, base_work=64)  # small: many concurrent tasks
        res = run_naive(gpu, g, batch_size=100)
        assert res.memory_high_water_bytes > g.peak_memory_bytes()

    def test_total_time_includes_fill_and_drain(self):
        gpu = get_gpu("V100")
        g = toy_graph(layers=5, base_work=1 << 10)
        res = run_pipelined(gpu, g, batch_size=10, include_transfers=False)
        assert res.total_seconds == pytest.approx(
            (10 + 5 - 1) * res.steady_interval_seconds, rel=1e-6
        )
        assert res.latency_seconds == pytest.approx(
            5 * res.steady_interval_seconds, rel=1e-6
        )

    def test_transfers_can_bound_beat(self):
        gpu = get_gpu("V100")
        stages = [
            KernelStage("s", work_units=10, cycles_per_unit=1.0, bytes_in=10**9)
        ]
        g = ModuleGraph("io-bound", stages)
        res = run_pipelined(gpu, g, batch_size=4, include_transfers=True)
        assert res.beat.comm_seconds > res.beat.comp_seconds
        assert res.steady_interval_seconds >= res.beat.comm_seconds

    def test_empty_module_raises(self):
        gpu = get_gpu("V100")
        g = ModuleGraph("empty", [KernelStage("z", 0, 1.0)])
        with pytest.raises(SimulationError):
            run_pipelined(gpu, g, batch_size=1)
        with pytest.raises(SimulationError):
            run_naive(gpu, g, batch_size=1)

    def test_bad_batch_size(self):
        gpu = get_gpu("V100")
        g = toy_graph()
        with pytest.raises(SimulationError):
            run_pipelined(gpu, g, batch_size=0)

    def test_thread_budget_respected(self):
        gpu = get_gpu("V100")
        g = toy_graph(layers=4, base_work=1 << 10)
        res = run_pipelined(
            gpu, g, batch_size=8, total_threads=256, include_transfers=False
        )
        assert sum(res.thread_allocation) == 256

    def test_too_many_threads_raises(self):
        gpu = get_gpu("V100")
        g = toy_graph()
        with pytest.raises(SimulationError):
            run_pipelined(gpu, g, batch_size=1, total_threads=10**7)


class TestCpuRunner:
    def test_scales_linearly_with_batch(self):
        g = toy_graph()
        r1 = run_cpu(CPU_C5A_8XLARGE, g, batch_size=1)
        r10 = run_cpu(CPU_C5A_8XLARGE, g, batch_size=10)
        assert r10.total_seconds == pytest.approx(10 * r1.total_seconds)

    def test_unknown_unit_raises(self):
        g = ModuleGraph("x", [KernelStage("s", 1, 1.0, unit="quantum")])
        with pytest.raises(SimulationError):
            run_cpu(CPU_C5A_8XLARGE, g, batch_size=1)
