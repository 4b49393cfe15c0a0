"""Latency-throughput frontier tests (the paper's future-work direction)."""

import pytest

from repro.errors import PipelineError
from repro.gpu import get_gpu, run_pipelined
from repro.pipeline import (
    fuse_stages,
    latency_throughput_frontier,
    merkle_graph,
    run_hybrid,
    sumcheck_graph,
)

GH200 = get_gpu("GH200")


class TestFusion:
    def test_conserves_work_and_bytes(self):
        graph = merkle_graph(1 << 14)
        for depth in (1, 2, 5, 10):
            fused = fuse_stages(graph, depth)
            assert fused.total_work_cycles() == pytest.approx(
                graph.total_work_cycles()
            )
            assert fused.total_bytes_in() == graph.total_bytes_in()
            assert fused.total_bytes_out() == graph.total_bytes_out()
            assert fused.peak_memory_bytes() == graph.peak_memory_bytes()

    def test_stage_counts(self):
        graph = merkle_graph(1 << 14)  # 15 layers
        assert len(fuse_stages(graph, 1).stages) == 1
        assert len(fuse_stages(graph, 4).stages) == 4
        assert len(fuse_stages(graph, 100).stages) == len(graph.stages)

    def test_invalid_depth(self):
        with pytest.raises(PipelineError):
            fuse_stages(merkle_graph(16), 0)

    def test_groups_are_balanced(self):
        graph = sumcheck_graph(16)
        fused = fuse_stages(graph, 4)
        cycles = [s.total_cycles for s in fused.stages]
        # No group more than ~2x the mean (greedy prefix partitioning).
        mean = sum(cycles) / len(cycles)
        assert max(cycles) < 2.5 * mean


class TestFrontier:
    @pytest.fixture(scope="class")
    def points(self):
        return latency_throughput_frontier(GH200, merkle_graph(1 << 18))

    def test_latency_falls_with_fusion(self, points):
        depths = [p.super_stages for p in points]
        latencies = [p.latency_seconds for p in points]
        assert depths == sorted(depths, reverse=True)
        assert latencies == sorted(latencies, reverse=True)

    def test_throughput_roughly_preserved_until_fully_fused(self, points):
        """The future-work headline: fusing to ~4 super-stages cuts
        latency several-fold at a small throughput cost."""
        split = points[0]
        mid = next(p for p in points if p.super_stages == 4)
        assert mid.latency_seconds < split.latency_seconds / 2.5
        assert (
            mid.throughput_per_second > 0.65 * split.throughput_per_second
        )

    def test_fully_fused_is_kernel_per_task_like(self, points):
        fused = points[-1]
        assert fused.super_stages == 1
        # Depth-1 pipeline: latency equals the beat.
        assert fused.latency_seconds == pytest.approx(
            1.0 / fused.throughput_per_second, rel=1e-6
        )


class TestHybrid:
    def test_express_lane_has_lower_latency(self):
        graph = merkle_graph(1 << 18)
        hybrid = run_hybrid(GH200, graph, express_fraction=0.25)
        assert hybrid.express_latency_seconds < hybrid.bulk_latency_seconds

    def test_express_costs_throughput(self):
        graph = merkle_graph(1 << 18)
        full = run_pipelined(GH200, graph, 64, include_transfers=False)
        hybrid = run_hybrid(GH200, graph, express_fraction=0.25)
        assert (
            hybrid.bulk_throughput_per_second
            < full.steady_throughput_per_second
        )
        # But the combined rate is still within ~65% of dedicating
        # everything to the pipeline.
        assert (
            hybrid.total_throughput_per_second
            > 0.6 * full.steady_throughput_per_second
        )

    def test_bigger_express_slice_lower_express_latency(self):
        graph = merkle_graph(1 << 18)
        small = run_hybrid(GH200, graph, express_fraction=0.1)
        large = run_hybrid(GH200, graph, express_fraction=0.5)
        assert large.express_latency_seconds <= small.express_latency_seconds

    def test_invalid_fraction(self):
        with pytest.raises(PipelineError):
            run_hybrid(GH200, merkle_graph(1 << 14), express_fraction=1.5)
