"""Hypothesis property tests for the GPU simulator's invariants."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.gpu import (
    KernelStage,
    ModuleGraph,
    allocate_threads_proportional,
    get_gpu,
    run_naive,
    run_pipelined,
)

GH200 = get_gpu("GH200")

stage_strategy = st.builds(
    KernelStage,
    name=st.just("s"),
    work_units=st.integers(min_value=1, max_value=1 << 16),
    cycles_per_unit=st.floats(min_value=1.0, max_value=5000.0),
    bytes_in=st.integers(min_value=0, max_value=1 << 20),
    bytes_out=st.integers(min_value=0, max_value=1 << 20),
    memory_bytes=st.integers(min_value=0, max_value=1 << 20),
    unit=st.just("hash"),
)
graph_strategy = st.lists(stage_strategy, min_size=1, max_size=12).map(
    lambda stages: ModuleGraph(name="prop", stages=stages)
)


class TestAllocatorProperties:
    @given(graph=graph_strategy, budget=st.integers(min_value=16, max_value=4096))
    @settings(max_examples=50, deadline=None)
    def test_exact_budget_and_floor(self, graph, budget):
        assume(budget >= len(graph.stages))
        alloc = allocate_threads_proportional(graph.stages, budget)
        assert sum(alloc) == budget
        assert all(a >= 1 for a in alloc)

    @given(graph=graph_strategy)
    @settings(max_examples=40, deadline=None)
    def test_beat_within_factor_of_ideal(self, graph):
        """With a generous thread pool, the realized beat never exceeds
        a small multiple of the perfect work/threads bound."""
        budget = 1 << 14
        alloc = allocate_threads_proportional(graph.stages, budget)
        beat = max(s.duration_cycles(a) for s, a in zip(graph.stages, alloc))
        ideal = graph.total_work_cycles() / budget
        # A single stage can be indivisible (one work unit), so bound by
        # the max of the proportional ideal and the largest atomic unit.
        atomic = max(s.cycles_per_unit for s in graph.stages)
        assert beat <= max(2.0 * ideal, 1.01 * atomic)


class TestSchedulerProperties:
    @given(
        graph=graph_strategy,
        batch=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=30, deadline=None)
    def test_pipelined_time_decomposition(self, graph, batch):
        res = run_pipelined(GH200, graph, batch, include_transfers=False)
        stages = len([s for s in graph.stages if s.work_units > 0])
        assert res.total_seconds == pytest.approx(
            (batch + stages - 1) * res.steady_interval_seconds, rel=1e-9
        )
        assert res.latency_seconds == pytest.approx(
            stages * res.steady_interval_seconds, rel=1e-9
        )

    @given(
        graph=graph_strategy,
        batch=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=30, deadline=None)
    def test_pipelined_beat_at_least_ideal(self, graph, batch):
        res = run_pipelined(GH200, graph, batch, include_transfers=False)
        ideal = GH200.cycles_to_seconds(
            graph.total_work_cycles() / GH200.cuda_cores
        )
        assert res.steady_interval_seconds >= ideal * 0.999

    @given(graph=graph_strategy, batch=st.integers(min_value=1, max_value=32))
    @settings(max_examples=30, deadline=None)
    def test_utilization_bounds(self, graph, batch):
        pipe = run_pipelined(GH200, graph, batch, include_transfers=False)
        naive = run_naive(GH200, graph, batch)
        for res in (pipe, naive):
            assert all(0.0 <= u <= 1.0 for _, u in res.utilization_trace)

    @given(graph=graph_strategy, batch=st.integers(min_value=1, max_value=32))
    @settings(max_examples=30, deadline=None)
    def test_naive_scales_with_waves(self, graph, batch):
        res = run_naive(GH200, graph, batch)
        max_work = max(s.work_units for s in graph.stages)
        threads = min(GH200.cuda_cores, max_work)
        concurrency = max(1, GH200.cuda_cores // threads)
        waves = -(-batch // concurrency)
        assert res.total_seconds == pytest.approx(
            waves * res.latency_seconds, rel=1e-9
        )

    @given(graph=graph_strategy)
    @settings(max_examples=30, deadline=None)
    def test_pipelined_memory_is_graph_footprint(self, graph):
        res = run_pipelined(GH200, graph, 8, include_transfers=False)
        active = [s for s in graph.stages if s.work_units > 0]
        assert res.memory_high_water_bytes == sum(s.memory_bytes for s in active)

    @given(
        graph=graph_strategy,
        penalty=st.floats(min_value=1.0, max_value=8.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_penalty_monotone(self, graph, penalty):
        base = run_naive(GH200, graph, 8, compute_penalty=1.0)
        slowed = run_naive(GH200, graph, 8, compute_penalty=penalty)
        assert slowed.total_seconds >= base.total_seconds * 0.999

    @given(graph=graph_strategy)
    @settings(max_examples=25, deadline=None)
    def test_transfers_only_slow_down(self, graph):
        with_io = run_pipelined(GH200, graph, 8, include_transfers=True)
        without = run_pipelined(GH200, graph, 8, include_transfers=False)
        assert with_io.steady_interval_seconds >= without.steady_interval_seconds * 0.999


class TestTailMergeProperties:
    @given(
        num_blocks=st.integers(min_value=4, max_value=1 << 16),
        cap=st.integers(min_value=2, max_value=12),
    )
    @settings(max_examples=40, deadline=None)
    def test_merkle_merge_conserves_everything(self, num_blocks, cap):
        from repro.pipeline import merkle_graph

        full = merkle_graph(num_blocks)
        capped = merkle_graph(num_blocks, max_stages=cap)
        assert len(capped.stages) <= cap
        for attr in ("total_work_cycles", "total_bytes_in", "total_bytes_out",
                     "peak_memory_bytes"):
            assert getattr(capped, attr)() == getattr(full, attr)()
