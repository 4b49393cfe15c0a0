"""Tests for the encoder audit tools and the simulator sweeps."""

import pytest

from repro.encoder import (
    SpielmanEncoder,
    audit,
    expansion_profile,
    rate_summary,
    sample_min_weight,
)
from repro.errors import EncodingError, SimulationError
from repro.field import DEFAULT_FIELD
from repro.gpu import (
    batch_amortization_curve,
    device_scaling_curve,
    get_gpu,
    monotone_nondecreasing,
    monotone_nonincreasing,
    size_speedup_curve,
    thread_scaling_curve,
)
from repro.pipeline import merkle_graph, sumcheck_graph

F = DEFAULT_FIELD
GH200 = get_gpu("GH200")


@pytest.fixture(scope="module")
def encoder():
    return SpielmanEncoder(F, 512, seed=2)


class TestEncoderAnalysis:
    def test_profile_covers_all_stages(self, encoder):
        profile = expansion_profile(encoder)
        assert len(profile) == 2 * encoder.num_stages
        assert {s.kind for s in profile} == {"A", "B"}

    def test_nnz_consistent(self, encoder):
        profile = expansion_profile(encoder)
        base_nnz = encoder.base_matrix.nnz
        assert sum(s.nnz for s in profile) + base_nnz == encoder.total_nnz()

    def test_degrees_sane(self, encoder):
        for s in expansion_profile(encoder):
            assert 0 <= s.min_col_degree <= s.mean_col_degree <= s.max_col_degree
            assert s.isolated_columns >= 0

    def test_min_weight_healthy(self, encoder):
        """A healthy expander spreads a 1-sparse message widely."""
        weight = sample_min_weight(encoder, trials=20, sparsity=1)
        assert weight >= 9  # 1 systematic symbol + >= row_weight parity

    def test_min_weight_at_least_sparsity(self, encoder):
        assert sample_min_weight(encoder, trials=10, sparsity=3) >= 3

    def test_zero_trials_rejected(self, encoder):
        with pytest.raises(EncodingError):
            sample_min_weight(encoder, trials=0)

    def test_rate_summary(self, encoder):
        rs = rate_summary(encoder)
        assert rs.rate == pytest.approx(0.5)
        assert 8 < rs.macs_per_symbol < 25

    def test_audit_report(self, encoder):
        report = audit(encoder, trials=5)
        assert report["min_weight_1sparse"] >= 2
        assert report["isolated_columns_total"] >= 0
        assert report["rate"].stages == encoder.num_stages


class TestSweeps:
    def test_batch_amortization_decreases(self):
        graph = merkle_graph(1 << 14)
        xs, series = batch_amortization_curve(GH200, graph)
        assert monotone_nonincreasing(series["amortized_seconds"])
        # Amortized time converges toward the steady beat.
        assert series["amortized_seconds"][-1] == pytest.approx(
            series["steady_beat_seconds"][-1], rel=0.35
        )
        # §4's full workload: fill and drain cost < 10% at a large batch.
        amortized, beat = series["amortized_seconds"], series["steady_beat_seconds"]
        assert amortized[-1] < 1.1 * beat[-1]

    def test_thread_scaling_increases(self):
        graph = sumcheck_graph(16)
        xs, series = thread_scaling_curve(GH200, graph)
        assert monotone_nondecreasing(series["throughput_per_second"])
        # Doubling threads from half to full helps substantially.
        assert series["throughput_per_second"][-1] > 1.5 * series[
            "throughput_per_second"
        ][0]

    def test_size_speedup_widens_for_small_inputs(self):
        xs, series = size_speedup_curve(
            GH200, lambda lg: merkle_graph(1 << lg), log_sizes=(14, 18, 22)
        )
        assert monotone_nonincreasing(series["speedup"])  # vs growing size
        assert series["speedup"][0] > series["speedup"][-1] > 1.0

    def test_device_scaling(self):
        xs, series = device_scaling_curve(lambda dev: merkle_graph(1 << 18))
        # Faster devices (larger cores*clock*scale) give more throughput.
        paired = sorted(zip(xs, series["throughput_per_second"]))
        assert monotone_nondecreasing([t for _, t in paired])

    def test_monotone_helpers(self):
        assert monotone_nondecreasing([1, 1, 2])
        assert not monotone_nondecreasing([2, 1])
        assert monotone_nonincreasing([3, 2, 2])
        with pytest.raises(SimulationError):
            monotone_nondecreasing([])
