"""Tests for the encoder audit tools and the simulator's trend check."""

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
from repro.gpu import monotone_nonincreasing

F = DEFAULT_FIELD


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
    def test_monotone_helpers(self):
        assert monotone_nonincreasing([3, 2, 2])
        assert not monotone_nonincreasing([1, 2])
        with pytest.raises(SimulationError):
            monotone_nonincreasing([])
