"""Baseline tests: the vendor and CPU-rate models behind Tables 7, 10 and 11."""

import pytest

from repro.baselines import (
    BELLPERSON_DEVICE_FACTOR,
    OURS_ACCURACY_PERCENT,
    ZKML_BASELINES,
    bellperson_memory_gb,
    bellperson_times,
    libsnark_times,
    orion_arkworks_times,
)
from repro.errors import SimulationError


class TestVendorModels:
    def test_libsnark_fits_table7(self):
        # Endpoints were used for the fit; the middle row is a prediction.
        assert libsnark_times(1 << 18).total_seconds == pytest.approx(23.19, rel=0.02)
        assert libsnark_times(1 << 22).total_seconds == pytest.approx(364.1, rel=0.02)
        assert libsnark_times(1 << 20).total_seconds == pytest.approx(89.67, rel=0.05)

    def test_bellperson_fits_table7(self):
        assert bellperson_times(1 << 18).total_seconds == pytest.approx(1.299, rel=0.02)
        assert bellperson_times(1 << 22).total_seconds == pytest.approx(7.591, rel=0.02)
        assert bellperson_times(1 << 20).total_seconds == pytest.approx(2.204, rel=0.20)

    def test_bellperson_device_factors(self):
        t_gh = bellperson_times(1 << 20, "GH200").total_seconds
        t_v100 = bellperson_times(1 << 20, "V100").total_seconds
        assert t_v100 == pytest.approx(t_gh * BELLPERSON_DEVICE_FACTOR["V100"])

    def test_bellperson_unknown_device(self):
        with pytest.raises(SimulationError):
            bellperson_times(1 << 20, "TPU")

    def test_msm_dominates_ntt(self):
        """Table 7's structure: MSM >> NTT in both Groth systems."""
        for times in (libsnark_times(1 << 20), bellperson_times(1 << 20)):
            assert times.msm_seconds > times.ntt_seconds

    def test_bellperson_memory_table10(self):
        assert bellperson_memory_gb(1 << 18) == pytest.approx(0.90)
        assert bellperson_memory_gb(1 << 22) == pytest.approx(3.87)
        # Interpolation / extrapolation stay monotone.
        assert bellperson_memory_gb(1 << 23) > bellperson_memory_gb(1 << 22)

    def test_orion_arkworks_table7_row(self):
        t = orion_arkworks_times(1 << 20)
        assert t.merkle_seconds == pytest.approx(0.2498, rel=0.05)
        assert t.sumcheck_seconds == pytest.approx(2.8108, rel=0.05)
        assert t.encoder_seconds == pytest.approx(0.6233, rel=0.05)
        assert t.total_seconds == pytest.approx(3.684, rel=0.05)

    def test_zkml_baselines_table11(self):
        assert set(ZKML_BASELINES) == {"zkCNN", "ZKML", "ZENO"}
        assert ZKML_BASELINES["ZENO"].throughput_per_second == 0.0208
        assert OURS_ACCURACY_PERCENT == 93.93
        # Ours must beat every baseline's accuracy (paper's claim).
        assert all(
            OURS_ACCURACY_PERCENT > b.accuracy_percent
            for b in ZKML_BASELINES.values()
        )
