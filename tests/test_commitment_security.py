"""Security-estimate tests."""

import math

import pytest

from repro.commitment import (
    BrakedownPCS,
    checks_for_security,
    column_check_error,
    estimate,
    recommended_parameters,
    sumcheck_error_bits,
)
from repro.errors import CommitmentError
from repro.field import DEFAULT_FIELD, PrimeField
from repro.field.primes import BN254_SCALAR

F = DEFAULT_FIELD


class TestColumnChecks:
    def test_error_decays_exponentially(self):
        e10 = column_check_error(10, 0.2)
        e20 = column_check_error(20, 0.2)
        assert e20 == pytest.approx(e10**2)

    def test_more_distance_fewer_checks(self):
        assert checks_for_security(40, 0.4) < checks_for_security(40, 0.1)

    def test_roundtrip(self):
        for bits in (20, 40, 80):
            t = checks_for_security(bits, 0.2)
            assert -math.log2(column_check_error(t, 0.2)) >= bits
            if t > 1:
                assert -math.log2(column_check_error(t - 1, 0.2)) < bits

    def test_invalid_inputs(self):
        with pytest.raises(CommitmentError):
            column_check_error(0, 0.2)
        with pytest.raises(CommitmentError):
            column_check_error(5, 1.5)
        with pytest.raises(CommitmentError):
            checks_for_security(-1, 0.2)


class TestAlgebraicTerms:
    def test_sumcheck_bits_near_field_size(self):
        bits = sumcheck_error_bits(F, num_rounds=20, degree=3)
        assert 50 < bits < math.log2(F.modulus)

    def test_larger_field_more_bits(self):
        big = PrimeField(BN254_SCALAR, check=False)
        assert sumcheck_error_bits(big, 20, 3) > sumcheck_error_bits(F, 20, 3)

    def test_more_rounds_fewer_bits(self):
        assert sumcheck_error_bits(F, 100, 3) < sumcheck_error_bits(F, 2, 3)


class TestEstimate:
    def test_structure_and_binding_minimum(self):
        pcs = BrakedownPCS(F, num_vars=10, seed=0, num_col_checks=30)
        est = estimate(F, pcs.params, num_sumcheck_rounds=15)
        assert est.total_bits == min(
            est.column_check_bits,
            est.sumcheck_bits,
            est.proximity_combination_bits,
        )
        assert est.total_bits > 0

    def test_column_checks_dominate_when_few(self):
        pcs = BrakedownPCS(F, num_vars=10, seed=0, num_col_checks=4)
        est = estimate(F, pcs.params, num_sumcheck_rounds=10)
        assert est.total_bits == est.column_check_bits
        assert est.column_check_bits < 1

    def test_k_points_cost_log2_k_column_check_bits(self):
        """One opening's k claims share t columns: a union bound over the
        points takes log2 k bits off the column-check term, and nothing
        off the proximity combination's."""
        pcs = BrakedownPCS(F, num_vars=10, seed=0, num_col_checks=120)
        one = estimate(F, pcs.params, num_sumcheck_rounds=15)
        for k in (2, 3, 4, 16):
            many = estimate(F, pcs.params, num_sumcheck_rounds=15, num_points=k)
            assert many.column_check_bits == pytest.approx(
                one.column_check_bits - math.log2(k)
            )
            assert many.proximity_combination_bits == one.proximity_combination_bits
            t = checks_for_security(40, 0.2, num_points=k)
            assert -math.log2(column_check_error(t, 0.2, num_points=k)) >= 40
            rec = recommended_parameters(F, target_bits=40, num_points=k)
            assert rec["num_col_checks"] == t > checks_for_security(40, 0.2)

    def test_recommended_parameters(self):
        rec = recommended_parameters(F, target_bits=40)
        assert rec["num_col_checks"] == checks_for_security(40, 0.2)
        assert rec["field_sufficient"]  # 61-bit field covers 40-bit target
        rec_hi = recommended_parameters(F, target_bits=100)
        assert not rec_hi["field_sufficient"]
        big = PrimeField(BN254_SCALAR, check=False)
        assert recommended_parameters(big, target_bits=100)["field_sufficient"]
