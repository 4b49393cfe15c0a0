"""Tests for univariate polynomials and Lagrange interpolation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FieldError
from repro.field import (
    DEFAULT_FIELD,
    Polynomial,
    barycentric_weights,
    evaluate_from_points,
    lagrange_interpolate,
)

F = DEFAULT_FIELD
coeff_lists = st.lists(
    st.integers(min_value=0, max_value=F.modulus - 1), min_size=1, max_size=8
)


class TestPolynomialBasics:
    def test_trims_leading_zeros(self):
        assert Polynomial(F, [1, 2, 0, 0]).coeffs == [1, 2]

    def test_zero_polynomial(self):
        z = Polynomial.zero(F)
        assert z.is_zero() and z.degree == 0

    def test_horner_evaluation(self):
        poly = Polynomial(F, [1, 2, 3])  # 1 + 2x + 3x^2
        assert poly(5) == 1 + 10 + 75

    def test_random_has_requested_degree(self, rng):
        assert Polynomial.random(F, 5, rng).degree == 5


class TestPolynomialArithmetic:
    @given(a=coeff_lists, b=coeff_lists)
    @settings(max_examples=40)
    def test_add_evaluates_pointwise(self, a, b):
        pa, pb = Polynomial(F, a), Polynomial(F, b)
        x = 123456789
        assert (pa + pb)(x) == F.add(pa(x), pb(x))

    @given(a=coeff_lists, b=coeff_lists)
    @settings(max_examples=40)
    def test_mul_evaluates_pointwise(self, a, b):
        pa, pb = Polynomial(F, a), Polynomial(F, b)
        x = 987654321
        assert (pa * pb)(x) == F.mul(pa(x), pb(x))

    @given(a=coeff_lists)
    @settings(max_examples=40)
    def test_sub_self_is_zero(self, a):
        pa = Polynomial(F, a)
        assert (pa - pa).is_zero()

    def test_scale(self):
        assert Polynomial(F, [1, 2]).scale(3).coeffs == [3, 6]

    def test_shift(self):
        assert Polynomial(F, [1, 2]).shift(2).coeffs == [0, 0, 1, 2]


class TestLagrange:
    def test_interpolates_exactly(self, rng):
        xs = [0, 1, 2, 3, 4]
        ys = F.rand_vector(5, rng)
        poly = lagrange_interpolate(F, xs, ys)
        assert poly.degree <= 4
        assert [poly(x) for x in xs] == ys

    def test_recovers_known_polynomial(self, rng):
        poly = Polynomial.random(F, 6, rng)
        xs = list(range(7))
        ys = [poly(x) for x in xs]
        assert lagrange_interpolate(F, xs, ys) == poly

    def test_duplicate_points_raise(self):
        with pytest.raises(FieldError):
            lagrange_interpolate(F, [1, 1], [2, 3])

    def test_length_mismatch_raises(self):
        with pytest.raises(FieldError):
            lagrange_interpolate(F, [1, 2], [3])

    def test_evaluate_from_points_matches_interpolation(self, rng):
        xs = [0, 1, 2, 3]
        ys = F.rand_vector(4, rng)
        x = rng.randrange(F.modulus)
        poly = lagrange_interpolate(F, xs, ys)
        assert evaluate_from_points(F, xs, ys, x) == poly(x)

    def test_barycentric_weights(self):
        xs = [0, 1, 2]
        ws = barycentric_weights(F, xs)
        # w_0 = 1/((0-1)(0-2)) = 1/2
        assert F.mul(ws[0], 2) == 1
