"""Tests for multilinear polynomials and eq tables."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FieldError
from repro.field import (
    DEFAULT_FIELD,
    MultilinearPolynomial,
    eq_eval,
    eq_table,
)

F = DEFAULT_FIELD


def bits_of(b, n):
    return [(b >> i) & 1 for i in range(n)]


class TestConstruction:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(FieldError):
            MultilinearPolynomial(F, [1, 2, 3])

    def test_num_vars(self):
        assert MultilinearPolynomial(F, [0] * 16).num_vars == 4

    def test_from_function(self):
        ml = MultilinearPolynomial.from_function(F, 3, lambda a, b, c: a + 2 * b + 4 * c)
        assert ml.evals == list(range(8))

    def test_zero(self):
        assert MultilinearPolynomial.zero(F, 3).hypercube_sum() == 0


class TestEvaluation:
    def test_boolean_points_are_table_lookups(self, rng):
        ml = MultilinearPolynomial.random(F, 5, rng)
        for b in (0, 7, 21, 31):
            assert ml.evaluate(bits_of(b, 5)) == ml.evals[b]

    def test_evaluate_matches_eq_inner_product(self, rng):
        ml = MultilinearPolynomial.random(F, 6, rng)
        pt = F.rand_vector(6, rng)
        eq = eq_table(F, pt)
        want = sum(e * v for e, v in zip(eq, ml.evals)) % F.modulus
        assert ml.evaluate(pt) == want

    def test_wrong_dimension_raises(self, rng):
        ml = MultilinearPolynomial.random(F, 4, rng)
        with pytest.raises(FieldError):
            ml.evaluate([1, 2, 3])

    def test_multilinearity_in_each_variable(self, rng):
        """p is degree <= 1 in every variable: p(..t..) is affine in t."""
        ml = MultilinearPolynomial.random(F, 4, rng)
        base = F.rand_vector(4, rng)
        for var in range(4):
            def at(t):
                pt = list(base)
                pt[var] = t
                return ml.evaluate(pt)
            # affine check: f(2) - 2f(1) + f(0) == 0
            assert (at(2) - 2 * at(1) + at(0)) % F.modulus == 0


class TestFixVariables:
    def test_fix_last_consistent_with_evaluate(self, rng):
        ml = MultilinearPolynomial.random(F, 5, rng)
        pt = F.rand_vector(5, rng)
        assert ml.fix_last_variable(pt[-1]).evaluate(pt[:-1]) == ml.evaluate(pt)

    def test_fix_first_consistent_with_evaluate(self, rng):
        ml = MultilinearPolynomial.random(F, 5, rng)
        pt = F.rand_vector(5, rng)
        assert ml.fix_first_variable(pt[0]).evaluate(pt[1:]) == ml.evaluate(pt)

    def test_fix_all_variables_sequentially(self, rng):
        ml = MultilinearPolynomial.random(F, 4, rng)
        pt = F.rand_vector(4, rng)
        g = ml
        for r in reversed(pt):
            g = g.fix_last_variable(r)
        assert g.evals[0] == ml.evaluate(pt)

    def test_fix_on_constant_raises(self):
        const = MultilinearPolynomial(F, [3, 3]).fix_last_variable(1)
        with pytest.raises(FieldError):
            const.fix_last_variable(0)


class TestAlgebra:
    def test_add_sub_scale(self, rng):
        a = MultilinearPolynomial.random(F, 4, rng)
        b = MultilinearPolynomial.random(F, 4, rng)
        pt = F.rand_vector(4, rng)
        assert (a + b).evaluate(pt) == F.add(a.evaluate(pt), b.evaluate(pt))
        assert (a - b).evaluate(pt) == F.sub(a.evaluate(pt), b.evaluate(pt))
        assert a.scale(7).evaluate(pt) == F.mul(7, a.evaluate(pt))

    def test_dimension_mismatch(self, rng):
        a = MultilinearPolynomial.random(F, 3, rng)
        b = MultilinearPolynomial.random(F, 4, rng)
        with pytest.raises(FieldError):
            _ = a + b

    def test_pointwise_mul_table(self, rng):
        a = MultilinearPolynomial.random(F, 3, rng)
        b = MultilinearPolynomial.random(F, 3, rng)
        table = a.pointwise_mul(b)
        assert table == [(x * y) % F.modulus for x, y in zip(a.evals, b.evals)]

    def test_hypercube_sum(self):
        ml = MultilinearPolynomial(F, [1, 2, 3, 4])
        assert ml.hypercube_sum() == 10


class TestEqPolynomial:
    def test_eq_table_is_indicator_on_booleans(self):
        pt = [1, 0, 1]
        table = eq_table(F, pt)
        idx = 0b101
        assert table[idx] == 1
        assert sum(table) % F.modulus == 1

    def test_eq_table_sums_to_one(self, rng):
        """Σ_b eq(r, b) = 1 for any r (partition of unity)."""
        pt = F.rand_vector(5, rng)
        assert sum(eq_table(F, pt)) % F.modulus == 1

    def test_eq_eval_matches_table(self, rng):
        pt = F.rand_vector(4, rng)
        table = eq_table(F, pt)
        for b in range(16):
            assert eq_eval(F, pt, bits_of(b, 4)) == table[b]

    def test_eq_eval_symmetry(self, rng):
        x = F.rand_vector(3, rng)
        y = F.rand_vector(3, rng)
        assert eq_eval(F, x, y) == eq_eval(F, y, x)

    def test_eq_eval_dimension_mismatch(self):
        with pytest.raises(FieldError):
            eq_eval(F, [1], [1, 2])

    @given(n=st.integers(min_value=1, max_value=6))
    @settings(max_examples=10)
    def test_eq_table_length(self, n):
        assert len(eq_table(F, [1] * n)) == 1 << n
