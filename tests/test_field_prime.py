"""Unit and property tests for repro.field.prime_field."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FieldError, FieldMismatchError, NonInvertibleError
from repro.field import DEFAULT_FIELD, PrimeField
from repro.field.primes import MERSENNE61, is_probable_prime

F = DEFAULT_FIELD
elements = st.integers(min_value=0, max_value=F.modulus - 1)


class TestPrimeFieldConstruction:
    def test_rejects_composite_modulus(self):
        with pytest.raises(FieldError):
            PrimeField(91)  # 7 * 13

    def test_rejects_tiny_modulus(self):
        with pytest.raises(FieldError):
            PrimeField(1)

    def test_accepts_prime(self):
        assert PrimeField(97).modulus == 97

    def test_check_skip_allows_fast_construction(self):
        assert PrimeField(MERSENNE61, check=False).modulus == MERSENNE61

    def test_equality_by_modulus(self):
        assert PrimeField(97) == PrimeField(97, name="other")
        assert PrimeField(97) != PrimeField(101)

    def test_hashable(self):
        assert len({PrimeField(97), PrimeField(97), PrimeField(101)}) == 2

    def test_byte_length(self):
        assert PrimeField(97).byte_length == 1
        assert F.byte_length == 8


class TestRawArithmetic:
    def test_add_wraps(self):
        assert F.add(F.modulus - 1, 1) == 0

    def test_sub_wraps(self):
        assert F.sub(0, 1) == F.modulus - 1

    def test_neg_zero(self):
        assert F.neg(0) == 0

    def test_inv_of_zero_raises(self):
        with pytest.raises(NonInvertibleError):
            F.inv(0)

    def test_div(self):
        assert F.div(10, 5) == 2

    @given(a=elements, b=elements)
    def test_add_commutes(self, a, b):
        assert F.add(a, b) == F.add(b, a)

    @given(a=elements, b=elements, c=elements)
    @settings(max_examples=50)
    def test_mul_distributes(self, a, b, c):
        left = F.mul(a, F.add(b, c))
        right = F.add(F.mul(a, b), F.mul(a, c))
        assert left == right

    @given(a=elements.filter(lambda x: x != 0))
    @settings(max_examples=50)
    def test_inverse_property(self, a):
        assert F.mul(a, F.inv(a)) == 1

    @given(a=elements.filter(lambda x: x != 0))
    @settings(max_examples=25)
    def test_fermat_little(self, a):
        assert F.exp(a, F.modulus - 1) == 1


class TestBatchInversion:
    def test_matches_individual(self, rng):
        values = [rng.randrange(1, F.modulus) for _ in range(20)]
        assert F.batch_inv(values) == [F.inv(v) for v in values]

    def test_zeros_pass_through(self, rng):
        values = [3, 0, 7, 0, 11]
        inv = F.batch_inv(values)
        assert inv[1] == 0 and inv[3] == 0
        assert F.mul(inv[0], 3) == 1
        assert F.mul(inv[4], 11) == 1

    def test_all_zeros(self):
        assert F.batch_inv([0, 0, 0]) == [0, 0, 0]

    def test_empty(self):
        assert F.batch_inv([]) == []


class TestVectorOps:
    def test_dot(self):
        assert F.dot([1, 2, 3], [4, 5, 6]) == 32

    def test_dot_length_mismatch(self):
        with pytest.raises(FieldError):
            F.dot([1], [1, 2])


class TestFieldElement:
    def test_operator_roundtrip(self, rng):
        a = F(rng.randrange(F.modulus))
        b = F(rng.randrange(1, F.modulus))
        assert (a + b - b) == a
        assert (a * b / b) == a
        assert (-a + a) == F.zero

    def test_pow(self):
        assert (F(3) ** 4).value == 81

    def test_int_coercion_in_ops(self):
        assert F(5) + 3 == F(8)
        assert 3 + F(5) == F(8)
        assert 2 * F(5) == F(10)
        assert 1 - F(5) == F(-4)

    def test_mixed_field_raises(self):
        other = PrimeField(97)
        with pytest.raises(FieldMismatchError):
            _ = F(1) + other(1)

    def test_immutability(self):
        a = F(5)
        with pytest.raises(AttributeError):
            a.value = 6

    def test_equality_with_int(self):
        assert F(5) == 5
        assert F(5) == 5 + F.modulus

    def test_bool(self):
        assert not F.zero
        assert F.one

    def test_hash_consistent(self):
        assert hash(F(5)) == hash(F(5 + F.modulus))

    def test_serialization_roundtrip(self, rng):
        a = rng.randrange(F.modulus)
        assert F.from_bytes(F.to_bytes(a)) == a

    def test_vector_serialization_length(self):
        data = F.vector_to_bytes([1, 2, 3])
        assert len(data) == 3 * F.byte_length


class TestAcrossFields:
    def test_axioms_hold(self, any_field, rng):
        p = any_field.modulus
        a, b, c = (rng.randrange(p) for _ in range(3))
        assert any_field.mul(a, any_field.add(b, c)) == any_field.add(
            any_field.mul(a, b), any_field.mul(a, c)
        )
        nz = rng.randrange(1, p)
        assert any_field.mul(nz, any_field.inv(nz)) == 1

    def test_serialization_width(self, any_field):
        data = any_field.to_bytes(any_field.modulus - 1)
        assert len(data) == any_field.byte_length


class TestPrimalityTest:
    @pytest.mark.parametrize("p", [2, 3, 5, 97, MERSENNE61, (1 << 31) - 1])
    def test_primes_pass(self, p):
        assert is_probable_prime(p)

    @pytest.mark.parametrize("n", [0, 1, 4, 91, 561, 1 << 61])
    def test_composites_fail(self, n):
        assert not is_probable_prime(n)
