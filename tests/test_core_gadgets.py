"""R1CS gadget tests: bit decomposition, sign extraction, ReLU."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CircuitBuilder,
    SnarkProver,
    SnarkVerifier,
    compile_builder,
    make_pcs,
    relu,
    sign_bit,
    to_bits,
)
from repro.errors import CircuitError
from repro.field import DEFAULT_FIELD

F = DEFAULT_FIELD


def finalize_and_check(cb):
    r1cs, witness, publics = cb.finalize()
    assert r1cs.is_satisfied(witness)
    return r1cs, witness, publics


class TestBits:
    @given(value=st.integers(min_value=0, max_value=(1 << 12) - 1))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip(self, value):
        cb = CircuitBuilder(F)
        x = cb.private_input(value)
        bits = to_bits(cb, x, 12)
        assert [cb.wire_value(b) for b in bits] == [
            (value >> i) & 1 for i in range(12)
        ]
        finalize_and_check(cb)

    def test_gate_cost(self):
        cb = CircuitBuilder(F)
        x = cb.private_input(123)
        before = cb.num_multiplications
        to_bits(cb, x, 8)
        # 8 booleanity checks + 1 recomposition equality.
        assert cb.num_multiplications - before == 9

    def test_out_of_range_rejected(self):
        cb = CircuitBuilder(F)
        x = cb.private_input(256)
        with pytest.raises(CircuitError):
            to_bits(cb, x, 8)

    def test_empty_bits_rejected(self):
        cb = CircuitBuilder(F)
        with pytest.raises(CircuitError):
            to_bits(cb, cb.private_input(0), 0)


class TestSignedGadgets:
    @given(value=st.integers(min_value=-(1 << 10), max_value=(1 << 10) - 1))
    @settings(max_examples=40, deadline=None)
    def test_relu(self, value):
        cb = CircuitBuilder(F)
        x = cb.private_input(value)
        out = relu(cb, x, bits=12)
        want = max(value, 0) % F.modulus
        assert cb.wire_value(out) == want
        finalize_and_check(cb)

    def test_sign_bit(self):
        for value, want in ((-5, 0), (0, 1), (7, 1)):
            cb = CircuitBuilder(F)
            nonneg, bits = sign_bit(cb, cb.private_input(value), bits=8)
            assert cb.wire_value(nonneg) == want
            assert len(bits) == 8
            finalize_and_check(cb)

    def test_out_of_signed_range_rejected(self):
        cb = CircuitBuilder(F)
        with pytest.raises(CircuitError):
            relu(cb, cb.private_input(1 << 12), bits=12)


class TestGadgetsInProofs:
    def test_prove_relu_statement(self):
        """End-to-end proof of a statement containing a ReLU gadget."""
        cb = CircuitBuilder(F)
        x = cb.private_input(-42)
        cb.expose_public(relu(cb, x, bits=16))
        cc = compile_builder(cb)
        assert cc.public_values == [0]
        pcs = make_pcs(F, cc.r1cs, num_col_checks=5)
        prover = SnarkProver(cc.r1cs, pcs, public_indices=cc.public_indices)
        verifier = SnarkVerifier(cc.r1cs, pcs, public_indices=cc.public_indices)
        proof = prover.prove(cc.witness, cc.public_values)
        assert verifier.verify(proof, [0])
        assert not verifier.verify(proof, [F.modulus - 42])

    def test_prove_range_statement(self):
        """'This committed value fits 16 bits' — a pure range proof."""
        cb = CircuitBuilder(F)
        x = cb.private_input(40000)
        to_bits(cb, x, 16)
        cb.expose_public(cb.mul(x, cb.constant(1)))
        cc = compile_builder(cb)
        pcs = make_pcs(F, cc.r1cs, num_col_checks=5)
        prover = SnarkProver(cc.r1cs, pcs, public_indices=cc.public_indices)
        verifier = SnarkVerifier(cc.r1cs, pcs, public_indices=cc.public_indices)
        proof = prover.prove(cc.witness, cc.public_values)
        assert verifier.verify(proof, [40000])
