"""Whole-protocol property tests: randomized circuits, fields, and seeds.

These hypothesis sweeps exercise the full prove/verify stack end to end
under randomized shapes — the highest-level completeness property the
repository claims.
"""

import random as _random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SnarkProver, SnarkVerifier, make_pcs, random_circuit
from repro.field import DEFAULT_FIELD, PrimeField
from repro.field.primes import BN254_SCALAR, GOLDILOCKS, MERSENNE31

FIELDS = {
    "m61": DEFAULT_FIELD,
    "m31": PrimeField(MERSENNE31, name="m31", check=False),
    "goldilocks": PrimeField(GOLDILOCKS, name="goldilocks", check=False),
    "bn254": PrimeField(BN254_SCALAR, name="bn254", check=False),
}


class TestSnarkProperties:
    @given(
        gates=st.integers(min_value=2, max_value=60),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=12, deadline=None)
    def test_random_circuits_complete(self, gates, seed):
        cc = random_circuit(DEFAULT_FIELD, gates, seed=seed)
        pcs = make_pcs(DEFAULT_FIELD, cc.r1cs, num_col_checks=4)
        prover = SnarkProver(cc.r1cs, pcs, public_indices=cc.public_indices)
        verifier = SnarkVerifier(cc.r1cs, pcs, public_indices=cc.public_indices)
        proof = prover.prove(cc.witness, cc.public_values)
        assert verifier.verify(proof, cc.public_values)

    @given(
        field_name=st.sampled_from(sorted(FIELDS)),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=8, deadline=None)
    def test_field_agnostic(self, field_name, seed):
        field = FIELDS[field_name]
        cc = random_circuit(field, 16, seed=seed)
        pcs = make_pcs(field, cc.r1cs, num_col_checks=4)
        prover = SnarkProver(cc.r1cs, pcs, public_indices=cc.public_indices)
        verifier = SnarkVerifier(cc.r1cs, pcs, public_indices=cc.public_indices)
        proof = prover.prove(cc.witness, cc.public_values)
        assert verifier.verify(proof, cc.public_values)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_forged_public_value_always_rejected(self, seed):
        rng = _random.Random(seed)
        cc = random_circuit(DEFAULT_FIELD, 16, seed=seed)
        pcs = make_pcs(DEFAULT_FIELD, cc.r1cs, num_col_checks=4)
        prover = SnarkProver(cc.r1cs, pcs, public_indices=cc.public_indices)
        verifier = SnarkVerifier(cc.r1cs, pcs, public_indices=cc.public_indices)
        proof = prover.prove(cc.witness, cc.public_values)
        delta = rng.randrange(1, DEFAULT_FIELD.modulus)
        forged = [(cc.public_values[0] + delta) % DEFAULT_FIELD.modulus]
        assert not verifier.verify(proof, forged)
