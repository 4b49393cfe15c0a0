"""Proof-bundle tests: the parser of outside bundle bytes."""

import pytest

from repro.core import (
    BatchProver,
    ProofTask,
    SnarkProver,
    SnarkVerifier,
    deserialize_proof_bundle,
    make_pcs,
    random_circuit,
    serialize_proof_bundle,
    verify_all,
)
from repro.errors import ProofError
from repro.field import DEFAULT_FIELD

F = DEFAULT_FIELD


class TestProofBundle:
    @pytest.fixture(scope="class")
    def setting(self):
        cc = random_circuit(F, 24, seed=81)
        pcs = make_pcs(F, cc.r1cs, num_col_checks=4)
        prover = SnarkProver(cc.r1cs, pcs, public_indices=cc.public_indices)
        verifier = SnarkVerifier(cc.r1cs, pcs, public_indices=cc.public_indices)
        tasks = [ProofTask(i, cc.witness, cc.public_values) for i in range(3)]
        proofs, _ = BatchProver(prover).prove_all(tasks)
        return cc, pcs, verifier, tasks, proofs

    def test_roundtrip(self, setting):
        cc, pcs, verifier, tasks, proofs = setting
        blob = serialize_proof_bundle(proofs, F)
        again = deserialize_proof_bundle(blob, F, pcs.params)
        assert len(again) == 3
        assert verify_all(verifier, again, tasks)

    def test_empty_bundle(self, setting):
        _, pcs, _, _, _ = setting
        blob = serialize_proof_bundle([], F)
        assert deserialize_proof_bundle(blob, F, pcs.params) == []

    def test_truncated_bundle(self, setting):
        _, pcs, _, _, proofs = setting
        blob = serialize_proof_bundle(proofs, F)
        with pytest.raises(ProofError):
            deserialize_proof_bundle(blob[:-10], F, pcs.params)

    def test_bad_magic(self, setting):
        _, pcs, _, _, proofs = setting
        blob = b"NOPE" + serialize_proof_bundle(proofs, F)[4:]
        with pytest.raises(ProofError):
            deserialize_proof_bundle(blob, F, pcs.params)

    def test_bundle_smaller_than_sum_plus_overhead(self, setting):
        from repro.core import serialize_proof

        _, _, _, _, proofs = setting
        bundle = serialize_proof_bundle(proofs, F)
        individual = sum(len(serialize_proof(p, F)) for p in proofs)
        assert individual < len(bundle) <= individual + 12 + 4 * len(proofs)
