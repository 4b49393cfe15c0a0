"""Committed-input GKR tests (the full Figure 1 second-category workflow)."""

import dataclasses

import pytest

from repro.errors import CircuitError
from repro.field import DEFAULT_FIELD
from repro.gkr import (
    CommittedGkrProver,
    CommittedGkrVerifier,
    matmul_circuit,
    random_layered_circuit,
)

F = DEFAULT_FIELD


@pytest.fixture(scope="module")
def setting(rng_module=None):
    import random

    rng = random.Random(17)
    circuit = random_layered_circuit(F, depth=3, width=8, input_size=8, seed=17)
    inputs = F.rand_vector(8, rng)
    prover = CommittedGkrProver(circuit, num_col_checks=6)
    verifier = CommittedGkrVerifier(circuit, num_col_checks=6)
    proof = prover.prove(inputs)
    return circuit, inputs, prover, verifier, proof


class TestCompleteness:
    def test_verifies_without_inputs(self, setting):
        """The verifier checks the proof knowing only circuit + outputs."""
        _, _, _, verifier, proof = setting
        assert verifier.verify(proof)

    def test_matmul(self, rng):
        circuit = matmul_circuit(F, 2)
        inputs = F.rand_vector(8, rng)
        prover = CommittedGkrProver(circuit, num_col_checks=6)
        verifier = CommittedGkrVerifier(circuit, num_col_checks=6)
        proof = prover.prove(inputs)
        assert verifier.verify(proof)
        # Outputs are genuinely the matrix product.
        a = inputs[:4]
        b = inputs[4:]
        c00 = (a[0] * b[0] + a[1] * b[2]) % F.modulus
        assert proof.gkr.outputs[0] == c00

    def test_commitment_hides_then_binds(self, setting):
        """Different inputs -> different roots; same inputs -> same proof."""
        circuit, inputs, prover, _, proof = setting
        other = [(v + 1) % F.modulus for v in inputs]
        proof2 = prover.prove(other)
        assert proof2.commitment.root != proof.commitment.root
        proof3 = prover.prove(inputs)
        assert proof3.commitment.root == proof.commitment.root


class TestSoundness:
    def test_forged_output(self, setting):
        _, _, _, verifier, proof = setting
        bad_gkr = dataclasses.replace(
            proof.gkr,
            outputs=[(proof.gkr.outputs[0] + 1) % F.modulus]
            + proof.gkr.outputs[1:],
        )
        bad = dataclasses.replace(proof, gkr=bad_gkr)
        assert not verifier.verify(bad)

    def test_forged_input_claim(self, setting):
        _, _, _, verifier, proof = setting
        last = proof.gkr.layer_proofs[-1]
        bad_last = dataclasses.replace(last, v_u=(last.v_u + 1) % F.modulus)
        bad_gkr = dataclasses.replace(
            proof.gkr, layer_proofs=proof.gkr.layer_proofs[:-1] + [bad_last]
        )
        bad = dataclasses.replace(proof, gkr=bad_gkr)
        assert not verifier.verify(bad)

    def test_swapped_openings(self, setting):
        _, _, _, verifier, proof = setting
        bad = dataclasses.replace(
            proof,
            v_u_opening=proof.v_v_opening,
            v_v_opening=proof.v_u_opening,
        )
        assert not verifier.verify(bad)

    def test_commitment_substitution(self, setting):
        """Splicing another input vector's commitment must fail."""
        circuit, inputs, prover, verifier, proof = setting
        other_proof = prover.prove([(v + 7) % F.modulus for v in inputs])
        bad = dataclasses.replace(proof, commitment=other_proof.commitment)
        assert not verifier.verify(bad)

    def test_tampered_opening_row(self, setting):
        _, _, _, verifier, proof = setting
        opening = proof.v_u_opening
        bad_opening = dataclasses.replace(
            opening,
            evaluation_rows=[
                [(v + 1) % F.modulus for v in row] for row in opening.evaluation_rows
            ],
        )
        bad = dataclasses.replace(proof, v_u_opening=bad_opening)
        assert not verifier.verify(bad)

    def test_tampered_sumcheck_layer(self, setting):
        _, _, _, verifier, proof = setting
        lp = proof.gkr.layer_proofs[0]
        rounds = [list(r) for r in lp.phase1_rounds]
        rounds[0][1] = (rounds[0][1] + 1) % F.modulus
        bad_lp = dataclasses.replace(lp, phase1_rounds=rounds)
        bad_gkr = dataclasses.replace(
            proof.gkr, layer_proofs=[bad_lp] + proof.gkr.layer_proofs[1:]
        )
        assert not verifier.verify(dataclasses.replace(proof, gkr=bad_gkr))


class TestParameters:
    def test_tiny_input_rejected(self):
        from repro.gkr import Gate, LayeredCircuit, MUL

        circuit = LayeredCircuit(F, [[Gate(MUL, 0, 1)]], input_size=2)
        with pytest.raises(CircuitError):
            CommittedGkrProver(circuit)

    def test_pcs_seed_must_match(self, setting):
        circuit, inputs, _, _, proof = setting
        wrong = CommittedGkrVerifier(circuit, num_col_checks=6, pcs_seed=9)
        from repro.errors import CommitmentError

        with pytest.raises(CommitmentError):
            wrong.verify(proof)

    def test_proof_size_accounting(self, setting):
        _, _, _, _, proof = setting
        assert proof.size_field_elements() > proof.gkr.size_field_elements()
