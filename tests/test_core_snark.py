"""End-to-end SNARK tests: completeness, soundness smoke, batch API."""

import dataclasses

import pytest

from repro.core import (
    BatchProver,
    CircuitBuilder,
    ProofTask,
    SnarkProver,
    SnarkVerifier,
    compile_builder,
    make_pcs,
    random_circuit,
    verify_all,
)
from repro.errors import ProofError
from repro.field import DEFAULT_FIELD, eq_table
from repro.kernels import field_kernels
from repro.sumcheck import verify_product_rounds

F = DEFAULT_FIELD


@pytest.fixture(scope="module")
def setup():
    cc = random_circuit(F, 64, seed=11)
    pcs = make_pcs(F, cc.r1cs, num_col_checks=8)
    prover = SnarkProver(cc.r1cs, pcs, public_indices=cc.public_indices)
    verifier = SnarkVerifier(cc.r1cs, pcs, public_indices=cc.public_indices)
    proof = prover.prove(cc.witness, cc.public_values)
    return cc, prover, verifier, proof


def _constraint_tables(cc, z, rng):
    """Sum-check #1's factor tables (eq(τ,·), Az, Bz, Cz) for witness ``z``."""
    az, bz, cz = cc.r1cs.matvec_tables(z)
    tau = F.rand_vector(cc.r1cs.constraint_vars, rng)
    return field_kernels.sumcheck_tables(F, (eq_table(F, tau), az, bz, cz))


class TestConstraintSumcheck:
    """Sum-check #1 on the round kernels the prover drives."""

    def test_zero_sum_on_satisfying_witness(self, rng):
        cc = random_circuit(F, 32, seed=5)
        tables = _constraint_tables(cc, cc.r1cs.pad_witness(cc.witness), rng)
        assert field_kernels.constraint_claimed_sum(F, *tables) == 0

    def test_rounds_verify_and_finalize(self, rng):
        cc = random_circuit(F, 16, seed=6)
        tables = _constraint_tables(cc, cc.r1cs.pad_witness(cc.witness), rng)
        rounds, chals = [], []
        for _ in range(cc.r1cs.constraint_vars):
            rounds.append(field_kernels.constraint_round_cubic(F, *tables))
            r = F.rand(rng)
            chals.append(r)
            tables = field_kernels.fold_product_tables(F, tables, r)
        final = verify_product_rounds(F, 0, rounds, chals, 3)
        e, va, vb, vc = (int(t[0]) for t in tables)
        assert all(len(t) == 1 for t in tables)
        assert final == (e * (va * vb - vc)) % F.modulus

    def test_nonzero_on_bad_witness(self, rng):
        cc = random_circuit(F, 16, seed=7)
        z = cc.r1cs.pad_witness(cc.witness)
        z[2] = (z[2] + 1) % F.modulus
        tables = _constraint_tables(cc, z, rng)
        # Whp nonzero: eq(tau) weights make cancellation negligible.
        assert field_kernels.constraint_claimed_sum(F, *tables) != 0


class TestCompleteness:
    def test_proof_verifies(self, setup):
        cc, _, verifier, proof = setup
        assert verifier.verify(proof, cc.public_values)

    def test_handbuilt_circuit(self):
        cb = CircuitBuilder(F)
        x = cb.private_input(7)
        y = cb.private_input(6)
        cb.expose_public(cb.mul(cb.add(x, y), cb.sub(x, y)))  # 49-36 = 13
        cc = compile_builder(cb)
        pcs = make_pcs(F, cc.r1cs, num_col_checks=6)
        prover = SnarkProver(cc.r1cs, pcs, public_indices=cc.public_indices)
        verifier = SnarkVerifier(cc.r1cs, pcs, public_indices=cc.public_indices)
        proof = prover.prove(cc.witness, cc.public_values)
        assert cc.public_values == [13]
        assert verifier.verify(proof, [13])

    @pytest.mark.parametrize("gates", [4, 17, 130])
    def test_various_scales(self, gates):
        cc = random_circuit(F, gates, seed=gates)
        pcs = make_pcs(F, cc.r1cs, num_col_checks=4)
        prover = SnarkProver(cc.r1cs, pcs, public_indices=cc.public_indices)
        verifier = SnarkVerifier(cc.r1cs, pcs, public_indices=cc.public_indices)
        proof = prover.prove(cc.witness, cc.public_values)
        assert verifier.verify(proof, cc.public_values)


class TestSoundnessSmoke:
    def test_wrong_public_value(self, setup):
        cc, _, verifier, proof = setup
        assert not verifier.verify(proof, [(cc.public_values[0] + 1) % F.modulus])

    def test_unsatisfying_witness_refused_by_prover(self, setup):
        cc, prover, _, _ = setup
        bad = list(cc.witness)
        bad[1] = (bad[1] + 1) % F.modulus
        with pytest.raises(ProofError):
            prover.prove(bad, cc.public_values)

    def test_tampered_va(self, setup):
        cc, _, verifier, proof = setup
        bad = dataclasses.replace(proof, va=(proof.va + 1) % F.modulus)
        assert not verifier.verify(bad, cc.public_values)

    def test_tampered_vz(self, setup):
        cc, _, verifier, proof = setup
        bad = dataclasses.replace(proof, vz=(proof.vz + 1) % F.modulus)
        assert not verifier.verify(bad, cc.public_values)

    def test_tampered_constraint_sumcheck(self, setup):
        cc, _, verifier, proof = setup
        sc = proof.constraint_sumcheck
        rounds = [list(r) for r in sc.round_polys]
        rounds[0][0] = (rounds[0][0] + 1) % F.modulus
        bad_sc = dataclasses.replace(sc, round_polys=rounds)
        bad = dataclasses.replace(proof, constraint_sumcheck=bad_sc)
        assert not verifier.verify(bad, cc.public_values)

    def test_tampered_witness_sumcheck(self, setup):
        cc, _, verifier, proof = setup
        sc = proof.witness_sumcheck
        rounds = [list(r) for r in sc.round_polys]
        rounds[-1][1] = (rounds[-1][1] + 1) % F.modulus
        bad_sc = dataclasses.replace(sc, round_polys=rounds)
        bad = dataclasses.replace(proof, witness_sumcheck=bad_sc)
        assert not verifier.verify(bad, cc.public_values)

    @staticmethod
    def _with_rows(proof, rows):
        opening = dataclasses.replace(proof.opening, evaluation_rows=rows)
        return dataclasses.replace(proof, opening=opening)

    def test_tampered_witness_opening(self, setup):
        """The evaluation row of the bound point r_y (the first row)."""
        cc, _, verifier, proof = setup
        rows = list(proof.opening.evaluation_rows)
        rows[0] = [(v + 1) % F.modulus for v in rows[0]]
        assert not verifier.verify(self._with_rows(proof, rows), cc.public_values)

    def test_tampered_public_binding(self, setup):
        """The row that binds the public outputs, one entry changed."""
        cc, _, verifier, proof = setup
        rows = [list(row) for row in proof.opening.evaluation_rows]
        assert len(rows) >= 2
        rows[-1][0] = (rows[-1][0] + 1) % F.modulus
        assert not verifier.verify(self._with_rows(proof, rows), cc.public_values)
        assert not verifier.verify(
            proof, cc.public_values[:-1] + [(cc.public_values[-1] + 1) % F.modulus]
        )

    def test_dropped_public_binding(self, setup):
        """Without the public points' rows the opening cannot bind them."""
        cc, _, verifier, proof = setup
        rows = proof.opening.evaluation_rows[:1]
        assert not verifier.verify(self._with_rows(proof, rows), cc.public_values)

    def test_wrong_public_count(self, setup):
        cc, _, verifier, proof = setup
        assert not verifier.verify(proof, cc.public_values + [0])


class TestProofObject:
    def test_size_accounting(self, setup):
        _, _, _, proof = setup
        assert proof.size_field_elements() > 0
        sizes = proof.component_sizes(F)
        assert set(sizes) == {"header", "merkle_root", "sumchecks", "pcs_openings"}
        assert sizes["pcs_openings"] == proof.opening.size_bytes(F)
        assert sizes["merkle_root"] == 32
        total = proof.size_bytes(F)
        assert total == sum(sizes.values())

    def test_proof_is_nontrivially_sized(self, setup):
        """Second-category proofs are KB–MB scale (paper §2.1)."""
        _, _, _, proof = setup
        assert proof.size_bytes(F) > 1000


class TestBatchApi:
    def test_prove_all_and_verify_all(self, setup):
        cc, prover, verifier, _ = setup
        tasks = [ProofTask(i, cc.witness, cc.public_values) for i in range(3)]
        batch = BatchProver(prover)
        proofs, stats = batch.prove_all(tasks)
        assert stats.proofs_generated == 3
        assert stats.throughput_per_second > 0
        assert stats.amortized_seconds > 0
        assert len(stats.per_proof_seconds) == 3
        assert verify_all(verifier, proofs, tasks)

    def test_verify_all_count_mismatch(self, setup):
        cc, prover, verifier, proof = setup
        with pytest.raises(ProofError):
            verify_all(verifier, [proof], [])

    def test_public_value_count_mismatch_raises(self, setup):
        cc, prover, _, _ = setup
        with pytest.raises(ProofError):
            prover.prove(cc.witness, [])
