"""Cross-module integration tests: full flows through multiple subsystems."""

import pytest

from repro.commitment import BrakedownPCS
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
from repro.field import DEFAULT_FIELD, MultilinearPolynomial, PrimeField
from repro.field.primes import BN254_SCALAR, GOLDILOCKS
from repro.hashing import Transcript, get_hasher
from repro.merkle import MerkleTree
from repro.pipeline import BatchZkpSystem, merkle_graph
from repro.sumcheck import evaluation_point, prove_product
from repro.zkml import MlaasService, tiny_cnn

F = DEFAULT_FIELD


class TestFieldAgnosticProtocols:
    """The paper's protocols are field-agnostic; exercise non-default fields."""

    @pytest.mark.parametrize("modulus", [GOLDILOCKS, BN254_SCALAR])
    def test_snark_on_other_fields(self, modulus):
        field = PrimeField(modulus, check=False)
        cb = CircuitBuilder(field)
        x = cb.private_input(11)
        cb.expose_public(cb.mul(cb.square(x), x))  # x^3 = 1331
        cc = compile_builder(cb)
        pcs = make_pcs(field, cc.r1cs, num_col_checks=5)
        prover = SnarkProver(cc.r1cs, pcs, public_indices=cc.public_indices)
        verifier = SnarkVerifier(cc.r1cs, pcs, public_indices=cc.public_indices)
        proof = prover.prove(cc.witness, cc.public_values)
        assert cc.public_values == [1331]
        assert verifier.verify(proof, cc.public_values)

    @pytest.mark.parametrize("modulus", [GOLDILOCKS, BN254_SCALAR])
    def test_pcs_on_other_fields(self, modulus, rng):
        field = PrimeField(modulus, check=False)
        pcs = BrakedownPCS(field, num_vars=6, seed=1, num_col_checks=6)
        ml = MultilinearPolynomial.random(field, 6, rng)
        com, state = pcs.commit(ml.evals)
        pt = field.rand_vector(6, rng)
        proof = pcs.open(state, pt, Transcript(b"x"))
        assert pcs.verify(com, pt, ml.evaluate(pt), proof, Transcript(b"x"))


class TestProverVerifierSeparation:
    """Prover and verifier built independently from shared public data
    must agree."""

    def test_fresh_verifier_instance(self):
        cc = random_circuit(F, 48, seed=21)
        # Independent PCS objects with the same (public) parameters.
        pcs_p = make_pcs(F, cc.r1cs, seed=0, num_col_checks=7)
        pcs_v = make_pcs(F, cc.r1cs, seed=0, num_col_checks=7)
        prover = SnarkProver(cc.r1cs, pcs_p, public_indices=cc.public_indices)
        verifier = SnarkVerifier(cc.r1cs, pcs_v, public_indices=cc.public_indices)
        proof = prover.prove(cc.witness, cc.public_values)
        assert verifier.verify(proof, cc.public_values)

    def test_different_pcs_seed_breaks_verification(self):
        """The encoder seed is part of the public parameters — mismatched
        setups must not verify (different codes)."""
        cc = random_circuit(F, 48, seed=22)
        prover = SnarkProver(
            cc.r1cs, make_pcs(F, cc.r1cs, seed=0, num_col_checks=7),
            public_indices=cc.public_indices,
        )
        verifier = SnarkVerifier(
            cc.r1cs, make_pcs(F, cc.r1cs, seed=1, num_col_checks=7),
            public_indices=cc.public_indices,
        )
        proof = prover.prove(cc.witness, cc.public_values)
        assert not verifier.verify(proof, cc.public_values)


class TestProofsAreDistinctPerWitness:
    def test_two_witnesses_same_circuit(self):
        """Same circuit shape, different witnesses -> different commitments
        and different public outputs, both verifying."""
        cb1 = CircuitBuilder(F)
        a = cb1.private_input(3)
        cb1.expose_public(cb1.square(a))
        cc1 = compile_builder(cb1)

        cb2 = CircuitBuilder(F)
        b = cb2.private_input(5)
        cb2.expose_public(cb2.square(b))
        cc2 = compile_builder(cb2)

        assert cc1.r1cs.digest() == cc2.r1cs.digest()  # identical structure
        pcs = make_pcs(F, cc1.r1cs, num_col_checks=6)
        prover = SnarkProver(cc1.r1cs, pcs, public_indices=cc1.public_indices)
        verifier = SnarkVerifier(cc1.r1cs, pcs, public_indices=cc1.public_indices)
        p1 = prover.prove(cc1.witness, cc1.public_values)
        p2 = prover.prove(cc2.witness, cc2.public_values)
        assert p1.commitment.root != p2.commitment.root
        assert verifier.verify(p1, [9])
        assert verifier.verify(p2, [25])
        assert not verifier.verify(p1, [25])


class TestSumcheckFeedsPcs:
    """The core protocol pattern: sum-check reduces to a PCS opening."""

    def test_manual_reduction(self, rng):
        n = 6
        f = MultilinearPolynomial.random(F, n, rng)
        g = MultilinearPolynomial.random(F, n, rng)
        # Commit to f up front.
        pcs = BrakedownPCS(F, num_vars=n, seed=4, num_col_checks=8)
        com, state = pcs.commit(f.evals)
        # Sum-check Σ f·g with Fiat-Shamir.
        t_prover = Transcript(b"reduce")
        result = prove_product(F, [f.evals, g.evals], t_prover)
        point = evaluation_point(result.challenges)
        # The final claim factors as f(r)·g(r); open f(r) via the PCS.
        f_at_r = pcs.evaluate(state, point)
        opening = pcs.open(state, point, t_prover)
        # Verifier side: replay, then check the opening and the factorization.
        from repro.sumcheck import verify as sc_verify

        t_verifier = Transcript(b"reduce")
        challenges = sc_verify(F, result.proof, t_verifier)
        point_v = evaluation_point(challenges)
        assert point_v == point
        assert pcs.verify(com, point_v, f_at_r, opening, t_verifier)
        g_at_r = g.evaluate(point_v)
        assert (f_at_r * g_at_r) % F.modulus == result.proof.final_value


class TestMerkleCommitsModelAndWitness:
    def test_zkml_root_in_merkle_module(self):
        """The MLaaS model root equals a plain MerkleTree over the same
        parameter blocks (no hidden divergence between subsystems)."""
        model = tiny_cnn(input_size=4, channels=1, classes=3)
        model.init_params(3)
        service = MlaasService(model)
        tree = MerkleTree.from_blocks(model.parameter_blocks(), service.hasher)
        assert service.model_root == tree.root


class TestSimulationVsFunctionalConsistency:
    """The simulator's work accounting must match the functional code."""

    def test_merkle_hash_counts_agree(self):
        n = 1 << 8
        graph = merkle_graph(n)
        blocks = [bytes([i % 256]) * 64 for i in range(n)]
        tree = MerkleTree.from_blocks(blocks, get_hasher("sha256-hw"))
        functional_hashes = n + tree.hash_count()  # leaves + interior
        simulated_hashes = sum(s.work_units for s in graph.stages)
        assert simulated_hashes == functional_hashes

    def test_encoder_nnz_agree(self):
        """Simulated MAC counts within 15% of a real encoder's nnz (the
        graph uses closed-form sizes, the encoder random degrees)."""
        from repro.encoder import SpielmanEncoder
        from repro.pipeline import encoder_graph

        n = 1 << 10
        enc = SpielmanEncoder(F, n, seed=0)
        graph = encoder_graph(n)
        simulated = sum(s.work_units for s in graph.stages)
        assert abs(simulated - enc.total_nnz()) / enc.total_nnz() < 0.15

    def test_sumcheck_entry_counts_agree(self):
        """Graph entry-reads equal Algorithm 1's table touches."""
        from repro.pipeline import sumcheck_graph

        n = 10
        graph = sumcheck_graph(n)
        simulated = sum(s.work_units for s in graph.stages)
        algorithmic = sum(1 << (n - i) for i in range(n))
        assert simulated == algorithmic


class TestEndToEndBatchPipeline:
    def test_batch_functional_plus_simulated(self):
        """One scenario through both halves at one size: prove a real
        batch of 2^10-gate tasks AND simulate the same batch on a GH200.

        Both halves run at equal gate counts, so the comparison is a
        claim about the model (≈ 19 000 simulated proofs/s against a
        few hundred on a CPU), not about how busy the host is.
        """
        gates = 1 << 10
        cc = random_circuit(F, gates, seed=31)
        pcs = make_pcs(F, cc.r1cs, num_col_checks=5)
        prover = SnarkProver(cc.r1cs, pcs, public_indices=cc.public_indices)
        verifier = SnarkVerifier(cc.r1cs, pcs, public_indices=cc.public_indices)
        tasks = [ProofTask(i, cc.witness, cc.public_values) for i in range(4)]
        proofs, stats = BatchProver(prover).prove_all(tasks)
        assert verify_all(verifier, proofs, tasks)

        sim = BatchZkpSystem("GH200", scale=gates).simulate(batch_size=4)
        assert sim.sim.batch_size == 4
        assert sim.throughput_per_second > stats.throughput_per_second


class TestDeterministicReproducibility:
    def test_proofs_are_deterministic(self):
        """Same witness + same transcript schedule -> identical proofs
        (required for the batch system's reproducibility)."""
        cc = random_circuit(F, 24, seed=41)
        pcs = make_pcs(F, cc.r1cs, num_col_checks=5)
        prover = SnarkProver(cc.r1cs, pcs, public_indices=cc.public_indices)
        p1 = prover.prove(cc.witness, cc.public_values)
        p2 = prover.prove(cc.witness, cc.public_values)
        assert p1.commitment.root == p2.commitment.root
        assert p1.constraint_sumcheck == p2.constraint_sumcheck
        assert p1.vz == p2.vz

    def test_simulation_deterministic(self):
        a = BatchZkpSystem("V100", scale=1 << 14).simulate(batch_size=16)
        b = BatchZkpSystem("V100", scale=1 << 14).simulate(batch_size=16)
        assert a.sim.total_seconds == b.sim.total_seconds
        assert a.sim.thread_allocation == b.sim.thread_allocation
