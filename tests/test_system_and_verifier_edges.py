"""Structural edge cases: BatchZkpSystem knobs and verifier shape checks."""

import dataclasses

import pytest

from repro.core import SnarkProver, SnarkVerifier, make_pcs, random_circuit
from repro.errors import PipelineError, ProofError
from repro.field import DEFAULT_FIELD
from repro.pipeline import BatchZkpSystem, DEFAULT_STAGE_CAPS, build_module_graphs

F = DEFAULT_FIELD


class TestBatchZkpSystemKnobs:
    def test_stage_caps_respected(self):
        system = BatchZkpSystem(
            "GH200",
            scale=1 << 16,
            stage_caps={"encoder": 5, "merkle": 4, "sumcheck": 3},
        )
        assert len(system.module_graphs["encoder"].stages) <= 5
        assert len(system.module_graphs["merkle"].stages) <= 4
        assert len(system.module_graphs["sumcheck"].stages) <= 3

    def test_default_caps_give_about_28_stages(self):
        """Table 8's V100 latency implies ~28 pipeline stages at S=2^20."""
        system = BatchZkpSystem("V100", scale=1 << 20)
        assert 25 <= len(system.graph.stages) <= 32

    def test_partial_cap_override_merges_with_defaults(self):
        system = BatchZkpSystem("GH200", scale=1 << 16, stage_caps={"merkle": 3})
        assert len(system.module_graphs["merkle"].stages) <= 3
        assert (
            len(system.module_graphs["sumcheck"].stages)
            <= DEFAULT_STAGE_CAPS["sumcheck"]
        )

    def test_thread_budget_knob(self):
        small = BatchZkpSystem("V100", scale=1 << 16, total_threads=2048)
        large = BatchZkpSystem("V100", scale=1 << 16)
        r_small = small.simulate(batch_size=64)
        r_large = large.simulate(batch_size=64)
        assert (
            r_large.sim.steady_throughput_per_second
            > 2 * r_small.sim.steady_throughput_per_second
        )

    def test_device_spec_accepted_directly(self):
        from repro.gpu import get_gpu

        system = BatchZkpSystem(get_gpu("A100"), scale=1 << 16)
        assert system.device.name == "A100"

    def test_scale_floor_enforced(self):
        with pytest.raises(PipelineError):
            BatchZkpSystem("GH200", scale=512)

    def test_workload_scales_linearly(self):
        g1 = build_module_graphs(1 << 16)
        g2 = build_module_graphs(1 << 17)
        for name in ("encoder", "merkle", "sumcheck"):
            w1 = sum(s.work_units for s in g1[name].stages)
            w2 = sum(s.work_units for s in g2[name].stages)
            assert w2 == pytest.approx(2 * w1, rel=0.1), name


class TestVerifierStructuralChecks:
    @pytest.fixture(scope="class")
    def setting(self):
        cc = random_circuit(F, 24, seed=91)
        pcs = make_pcs(F, cc.r1cs, num_col_checks=4)
        prover = SnarkProver(cc.r1cs, pcs, public_indices=cc.public_indices)
        verifier = SnarkVerifier(cc.r1cs, pcs, public_indices=cc.public_indices)
        proof = prover.prove(cc.witness, cc.public_values)
        return cc, verifier, proof

    def test_wrong_constraint_round_count(self, setting):
        cc, verifier, proof = setting
        sc = proof.constraint_sumcheck
        bad_sc = dataclasses.replace(sc, round_polys=sc.round_polys[:-1])
        bad = dataclasses.replace(proof, constraint_sumcheck=bad_sc)
        assert not verifier.verify(bad, cc.public_values)

    def test_wrong_constraint_degree(self, setting):
        cc, verifier, proof = setting
        sc = proof.constraint_sumcheck
        bad_sc = dataclasses.replace(sc, degree=2)
        bad = dataclasses.replace(proof, constraint_sumcheck=bad_sc)
        assert not verifier.verify(bad, cc.public_values)

    def test_nonzero_claimed_sum(self, setting):
        cc, verifier, proof = setting
        sc = proof.constraint_sumcheck
        bad_sc = dataclasses.replace(sc, claimed_sum=1)
        bad = dataclasses.replace(proof, constraint_sumcheck=bad_sc)
        assert not verifier.verify(bad, cc.public_values)

    def test_wrong_witness_round_count(self, setting):
        cc, verifier, proof = setting
        sc = proof.witness_sumcheck
        bad_sc = dataclasses.replace(
            sc, round_polys=sc.round_polys + [[0, 0, 0]]
        )
        bad = dataclasses.replace(proof, witness_sumcheck=bad_sc)
        assert not verifier.verify(bad, cc.public_values)

    def test_wrong_witness_degree(self, setting):
        cc, verifier, proof = setting
        sc = proof.witness_sumcheck
        bad_sc = dataclasses.replace(sc, degree=3)
        bad = dataclasses.replace(proof, witness_sumcheck=bad_sc)
        assert not verifier.verify(bad, cc.public_values)

    def test_reordered_public_bindings(self, setting):
        """The evaluation rows that bind r_y and the public points, in
        reverse order."""
        cc, verifier, proof = setting
        rows = proof.opening.evaluation_rows
        assert len(rows) >= 2
        opening = dataclasses.replace(proof.opening, evaluation_rows=rows[::-1])
        bad = dataclasses.replace(proof, opening=opening)
        assert not verifier.verify(bad, cc.public_values)

    def test_prover_rejects_bad_pcs_shape(self):
        cc = random_circuit(F, 24, seed=92)
        other = random_circuit(F, 200, seed=93)
        wrong_pcs = make_pcs(F, other.r1cs, num_col_checks=4)
        if wrong_pcs.params.num_vars != cc.r1cs.witness_vars:
            with pytest.raises(ProofError):
                SnarkProver(cc.r1cs, wrong_pcs, public_indices=cc.public_indices)
