"""The core SNARK verifier.

Replays the prover's transcript schedule, checks both sum-checks round by
round, evaluates the public R1CS matrices at the bound point (O(nnz)), and
verifies the one PCS opening of the witness: at the bound point and at the
boolean points that pin the constant-one slot and the public outputs.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..commitment.brakedown import BrakedownPCS
from ..errors import CommitmentError, SumcheckError
from ..field.multilinear import eq_eval
from ..hashing.transcript import Transcript
from ..sumcheck.prover import evaluation_point
from ..sumcheck.verifier import verify_product_rounds
from .lanes import CONSTRAINT_DEGREE, _bits_point
from .proof import SnarkProof
from .prover import TRANSCRIPT_LABEL, make_pcs
from .r1cs import R1CS


class SnarkVerifier:
    """Verifies proofs for a fixed R1CS instance."""

    def __init__(
        self,
        r1cs: R1CS,
        pcs: Optional[BrakedownPCS] = None,
        public_indices: Optional[Sequence[int]] = None,
    ):
        self.r1cs = r1cs
        self.field = r1cs.field
        self.pcs = pcs or make_pcs(self.field, r1cs)
        self.public_indices = list(public_indices or [])
        self._r1cs_digest = r1cs.digest()
        # The matrix check runs through the vectorised edge sets; build
        # them now (a no-op when a prover on this R1CS already has).
        r1cs.prepare_f61()

    def verify(self, proof: SnarkProof, public_values: Sequence[int]) -> bool:
        """Return True iff ``proof`` validates against ``public_values``."""
        field = self.field
        r1cs = self.r1cs
        p = field.modulus
        if len(public_values) != len(self.public_indices):
            return False

        transcript = Transcript(TRANSCRIPT_LABEL)
        transcript.absorb_bytes(b"r1cs", self._r1cs_digest)
        transcript.absorb_field_vector(b"public", field, list(public_values))
        transcript.absorb_bytes(b"commitment", proof.commitment.root)

        # -- sum-check #1 -----------------------------------------------------
        m = r1cs.constraint_vars
        if proof.constraint_sumcheck.claimed_sum % p != 0:
            return False
        if proof.constraint_sumcheck.num_rounds != m:
            return False
        if proof.constraint_sumcheck.degree != CONSTRAINT_DEGREE:
            return False
        tau = transcript.challenge_field_vector(b"tau", field, m)
        transcript.absorb_int(b"sumcheck/n", m)
        transcript.absorb_int(b"sumcheck/deg", CONSTRAINT_DEGREE)
        transcript.absorb_field(b"sumcheck/H", field, 0)
        challenges_x: List[int] = []
        for i, evals in enumerate(proof.constraint_sumcheck.round_polys):
            transcript.absorb_field_vector(b"sumcheck/round", field, list(evals))
            challenges_x.append(
                transcript.challenge_field(b"sumcheck/r/%d" % i, field)
            )
        try:
            final1 = verify_product_rounds(
                field,
                0,
                proof.constraint_sumcheck.round_polys,
                challenges_x,
                CONSTRAINT_DEGREE,
            )
        except SumcheckError:
            return False
        if final1 != proof.constraint_sumcheck.final_value % p:
            return False
        transcript.absorb_field(
            b"sumcheck/final", field, proof.constraint_sumcheck.final_value
        )
        # Structural check: final claim must equal eq(τ, r_x)·(va·vb − vc).
        point_x = evaluation_point(challenges_x)
        eq_val = eq_eval(field, tau, point_x)
        if final1 != (eq_val * (proof.va * proof.vb - proof.vc)) % p:
            return False
        transcript.absorb_field_vector(
            b"abc-claims", field, [proof.va, proof.vb, proof.vc]
        )

        # -- sum-check #2 -----------------------------------------------------
        coeff_a = transcript.challenge_field(b"batch/a", field)
        coeff_b = transcript.challenge_field(b"batch/b", field)
        coeff_c = transcript.challenge_field(b"batch/c", field)
        expected_claim2 = (
            coeff_a * proof.va + coeff_b * proof.vb + coeff_c * proof.vc
        ) % p
        if proof.witness_sumcheck.claimed_sum % p != expected_claim2:
            return False
        s = r1cs.witness_vars
        if proof.witness_sumcheck.num_rounds != s:
            return False
        if proof.witness_sumcheck.degree != 2:
            return False
        transcript.absorb_int(b"sumcheck/n", s)
        transcript.absorb_int(b"sumcheck/deg", 2)
        transcript.absorb_field(
            b"sumcheck/H", field, proof.witness_sumcheck.claimed_sum
        )
        challenges_y: List[int] = []
        for i, evals in enumerate(proof.witness_sumcheck.round_polys):
            transcript.absorb_field_vector(b"sumcheck/round", field, list(evals))
            challenges_y.append(
                transcript.challenge_field(b"sumcheck/r/%d" % i, field)
            )
        try:
            final2 = verify_product_rounds(
                field,
                proof.witness_sumcheck.claimed_sum,
                proof.witness_sumcheck.round_polys,
                challenges_y,
                2,
            )
        except SumcheckError:
            return False
        if final2 != proof.witness_sumcheck.final_value % p:
            return False
        transcript.absorb_field(
            b"sumcheck/final", field, proof.witness_sumcheck.final_value
        )

        # -- final algebraic check: M̃(r_x, r_y)·z̃(r_y) --------------------------
        point_y = evaluation_point(challenges_y)
        ma, mb, mc = r1cs.mle_evals_abc(point_x, point_y)
        combined = (coeff_a * ma + coeff_b * mb + coeff_c * mc) % p
        if final2 != (combined * proof.vz) % p:
            return False

        # -- the PCS opening at r_y, e_0 and every public index ------------------
        points = [point_y] + [
            _bits_point(idx, s) for idx in [0] + self.public_indices
        ]
        try:
            return self.pcs.verify_many(
                proof.commitment,
                points,
                [proof.vz, 1, *public_values],
                proof.opening,
                transcript,
            )
        except CommitmentError:
            # Mismatched public parameters (e.g. a different encoder seed).
            return False
