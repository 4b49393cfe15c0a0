"""Lane-vectorised proving: many same-circuit proofs in one numpy pass (S31).

The S26 kernels vectorise *within* one proof; at small gate counts the
dominant cost is then numpy's fixed per-dispatch overhead, paid once per
kernel call per proof.  Batch workloads (MLaaS, zkbridge) prove many
instances of the *same* circuit with different witnesses, so the lane
dimension of the SZKP / zkPHIRE SIMD framing applies directly: stack
``L`` proofs' tables into ``[lanes, n]`` arrays and drive every lane
through encode → merkle → sumcheck → open in lockstep.  Each kernel call
then advances all ``L`` proofs, amortising the dispatch overhead ``L``-fold.

Byte parity is the design constraint, and it falls out of two facts:

* every fast61 operation is *exact* — bit-for-bit equal to big-int
  arithmetic — so laned routes produce the same integers as per-proof
  routes; and
* each lane keeps its **own** scalar :class:`~repro.hashing.Transcript`.
  Transcripts diverge at the commitment roots, so all Fiat–Shamir
  challenges are per-lane; only the heavy array math is shared.

:class:`LanedProof` mirrors the :class:`~repro.core.prover.StagedProof`
interface (``stages`` / ``next_stage`` / ``run_next`` / ``done``), which
lets the pipelined executor stream lane-groups through its stage queues
unchanged.  When the fast path does not apply (non-Mersenne-61 field,
reference kernels forced, degenerate shapes) the group degrades to
per-lane ``StagedProof``s driven in lockstep — byte-identical by
construction, so callers never need to care which mode ran.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np

from ..errors import ProofError
from ..field import fast61 as _f61
from ..field.primes import MERSENNE61
from ..kernels import field_kernels as _kernels
from ..kernels.dispatch import kernels_enabled
from ..kernels.profile import stage as _stage
from ..sumcheck.noninteractive import SumcheckProof
from ..sumcheck.prover import evaluation_point
from .constraint import DEGREE as CONSTRAINT_DEGREE
from .proof import PublicBinding, SnarkProof
from .prover import PIPELINE_STAGES, _bits_point

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (prover imports us)
    from .prover import SnarkProver


class LanedProof:
    """A lane-group of same-circuit proofs advancing stage-by-stage.

    One instance owns ``L`` independent ``(witness, public_values)``
    pairs for the prover's fixed circuit and produces ``L`` finished
    :class:`SnarkProof`s, each byte-identical to what
    ``prover.prove(witness, public_values)`` would emit alone.
    """

    stages = PIPELINE_STAGES

    def __init__(
        self,
        prover: "SnarkProver",
        witnesses: Sequence[Sequence[int]],
        public_values_list: Sequence[Sequence[int]],
    ):
        witnesses = list(witnesses)
        public_values_list = [list(pv) for pv in public_values_list]
        if not witnesses:
            raise ProofError("a lane-group needs at least one witness")
        if len(witnesses) != len(public_values_list):
            raise ProofError(
                f"{len(witnesses)} witnesses for "
                f"{len(public_values_list)} public-value vectors"
            )
        self.prover = prover
        self.witnesses = witnesses
        self.public_values_list = public_values_list
        self.lanes = len(witnesses)
        self._stage_index = 0
        self._proofs: Optional[List[SnarkProof]] = None
        #: Lockstep per-lane fallback when the laned fast path is off.
        self._fallback: Optional[list] = None
        if not self._fast_mode():
            self._fallback = [
                prover.begin_proof(w, pv)
                for w, pv in zip(witnesses, public_values_list)
            ]

    def _fast_mode(self) -> bool:
        prover = self.prover
        return (
            _f61 is not None
            and kernels_enabled()
            and prover.field.modulus == MERSENNE61
            and prover.pcs._fast_path()
        )

    # -- StagedProof-compatible surface -------------------------------------

    @property
    def next_stage(self) -> Optional[str]:
        if self._stage_index >= len(self.stages):
            return None
        return self.stages[self._stage_index]

    @property
    def done(self) -> bool:
        return self._stage_index >= len(self.stages)

    @property
    def proofs(self) -> List[SnarkProof]:
        """The finished per-lane proofs (raises until every stage ran)."""
        if self._proofs is None:
            raise ProofError(
                f"lane-group not finished: next stage is {self.next_stage!r}"
            )
        return self._proofs

    def run_next(self) -> Optional[str]:
        """Execute the next pending stage for every lane; None when done."""
        name = self.next_stage
        if name is None:
            return None
        if self._fallback is not None:
            for staged in self._fallback:
                staged.run_next()
            if all(staged.done for staged in self._fallback):
                self._proofs = [staged.proof for staged in self._fallback]
        else:
            getattr(self, f"_run_{name}")()
        self._stage_index += 1
        return name

    def run_all(self) -> List[SnarkProof]:
        """Run every remaining stage on the calling thread."""
        while self.run_next() is not None:
            pass
        return self.proofs

    # -- the four laned stage bodies ----------------------------------------

    def _run_encode(self) -> None:
        prover = self.prover
        field = prover.field
        r1cs = prover.r1cs
        for lane, public_values in enumerate(self.public_values_list):
            if len(public_values) != len(prover.public_indices):
                raise ProofError(
                    f"{len(public_values)} public values for "
                    f"{len(prover.public_indices)} public indices"
                )
        self._z_lanes = np.asarray(
            [r1cs.pad_witness(w) for w in self.witnesses], dtype=np.uint64
        )
        self._az, self._bz, self._cz = r1cs.matvec_tables_lanes(self._z_lanes)
        violations = _kernels.constraint_violation(
            field, self._az, self._bz, self._cz
        )
        for lane, bad in enumerate(violations):
            if bad:
                raise ProofError(
                    f"witness does not satisfy the R1CS "
                    f"(violations at {r1cs.violations(self.witnesses[lane])[:5]}…)"
                )
        with _stage("commit"):
            self._matrices, self._codewords = prover.pcs.encode_rows_lanes(
                self._z_lanes
            )

    def _run_merkle(self) -> None:
        prover = self.prover
        with _stage("commit"):
            self._commitments, self._state = prover.pcs.commit_encoded_lanes(
                self._matrices, self._codewords
            )
        del self._matrices, self._codewords
        self._transcripts = []
        for lane in range(self.lanes):
            transcript = prover._init_transcript(self.public_values_list[lane])
            transcript.absorb_bytes(
                b"commitment", self._commitments[lane].root
            )
            self._transcripts.append(transcript)

    def _run_sumcheck(self) -> None:
        prover = self.prover
        field = prover.field
        p = field.modulus
        r1cs = prover.r1cs
        lanes = self.lanes
        transcripts = self._transcripts

        # 2. Sum-check #1 over the constraint polynomial, all lanes per round.
        with _stage("sumcheck1"):
            m = r1cs.constraint_vars
            taus = [
                transcripts[lane].challenge_field_vector(b"tau", field, m)
                for lane in range(lanes)
            ]
            eq = _kernels.eq_table_lanes(field, taus)
            # Taken off the instance: the first fold frees the full tables.
            az, bz, cz = self._az, self._bz, self._cz
            del self._az, self._bz, self._cz
            claimed = _kernels.constraint_claimed_sum(field, eq, az, bz, cz)
            if any(claimed):
                raise ProofError(
                    "constraint sum is nonzero on a satisfying witness"
                )
            for transcript in transcripts:
                transcript.absorb_int(b"sumcheck/n", m)
                transcript.absorb_int(b"sumcheck/deg", CONSTRAINT_DEGREE)
                transcript.absorb_field(b"sumcheck/H", field, 0)
            round_polys: List[List[List[int]]] = [[] for _ in range(lanes)]
            challenges_x: List[List[int]] = [[] for _ in range(lanes)]
            for i in range(m):
                evals = _kernels.constraint_round_cubic(field, eq, az, bz, cz)
                rs: List[int] = []
                for lane in range(lanes):
                    transcript = transcripts[lane]
                    transcript.absorb_field_vector(
                        b"sumcheck/round", field, evals[lane]
                    )
                    r = transcript.challenge_field(b"sumcheck/r/%d" % i, field)
                    rs.append(r)
                    round_polys[lane].append(evals[lane])
                    challenges_x[lane].append(r)
                eq = _kernels.fold_table(field, eq, rs)
                az = _kernels.fold_table(field, az, rs)
                bz = _kernels.fold_table(field, bz, rs)
                cz = _kernels.fold_table(field, cz, rs)
            self._constraint_proofs: List[SumcheckProof] = []
            self._abc_claims: List[tuple] = []
            for lane in range(lanes):
                e_f = int(eq[lane, 0])
                va = int(az[lane, 0])
                vb = int(bz[lane, 0])
                vc = int(cz[lane, 0])
                final1 = (e_f * (va * vb - vc)) % p
                transcript = transcripts[lane]
                transcript.absorb_field(b"sumcheck/final", field, final1)
                self._constraint_proofs.append(
                    SumcheckProof(
                        claimed_sum=0,
                        round_polys=round_polys[lane],
                        degree=CONSTRAINT_DEGREE,
                        final_value=final1,
                    )
                )
                transcript.absorb_field_vector(
                    b"abc-claims", field, [va, vb, vc]
                )
                self._abc_claims.append((va, vb, vc))

        # 3. Sum-check #2: the laned replica of ``prove_product`` over
        #    (combined row table, witness) with per-lane coefficients.
        with _stage("sumcheck2"):
            points_x = [
                evaluation_point(challenges_x[lane]) for lane in range(lanes)
            ]
            coeffs_a = [
                transcripts[lane].challenge_field(b"batch/a", field)
                for lane in range(lanes)
            ]
            coeffs_b = [
                transcripts[lane].challenge_field(b"batch/b", field)
                for lane in range(lanes)
            ]
            coeffs_c = [
                transcripts[lane].challenge_field(b"batch/c", field)
                for lane in range(lanes)
            ]
            eq_x = _kernels.eq_table_lanes(field, points_x)
            ta = r1cs.combined_row_table_lanes(eq_x, coeffs_a, coeffs_b, coeffs_c)
            tb = self._z_lanes
            n = r1cs.witness_vars
            claimed2 = _kernels.product_pair_sum(field, ta, tb)
            for lane in range(lanes):
                va, vb, vc = self._abc_claims[lane]
                expected = (
                    coeffs_a[lane] * va + coeffs_b[lane] * vb + coeffs_c[lane] * vc
                ) % p
                if claimed2[lane] != expected:
                    raise ProofError(
                        "sum-check #2 claim mismatch (internal error)"
                    )
                transcript = transcripts[lane]
                transcript.absorb_int(b"sumcheck/n", n)
                transcript.absorb_int(b"sumcheck/deg", 2)
                transcript.absorb_field(b"sumcheck/H", field, claimed2[lane])
            round_polys2: List[List[List[int]]] = [[] for _ in range(lanes)]
            challenges_y: List[List[int]] = [[] for _ in range(lanes)]
            for i in range(n):
                evals = _kernels.product_round_quadratic(field, ta, tb)
                rs = []
                for lane in range(lanes):
                    transcript = transcripts[lane]
                    transcript.absorb_field_vector(
                        b"sumcheck/round", field, evals[lane]
                    )
                    r = transcript.challenge_field(b"sumcheck/r/%d" % i, field)
                    rs.append(r)
                    round_polys2[lane].append(evals[lane])
                    challenges_y[lane].append(r)
                ta = _kernels.fold_table(field, ta, rs)
                tb = _kernels.fold_table(field, tb, rs)
            self._witness_proofs: List[SumcheckProof] = []
            self._challenges_y = challenges_y
            for lane in range(lanes):
                final2 = (int(ta[lane, 0]) * int(tb[lane, 0])) % p
                transcripts[lane].absorb_field(b"sumcheck/final", field, final2)
                self._witness_proofs.append(
                    SumcheckProof(
                        claimed_sum=claimed2[lane],
                        round_polys=round_polys2[lane],
                        degree=2,
                        final_value=final2,
                    )
                )

    def _run_open(self) -> None:
        prover = self.prover
        field = prover.field
        r1cs = prover.r1cs
        lanes = self.lanes
        transcripts = self._transcripts
        with _stage("open"):
            # 4. Open the witness commitment at each lane's bound point.
            points_y = [
                evaluation_point(self._challenges_y[lane])
                for lane in range(lanes)
            ]
            vzs = prover.pcs.evaluate_lanes(self._state, points_y)
            for lane in range(lanes):
                transcripts[lane].absorb_field(b"vz", field, vzs[lane])
            witness_openings = prover.pcs.open_lanes(
                self._state, points_y, transcripts
            )

            # 5. Bind the constant-one slot and each public output.  The
            # binding points are shared across lanes (boolean points of
            # the same indices), but every open still runs against its
            # lane's transcript, so column challenges stay per-lane.
            s = r1cs.witness_vars
            bindings: List[List[PublicBinding]] = [[] for _ in range(lanes)]
            for pos, idx in enumerate([0] + prover.public_indices):
                point = _bits_point(idx, s)
                openings = prover.pcs.open_lanes(
                    self._state, [point] * lanes, transcripts
                )
                for lane in range(lanes):
                    value = (
                        1
                        if pos == 0
                        else self.public_values_list[lane][pos - 1]
                    )
                    bindings[lane].append(
                        PublicBinding(
                            var_index=idx,
                            value=value,
                            opening=openings[lane],
                        )
                    )

        self._proofs = [
            SnarkProof(
                commitment=self._commitments[lane],
                constraint_sumcheck=self._constraint_proofs[lane],
                va=self._abc_claims[lane][0],
                vb=self._abc_claims[lane][1],
                vc=self._abc_claims[lane][2],
                witness_sumcheck=self._witness_proofs[lane],
                vz=vzs[lane],
                witness_opening=witness_openings[lane],
                public_bindings=bindings[lane],
            )
            for lane in range(lanes)
        ]
