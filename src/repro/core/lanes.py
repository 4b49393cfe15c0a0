"""The prover state machine: a lane group of same-circuit proofs (S31).

The paper runs each module as per-stage kernels over whatever proofs are
in flight (§3, Fig. 4b), so one proof and sixteen proofs go through the
same kernels.  Here that is the lane dimension of the SZKP / zkPHIRE
SIMD framing: stack ``L`` proofs' tables into ``[lanes, n]`` arrays and
drive every lane through encode → merkle → sumcheck → open in lockstep.
Each kernel call then advances all ``L`` proofs, amortising numpy's
per-dispatch overhead ``L``-fold.  A single proof is a group of one
(DESIGN decision 24): there is no second machine.

Byte parity is the design constraint, and it falls out of two facts:

* every fast61 operation is *exact* — bit-for-bit equal to big-int
  arithmetic — so the array and int-list forms of a kernel produce the
  same integers; and
* each lane keeps its **own** scalar :class:`~repro.hashing.Transcript`.
  Transcripts diverge at the commitment roots, so all Fiat–Shamir
  challenges are per-lane; only the heavy array math is shared.

Representation: on the Mersenne-61 fast path a lane group's tables are
``[L, n]`` ``uint64`` arrays until a sum-check table holds fewer than
``_NP_MIN`` entries (``L·n``), after which its last rounds run on
per-lane int lists.  Off it — any other field, or under
:func:`~repro.kernels.use_reference_kernels` — the tables are per-lane
int lists from round 0, the same form as the tail.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np

from ..errors import ProofError
from ..kernels import field_kernels as _kernels
from ..kernels.profile import stage as _stage
from ..sumcheck.noninteractive import SumcheckProof
from ..sumcheck.prover import evaluation_point
from .proof import SnarkProof

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (prover imports us)
    from .prover import SnarkProver

#: Checkpoint boundaries of a proof, in execution order — the units a
#: stage-pipelined scheduler drives (``encode`` and ``merkle`` are the
#: two halves of the PCS commit; ``sumcheck`` covers both sum-checks,
#: which share folded state and cannot be split without re-deriving it;
#: ``open`` is the one commitment opening at every point of the proof).
PIPELINE_STAGES: tuple = ("encode", "merkle", "sumcheck", "open")

#: Per-variable degree of sum-check #1's summand ``eq·(Ãz·B̃z − C̃z)``.
CONSTRAINT_DEGREE = 3


def _bits_point(index: int, num_vars: int) -> List[int]:
    """The boolean hypercube point whose table entry is ``index``."""
    return [(index >> i) & 1 for i in range(num_vars)]


class LanedProof:
    """A lane group of same-circuit proofs advancing stage by stage.

    One instance owns ``L`` independent ``(witness, public_values)``
    pairs for the prover's fixed circuit and produces ``L`` finished
    :class:`SnarkProof`s, each byte-identical to the proof of that pair
    in a group of one.  Stages run strictly in :data:`PIPELINE_STAGES`
    order via :meth:`run_next` (or all at once via :meth:`run_all`); the
    instance is *not* thread-safe against concurrent stage runs — the
    pipelined executor keeps a group in at most one stage at a time — but
    consecutive stages may run on different threads.
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

    @property
    def next_stage(self) -> Optional[str]:
        """The stage :meth:`run_next` will execute, or None when done."""
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

    @property
    def proof(self) -> SnarkProof:
        """The finished proof of a group of one."""
        if self.lanes != 1:
            raise ProofError(f"a group of {self.lanes} lanes has no single proof")
        return self.proofs[0]

    def run_next(self) -> Optional[str]:
        """Execute the next pending stage for every lane; None when done."""
        name = self.next_stage
        if name is None:
            return None
        getattr(self, f"_run_{name}")()
        self._stage_index += 1
        return name

    def run_all(self) -> List[SnarkProof]:
        """Run every remaining stage on the calling thread."""
        while self.run_next() is not None:
            pass
        return self.proofs

    # -- the four stage bodies ----------------------------------------------

    def _run_encode(self) -> None:
        prover = self.prover
        field = prover.field
        r1cs = prover.r1cs
        for public_values in self.public_values_list:
            if len(public_values) != len(prover.public_indices):
                raise ProofError(
                    f"{len(public_values)} public values for "
                    f"{len(prover.public_indices)} public indices"
                )
        self._z = [r1cs.pad_witness(w) for w in self.witnesses]
        if _kernels.vectorised(field):
            self._z = np.stack(self._z)  # frees the per-lane arrays
        # One matvec serves both the satisfaction check and sum-check #1.
        self._az, self._bz, self._cz = r1cs.matvec_tables_lanes(self._z)
        violations = _kernels.constraint_violation(
            field, self._az, self._bz, self._cz
        )
        for lane, bad in enumerate(violations):
            if bad:
                raise ProofError(
                    f"witness does not satisfy the R1CS "
                    f"(violations at {r1cs.violations(self.witnesses[lane])[:5]}…)"
                )
        # The outer "commit" marker keeps the inclusive profile shape
        # (commit ⊇ encode + merkle) whether the halves run together or
        # on different pipeline workers.
        with _stage("commit"):
            self._rows = prover.pcs.encode_rows_lanes(self._z)

    def _run_merkle(self) -> None:
        prover = self.prover
        with _stage("commit"):
            self._commitments, self._state = prover.pcs.commit_encoded_lanes(
                self._rows
            )
        del self._rows
        self._transcripts = []
        for lane in range(self.lanes):
            transcript = prover._init_transcript(self.public_values_list[lane])
            transcript.absorb_bytes(
                b"commitment", self._commitments[lane].root
            )
            self._transcripts.append(transcript)

    def _rounds(self, round_kernel, tables: list, num_vars: int):
        """Drive every lane's sum-check rounds over laned factor tables.

        Each round's polynomial is computed for all lanes by one kernel
        call, absorbed into each lane's transcript, and every table is
        folded at the lanes' challenges — in place in ``tables``, the
        only reference the caller keeps, so each fold frees the tables it
        replaces.  Returns per-lane round polynomials and challenges.
        """
        field = self.prover.field
        transcripts = self._transcripts
        round_polys: List[List[List[int]]] = [[] for _ in transcripts]
        challenges: List[List[int]] = [[] for _ in transcripts]
        for i in range(num_vars):
            evals = round_kernel(field, *tables)
            rs = []
            for lane, transcript in enumerate(transcripts):
                transcript.absorb_field_vector(b"sumcheck/round", field, evals[lane])
                r = transcript.challenge_field(b"sumcheck/r/%d" % i, field)
                rs.append(r)
                round_polys[lane].append(evals[lane])
                challenges[lane].append(r)
            _kernels.fold_product_tables(field, tables, rs)
        return round_polys, challenges

    def _run_sumcheck(self) -> None:
        prover = self.prover
        field = prover.field
        p = field.modulus
        r1cs = prover.r1cs
        transcripts = self._transcripts

        # 2. Sum-check #1 over the constraint polynomial
        #    Σ_x eq(τ,x)·(Ãz·B̃z − C̃z)(x) = 0, all lanes per round.
        with _stage("sumcheck1"):
            m = r1cs.constraint_vars
            taus = [
                transcript.challenge_field_vector(b"tau", field, m)
                for transcript in transcripts
            ]
            # Taken off the instance: the first fold frees the full tables.
            tables = _kernels.sumcheck_tables(
                field,
                (_kernels.eq_table_lanes(field, taus), self._az, self._bz, self._cz),
            )
            del self._az, self._bz, self._cz
            if any(_kernels.constraint_claimed_sum(field, *tables)):
                raise ProofError(
                    "constraint sum is nonzero on a satisfying witness"
                )
            for transcript in transcripts:
                transcript.absorb_int(b"sumcheck/n", m)
                transcript.absorb_int(b"sumcheck/deg", CONSTRAINT_DEGREE)
                transcript.absorb_field(b"sumcheck/H", field, 0)
            round_polys, challenges_x = self._rounds(
                _kernels.constraint_round_cubic, tables, m
            )
            eq, az, bz, cz = tables
            self._constraint_proofs: List[SumcheckProof] = []
            self._abc_claims: List[tuple] = []
            for lane, transcript in enumerate(transcripts):
                # int() unwraps NumPy scalars: big-int math on np.uint64 wraps.
                e_f, va, vb, vc = (int(t[lane][0]) for t in (eq, az, bz, cz))
                final1 = (e_f * (va * vb - vc)) % p
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

        # 3. Sum-check #2: batch the three matrix claims into one witness
        #    evaluation — the product sum-check over (combined row table,
        #    witness) with per-lane coefficients.
        with _stage("sumcheck2"):
            points_x = [evaluation_point(c) for c in challenges_x]
            coeffs = [
                [t.challenge_field(label, field) for t in transcripts]
                for label in (b"batch/a", b"batch/b", b"batch/c")
            ]
            eq_x = _kernels.eq_table_lanes(field, points_x)
            tables = _kernels.sumcheck_tables(
                field, (r1cs.combined_row_table_lanes(eq_x, *coeffs), self._z)
            )
            del eq_x, self._z
            claimed2 = _kernels.product_pair_sum(field, *tables)
            n = r1cs.witness_vars
            for lane, transcript in enumerate(transcripts):
                va, vb, vc = self._abc_claims[lane]
                ca, cb, cc = (c[lane] for c in coeffs)
                if claimed2[lane] != (ca * va + cb * vb + cc * vc) % p:
                    raise ProofError(
                        "sum-check #2 claim mismatch (internal error)"
                    )
                transcript.absorb_int(b"sumcheck/n", n)
                transcript.absorb_int(b"sumcheck/deg", 2)
                transcript.absorb_field(b"sumcheck/H", field, claimed2[lane])
            round_polys2, self._challenges_y = self._rounds(
                _kernels.product_round_quadratic, tables, n
            )
            ta, tb = tables
            self._witness_proofs: List[SumcheckProof] = []
            for lane, transcript in enumerate(transcripts):
                final2 = (int(ta[lane][0]) * int(tb[lane][0])) % p
                transcript.absorb_field(b"sumcheck/final", field, final2)
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
        with _stage("open"):
            # 4. Open the witness commitment once per lane, at the bound
            # point r_y, the constant-one slot and every public output.
            # The boolean points are shared across lanes, so their rows
            # are row selects; the values of all points come back from
            # the opening (vz among them).
            s = prover.r1cs.witness_vars
            public = [_bits_point(i, s) for i in [0] + prover.public_indices]
            openings, values = prover.pcs.open_many_lanes(
                self._state,
                [[evaluation_point(c)] + public for c in self._challenges_y],
                self._transcripts,
            )

        self._proofs = [
            SnarkProof(
                commitment=self._commitments[lane],
                constraint_sumcheck=self._constraint_proofs[lane],
                va=self._abc_claims[lane][0],
                vb=self._abc_claims[lane][1],
                vc=self._abc_claims[lane][2],
                witness_sumcheck=self._witness_proofs[lane],
                vz=values[lane][0],
                opening=openings[lane],
            )
            for lane in range(self.lanes)
        ]
