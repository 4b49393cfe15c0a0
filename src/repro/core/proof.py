"""Proof objects for the core SNARK.

A :class:`SnarkProof` bundles exactly the artifacts §4 of the paper
assembles: "the proof is assembled using the final Merkle root, sum-check
proofs, and a linear combination of linear-time codes" — here the Merkle
root lives inside the witness commitment, the two sum-check transcripts
are explicit, and one PCS opening carries the linear combinations of
codeword rows plus the Merkle-authenticated columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..commitment.brakedown import Commitment, EvalProof
from ..field.prime_field import PrimeField
from ..sumcheck.noninteractive import SumcheckProof


@dataclass(frozen=True)
class SnarkProof:
    """A complete non-interactive proof for one R1CS statement.

    ``opening`` opens the witness commitment at the points
    ``[r_y, e_0, e_idx…]``: the sum-check point (value ``vz``), the
    constant-one slot (value 1) and each public index (its public value),
    in that order.  The verifier knows every value but ``vz``.
    """

    commitment: Commitment
    constraint_sumcheck: SumcheckProof  # sum-check #1 (degree 3)
    va: int  # Ãz(r_x)
    vb: int  # B̃z(r_x)
    vc: int  # C̃z(r_x)
    witness_sumcheck: SumcheckProof  # sum-check #2 (degree 2)
    vz: int  # z̃(r_y)
    opening: EvalProof  # PCS opening of z̃ at r_y, e_0 and the public indices

    def size_field_elements(self) -> int:
        return (
            self.constraint_sumcheck.size_field_elements()
            + self.witness_sumcheck.size_field_elements()
            + 4  # va, vb, vc, vz
            + self.opening.size_field_elements()
        )

    def size_bytes(self, field: PrimeField) -> int:
        """The serialized length (:func:`~repro.core.serialize_proof`)."""
        return sum(self.component_sizes(field).values())

    def component_sizes(self, field: PrimeField) -> Dict[str, int]:
        """Wire bytes per component — feeds the proof-size reporting."""
        from .serialize import proof_parts  # serialize imports this module

        return {name: len(part) for name, part in proof_parts(self, field).items()}
