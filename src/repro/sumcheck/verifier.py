"""Sum-check verifiers (paper §2.3).

Verification is O(n): per round, check that the round polynomial sums to
the running claim over {0,1} and update the claim at the round challenge.
The surviving claim must then equal an *oracle* evaluation of the original
polynomial at the bound point — supplied by the caller (directly for tests,
or via a polynomial-commitment opening inside the full protocol).
"""

from __future__ import annotations

from typing import Sequence, Tuple

from ..errors import SumcheckError
from ..field.lagrange import evaluate_from_points
from ..field.prime_field import PrimeField


class RoundCheckFailure(SumcheckError):
    """A round polynomial was inconsistent with the running claim."""

    def __init__(self, round_index: int, expected: int, got: int):
        super().__init__(
            f"sum-check round {round_index}: g({0})+g(1) = {got} != claim {expected}"
        )
        self.round_index = round_index


def verify_multilinear_rounds(
    field: PrimeField,
    claimed_sum: int,
    proof: Sequence[Tuple[int, int]],
    randoms: Sequence[int],
) -> int:
    """Verify Algorithm 1 proof pairs against ``claimed_sum``.

    Returns the final claim, which the caller must compare against
    ``p(evaluation_point(randoms))``.

    Raises :class:`RoundCheckFailure` on any inconsistent round.
    """
    if len(proof) != len(randoms):
        raise SumcheckError(
            f"proof has {len(proof)} rounds but {len(randoms)} challenges"
        )
    p = field.modulus
    claim = claimed_sum % p
    for i, ((pi1, pi2), r) in enumerate(zip(proof, randoms)):
        pi1 %= p
        pi2 %= p
        if (pi1 + pi2) % p != claim:
            raise RoundCheckFailure(i, claim, (pi1 + pi2) % p)
        # Round polynomial is linear: g(r) = (1−r)·g(0) + r·g(1).
        claim = (pi1 + (r % p) * (pi2 - pi1)) % p
    return claim


def verify_multilinear(
    field: PrimeField,
    claimed_sum: int,
    proof: Sequence[Tuple[int, int]],
    randoms: Sequence[int],
    oracle_value: int,
) -> bool:
    """Full Algorithm 1 verification, including the final oracle check."""
    try:
        final_claim = verify_multilinear_rounds(field, claimed_sum, proof, randoms)
    except RoundCheckFailure:
        return False
    return final_claim == oracle_value % field.modulus


def verify_product_rounds(
    field: PrimeField,
    claimed_sum: int,
    round_polys: Sequence[Sequence[int]],
    randoms: Sequence[int],
    degree: int,
) -> int:
    """Verify a degree-``degree`` product sum-check's round polynomials.

    Each round supplies ``degree + 1`` evaluations of ``g_i`` at
    ``t = 0 … degree``; the claim update interpolates ``g_i`` at the round
    challenge.  Returns the final claim for the caller's oracle check.
    """
    if len(round_polys) != len(randoms):
        raise SumcheckError(
            f"{len(round_polys)} round polynomials but {len(randoms)} challenges"
        )
    p = field.modulus
    xs = list(range(degree + 1))
    claim = claimed_sum % p
    for i, (evals, r) in enumerate(zip(round_polys, randoms)):
        if len(evals) != degree + 1:
            raise SumcheckError(
                f"round {i}: expected {degree + 1} evaluations, got {len(evals)}"
            )
        evals = [e % p for e in evals]
        if (evals[0] + evals[1]) % p != claim:
            raise RoundCheckFailure(i, claim, (evals[0] + evals[1]) % p)
        claim = evaluate_from_points(field, xs, evals, r % p)
    return claim


def verify_product(
    field: PrimeField,
    claimed_sum: int,
    round_polys: Sequence[Sequence[int]],
    randoms: Sequence[int],
    degree: int,
    oracle_value: int,
) -> bool:
    """Full product sum-check verification with the final oracle check."""
    try:
        final_claim = verify_product_rounds(
            field, claimed_sum, round_polys, randoms, degree
        )
    except RoundCheckFailure:
        return False
    return final_claim == oracle_value % field.modulus
