"""Soundness-budget estimates for the commitment and the Fiat–Shamir SNARK.

The paper's protocols get their security from three knobs this module
quantifies:

* **column checks** — the probability that a far-from-code matrix slips
  past ``t`` random column spot-checks is ``(1 − δ/3)^t`` for relative
  code distance δ (Brakedown's proximity analysis, constants simplified).
  One opening checks the claims at all of its ``k`` points on the *same*
  ``t`` columns, so a union bound over the points gives
  ``k·(1 − δ/3)^t`` for the consistency checks; the proximity
  combination's own term (below) does not change with ``k``;
* **field size** — every sum-check round and the proximity combination
  union-bound a ``d/|F|`` term (Schwartz–Zippel);
* **query amplification** — how many checks are needed for a target
  security level.

These are *estimates under an assumed code distance* — the pseudorandom
expanders are not certified (see README caveats) — but they let a user
size ``num_col_checks`` and the field the same way the real systems do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import CommitmentError
from ..field.prime_field import PrimeField
from .brakedown import PcsParams

#: Default assumed relative distance of the rate-1/2 expander code.  The
#: Brakedown paper proves constants in this regime for its parameters;
#: ours is an assumption, surfaced explicitly in every API below.
DEFAULT_ASSUMED_DISTANCE = 0.2


@dataclass(frozen=True)
class SecurityEstimate:
    """Bits of security per error source, and the binding minimum."""

    column_check_bits: float
    sumcheck_bits: float
    proximity_combination_bits: float

    @property
    def total_bits(self) -> float:
        """Overall soundness ≈ the weakest link (union bound ≈ min)."""
        return min(
            self.column_check_bits,
            self.sumcheck_bits,
            self.proximity_combination_bits,
        )


def column_check_error(
    num_checks: int, assumed_distance: float, num_points: int = 1
) -> float:
    """Pr[t shared spot-checks miss any of k claims] ≤ k·(1 − δ/3)^t."""
    if not 0.0 < assumed_distance < 1.0:
        raise CommitmentError("assumed distance must be in (0, 1)")
    if num_checks < 1:
        raise CommitmentError("need at least one column check")
    if num_points < 1:
        raise CommitmentError("an opening covers at least one point")
    return min(1.0, num_points * (1.0 - assumed_distance / 3.0) ** num_checks)


def checks_for_security(
    bits: float, assumed_distance: float, num_points: int = 1
) -> int:
    """Smallest t with column_check_error <= 2^-bits."""
    if bits <= 0:
        raise CommitmentError("security target must be positive")
    per_check = -math.log2(1.0 - assumed_distance / 3.0)
    return math.ceil((bits + math.log2(num_points)) / per_check)


def sumcheck_error_bits(
    field: PrimeField, num_rounds: int, degree: int
) -> float:
    """Schwartz–Zippel bits: each round risks degree/|F|."""
    if num_rounds < 1:
        raise CommitmentError("need at least one round")
    per_round = degree / field.modulus
    total = min(1.0, num_rounds * per_round)
    return -math.log2(total)


def estimate(
    field: PrimeField,
    params: PcsParams,
    num_sumcheck_rounds: int,
    sumcheck_degree: int = 3,
    assumed_distance: float = DEFAULT_ASSUMED_DISTANCE,
    num_points: int = 1,
) -> SecurityEstimate:
    """Security estimate for one proof whose opening covers ``num_points``.

    A SNARK proof opens its witness at ``2 + len(public_indices)``
    points: the sum-check point, the constant-one slot and each output.
    """
    col_err = column_check_error(
        params.num_col_checks, assumed_distance, num_points
    )
    # Proximity: the random row-combination collapses with prob ~ R/|F|.
    prox_err = min(1.0, params.num_rows / field.modulus)
    return SecurityEstimate(
        column_check_bits=-math.log2(col_err),
        sumcheck_bits=sumcheck_error_bits(
            field, num_sumcheck_rounds, sumcheck_degree
        ),
        proximity_combination_bits=-math.log2(prox_err),
    )


def recommended_parameters(
    field: PrimeField,
    target_bits: float,
    assumed_distance: float = DEFAULT_ASSUMED_DISTANCE,
    num_points: int = 1,
) -> dict:
    """What it takes to hit ``target_bits`` with this field.

    Returns the column-check count for an opening at ``num_points``
    points (a SNARK proof's is ``2 + len(public_indices)``), and whether
    the field itself is large enough for the algebraic terms (a 61-bit
    field caps algebraic soundness near 60 bits per challenge — fine for
    demos, short of production 100+-bit targets without challenge
    repetition).
    """
    field_bits = math.log2(field.modulus)
    return {
        "num_col_checks": checks_for_security(
            target_bits, assumed_distance, num_points
        ),
        "field_bits": field_bits,
        "field_sufficient": field_bits >= target_bits + 10,
        "assumed_distance": assumed_distance,
    }
