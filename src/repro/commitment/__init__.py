"""Polynomial commitment (system S6 in DESIGN.md).

Brakedown/Orion-style: linear-time encoder + Merkle tree, with proximity
testing and tensor-point evaluation openings.
"""

from .brakedown import (
    BrakedownPCS,
    Commitment,
    DEFAULT_COLUMN_CHECKS,
    EvalProof,
    PcsParams,
    ProverState,
    split_num_vars,
)
from .security import (
    DEFAULT_ASSUMED_DISTANCE,
    SecurityEstimate,
    checks_for_security,
    column_check_error,
    estimate,
    recommended_parameters,
    sumcheck_error_bits,
)

__all__ = [
    "SecurityEstimate",
    "estimate",
    "column_check_error",
    "checks_for_security",
    "sumcheck_error_bits",
    "recommended_parameters",
    "DEFAULT_ASSUMED_DISTANCE",
    "BrakedownPCS",
    "Commitment",
    "ProverState",
    "EvalProof",
    "PcsParams",
    "split_num_vars",
    "DEFAULT_COLUMN_CHECKS",
]
