"""Sum-check prover for the R1CS constraint polynomial.

Sum-check #1 of the Spartan-style protocol proves

    0 = Σ_{x ∈ {0,1}^m}  eq(τ, x) · ( Ãz(x)·B̃z(x) − C̃z(x) )

The summand is a product-minus-product of multilinears: degree 3 per
variable.  Each round emits the round polynomial's evaluations at
``t = 0, 1, 2, 3`` and folds all four tables at the verifier's challenge.
The generic degree-3 round checks of
:func:`repro.sumcheck.verifier.verify_product_rounds` verify it — the
verifier never needs to know the summand's internal structure, only its
degree.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..errors import SumcheckError
from ..field.prime_field import PrimeField
from ..kernels import field_kernels as _kernels

DEGREE = 3


class ConstraintSumcheckProver:
    """Round-at-a-time prover for ``Σ eq·(az·bz − cz)``."""

    def __init__(
        self,
        field: PrimeField,
        eq_tab: Sequence[int],
        az: Sequence[int],
        bz: Sequence[int],
        cz: Sequence[int],
    ):
        length = len(eq_tab)
        n = length.bit_length() - 1
        if length != 1 << n or n == 0:
            raise SumcheckError(f"table length must be 2^n with n >= 1, got {length}")
        if not (len(az) == len(bz) == len(cz) == length):
            raise SumcheckError("all four tables must have equal length")
        self.field = field
        self.num_vars = n
        # uint64 arrays on the Mersenne-61 fast path (adopted without a
        # copy, so rounds never convert list↔array), int lists otherwise.
        self._eq, self._az, self._bz, self._cz = _kernels.sumcheck_tables(
            field, (eq_tab, az, bz, cz)
        )
        self._round = 0
        self.claimed_sum = _kernels.constraint_claimed_sum(
            field, self._eq, self._az, self._bz, self._cz
        )

    @property
    def rounds_remaining(self) -> int:
        return self.num_vars - self._round

    def round_polynomial(self) -> List[int]:
        """Evaluations of this round's g at t = 0, 1, 2, 3."""
        if self._round >= self.num_vars:
            raise SumcheckError("sum-check already complete")
        return _kernels.constraint_round_cubic(
            self.field, self._eq, self._az, self._bz, self._cz
        )

    def fold(self, r: int) -> None:
        if self._round >= self.num_vars:
            raise SumcheckError("sum-check already complete")
        self._eq, self._az, self._bz, self._cz = _kernels.fold_product_tables(
            self.field, (self._eq, self._az, self._bz, self._cz), r
        )
        self._round += 1

    def final_values(self) -> Tuple[int, int, int, int]:
        """(eq, Ãz, B̃z, C̃z) at the fully bound point."""
        if self._round != self.num_vars:
            raise SumcheckError(
                f"{self.rounds_remaining} rounds remaining; cannot finalize"
            )
        # int() unwraps numpy scalars from array state — callers do big-int
        # arithmetic, and Python math on np.uint64 silently wraps mod 2^64.
        return (
            int(self._eq[0]),
            int(self._az[0]),
            int(self._bz[0]),
            int(self._cz[0]),
        )

    def final_value(self) -> int:
        e, a, b, c = self.final_values()
        return (e * (a * b - c)) % self.field.modulus
