"""Sum-check provers (paper §2.3, Algorithm 1).

Two provers are provided:

* :func:`prove_multilinear` / :class:`MultilinearSumcheckProver` — a
  line-for-line implementation of the paper's Algorithm 1: ``n`` rounds,
  each emitting the two half-table sums ``(π_i1, π_i2)`` and folding the
  table with that round's random number.  Round ``i`` pairs entry ``b``
  with ``b + 2^{n−i}``, so the *most significant* live variable is bound
  each round.
* :class:`ProductSumcheckProver` — the degree-``k`` generalization needed
  by sum-check-based SNARKs (the eq·(L·R−O) constraint of the core
  protocol is a product of up to three multilinears).  Each round sends the
  round polynomial's evaluations at ``t = 0 … k``.

Both provers expose a round-at-a-time interface (for interactive use and
for the pipeline scheduler, which maps each round to a dedicated GPU
kernel) and a one-shot interface.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..errors import SumcheckError
from ..field.fast61 import to_ints
from ..field.prime_field import PrimeField
from ..kernels import field_kernels as _kernels


def prove_multilinear(
    field: PrimeField, table: Sequence[int], randoms: Sequence[int]
) -> List[Tuple[int, int]]:
    """Algorithm 1 of the paper, verbatim.

    Args:
        field:   The prime field.
        table:   ``A`` with ``A[b] = p(b1, …, bn)``, length ``2^n``.
        randoms: ``r_1, …, r_n``.

    Returns:
        ``[(π_11, π_12), …, (π_n1, π_n2)]``.
    """
    n = len(table).bit_length() - 1
    if len(table) != 1 << n or n == 0:
        raise SumcheckError(f"table length must be 2^n with n >= 1, got {len(table)}")
    if len(randoms) != n:
        raise SumcheckError(f"need {n} random numbers, got {len(randoms)}")
    p = field.modulus
    a = [v % p for v in to_ints(table)]
    proof: List[Tuple[int, int]] = []
    for i in range(n):
        half = 1 << (n - i - 1)
        r = randoms[i] % p
        pi1 = 0
        pi2 = 0
        # Lines 3-7 of Algorithm 1: accumulate the two half sums and fold.
        for b in range(half):
            lo = a[b]
            hi = a[b + half]
            pi1 += lo
            pi2 += hi
            a[b] = (lo + r * (hi - lo)) % p
        proof.append((pi1 % p, pi2 % p))
    return proof


class MultilinearSumcheckProver:
    """Round-at-a-time Algorithm 1 prover.

    The pipeline scheduler drives one instance per in-flight proof; each
    :meth:`round` call corresponds to one per-round GPU kernel execution in
    the paper's pipelined module (§3.2).
    """

    def __init__(self, field: PrimeField, table: Sequence[int]):
        n = len(table).bit_length() - 1
        if len(table) != 1 << n or n == 0:
            raise SumcheckError(
                f"table length must be 2^n with n >= 1, got {len(table)}"
            )
        self.field = field
        self.num_vars = n
        self._table = [v % field.modulus for v in to_ints(table)]
        self._round = 0
        self.claimed_sum = sum(self._table) % field.modulus

    @property
    def rounds_remaining(self) -> int:
        return self.num_vars - self._round

    def round_message(self) -> Tuple[int, int]:
        """This round's ``(π_i1, π_i2)`` half-table sums (no fold)."""
        if self._round >= self.num_vars:
            raise SumcheckError("sum-check already complete")
        p = self.field.modulus
        half = len(self._table) // 2
        pi1 = sum(self._table[:half]) % p
        pi2 = sum(self._table[half:]) % p
        return (pi1, pi2)

    def fold(self, r: int) -> None:
        """Bind this round's variable to ``r`` (Algorithm 1 line 6)."""
        if self._round >= self.num_vars:
            raise SumcheckError("sum-check already complete")
        self._table = _kernels.fold_table(self.field, self._table, r)
        self._round += 1

    def round(self, r: int) -> Tuple[int, int]:
        """Execute one round with random number ``r``; returns (π_i1, π_i2)."""
        message = self.round_message()
        self.fold(r)
        return message

    def final_value(self) -> int:
        """The fully folded evaluation p(r_n, …, r_1) after all rounds."""
        if self._round != self.num_vars:
            raise SumcheckError(
                f"{self.rounds_remaining} rounds remaining; cannot finalize"
            )
        return self._table[0]


class ProductSumcheckProver:
    """Sum-check for ``Σ_b Π_j f_j(b)`` over multilinear factors ``f_j``.

    Round ``i`` sends the evaluations of the degree-``k`` round polynomial
    ``g_i(t) = Σ_b Π_j ((1−t)·f_j(b) + t·f_j(b+half))`` at ``t = 0, …, k``
    and then folds every factor table at the verifier's challenge.  With a
    single factor this degenerates exactly to Algorithm 1 (``g_i(0),
    g_i(1)`` are ``π_i1, π_i2``).
    """

    def __init__(self, field: PrimeField, factors: Sequence[Sequence[int]]):
        if not factors:
            raise SumcheckError("need at least one factor")
        length = len(factors[0])
        n = length.bit_length() - 1
        if length != 1 << n or n == 0:
            raise SumcheckError(f"factor length must be 2^n with n >= 1, got {length}")
        for f in factors:
            if len(f) != length:
                raise SumcheckError("all factors must have equal length")
        self.field = field
        self.num_vars = n
        self.degree = len(factors)
        p = field.modulus
        if self.degree == 2:
            # The SNARK's two-factor sum-check: uint64 arrays across every
            # round on the Mersenne-61 fast path (adopted without a copy).
            # The generic-degree round loop below is pure Python, so
            # higher degrees keep int lists.
            tables = _kernels.sumcheck_tables(field, factors)
        else:
            tables = [[v % p for v in to_ints(f)] for f in factors]
        self._tables = tables
        self._round = 0
        self.claimed_sum = self._product_sum()

    def _product_sum(self) -> int:
        p = self.field.modulus
        if self.degree == 2:
            return _kernels.product_pair_sum(self.field, *self._tables)
        total = 0
        for b in range(len(self._tables[0])):
            term = 1
            for tab in self._tables:
                term = (term * tab[b]) % p
            total += term
        return total % p

    @property
    def rounds_remaining(self) -> int:
        return self.num_vars - self._round

    def round_polynomial(self) -> List[int]:
        """Evaluations of this round's ``g_i`` at ``t = 0, …, degree``.

        Pure query — does not advance the round.  ``g_i(t)`` is evaluated by
        linear interpolation of every factor between its two half-tables.
        """
        if self._round >= self.num_vars:
            raise SumcheckError("sum-check already complete")
        p = self.field.modulus
        if self.degree == 2:
            # The SNARK's second sum-check is always a two-factor product;
            # the fused kernel computes g(0), g(1), g(2) in one pass.
            return _kernels.product_round_quadratic(self.field, *self._tables)
        half = len(self._tables[0]) // 2
        evals = [0] * (self.degree + 1)
        for b in range(half):
            los = [tab[b] for tab in self._tables]
            his = [tab[b + half] for tab in self._tables]
            diffs = [(h - l) % p for l, h in zip(los, his)]
            # t = 0 term is the product of the lows; each t adds one diff.
            cur = list(los)
            for t in range(self.degree + 1):
                term = 1
                for c in cur:
                    term = (term * c) % p
                evals[t] = (evals[t] + term) % p
                if t < self.degree:
                    cur = [(c + d) % p for c, d in zip(cur, diffs)]
        return evals

    def fold(self, r: int) -> None:
        """Bind this round's variable to the challenge ``r``."""
        if self._round >= self.num_vars:
            raise SumcheckError("sum-check already complete")
        self._tables = _kernels.fold_product_tables(self.field, self._tables, r)
        self._round += 1

    def round(self, r: int) -> List[int]:
        """Convenience: emit the round polynomial, then fold at ``r``."""
        evals = self.round_polynomial()
        self.fold(r)
        return evals

    def final_factor_values(self) -> List[int]:
        """Each factor's evaluation at the bound point (after all rounds)."""
        if self._round != self.num_vars:
            raise SumcheckError(
                f"{self.rounds_remaining} rounds remaining; cannot finalize"
            )
        # int() unwraps numpy scalars from array state (see fold_table).
        return [int(tab[0]) for tab in self._tables]

    def final_value(self) -> int:
        p = self.field.modulus
        out = 1
        for v in self.final_factor_values():
            out = (out * v) % p
        return out


def evaluation_point(randoms: Sequence[int]) -> List[int]:
    """Map Algorithm 1's challenge order to a point for ``evaluate``.

    Round ``i`` binds the most-significant live variable, i.e. ``x_{n−i+1}``
    gets ``r_i``; in (x1, …, xn) coordinate order the bound point is the
    challenges reversed.
    """
    return list(reversed(list(randoms)))
