"""Multilinear polynomials represented by their Boolean-hypercube tables.

A multilinear polynomial ``p(x1, …, xn)`` is determined by its evaluations
over ``{0,1}^n``; Algorithm 1 of the paper takes exactly this table as
input, indexed by ``b = Σ b_i 2^{i-1}`` (x1 is the *least significant* bit,
matching the paper's indexing).

This module supplies the table representation, multilinear-extension
evaluation at arbitrary field points, the ``eq`` equality polynomial, and
the per-variable folding step used by both the sum-check prover and the
tensor-product openings of the Brakedown commitment.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Sequence

from ..errors import FieldError
from ..kernels import field_kernels as _kernels
from .fast61 import to_ints
from .prime_field import PrimeField


def _require_power_of_two(n: int) -> int:
    if n <= 0 or n & (n - 1):
        raise FieldError(f"table length must be a power of two, got {n}")
    return n.bit_length() - 1


class MultilinearPolynomial:
    """A multilinear polynomial stored as its ``2^n`` hypercube evaluations.

    ``evals[b]`` is ``p(b1, …, bn)`` with ``b = Σ b_i 2^{i-1}`` — the same
    layout as Algorithm 1 in the paper.
    """

    __slots__ = ("field", "evals", "num_vars")

    def __init__(self, field: PrimeField, evals: Sequence[int]):
        self.num_vars = _require_power_of_two(len(evals))
        p = field.modulus
        self.field = field
        self.evals = [e % p for e in to_ints(evals)]

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_function(
        cls, field: PrimeField, num_vars: int, fn: Callable[..., int]
    ) -> "MultilinearPolynomial":
        """Tabulate ``fn(b1, …, bn)`` over the hypercube."""
        evals = []
        for b in range(1 << num_vars):
            bits = [(b >> i) & 1 for i in range(num_vars)]
            evals.append(fn(*bits))
        return cls(field, evals)

    @classmethod
    def random(
        cls,
        field: PrimeField,
        num_vars: int,
        rng: Optional[random.Random] = None,
    ) -> "MultilinearPolynomial":
        return cls(field, field.rand_vector(1 << num_vars, rng))

    @classmethod
    def zero(cls, field: PrimeField, num_vars: int) -> "MultilinearPolynomial":
        return cls(field, [0] * (1 << num_vars))

    # -- queries -----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.evals)

    def hypercube_sum(self) -> int:
        """Σ over {0,1}^n — the value H that sum-check proves."""
        return sum(self.evals) % self.field.modulus

    def evaluate(self, point: Sequence[int]) -> int:
        """Evaluate the multilinear extension at an arbitrary field point.

        Folds one variable at a time: O(2^n) multiplications.  The table
        is LSB-first (x1 is bit 0), so the fold kernel pairs the two
        *halves* (binding the most-significant variable) and consumes the
        point from its last coordinate — never materializing per-index
        bit decompositions.
        """
        if len(point) != self.num_vars:
            raise FieldError(
                f"point has {len(point)} coordinates, polynomial has "
                f"{self.num_vars} variables"
            )
        return _kernels.evaluate_table(self.field, self.evals, point)

    def fix_last_variable(self, r: int) -> "MultilinearPolynomial":
        """Return p(x1, …, x_{n−1}, r) — the table fold of Algorithm 1 line 6.

        Line 6 of the paper's Algorithm 1 computes
        ``A[b] = (1−r)·A[b] + r·A[b + 2^{n−i}]``: pairing entry ``b`` with
        the entry ``2^{n−i}`` ahead flips the *most significant* live bit,
        so each round of the paper's prover binds the highest remaining
        variable.  This method is one such round.
        """
        half = len(self.evals) // 2
        if half == 0:
            raise FieldError("cannot fix a variable of a constant polynomial")
        folded = _kernels.fold_table(self.field, self.evals, r)
        if half > 1:
            return MultilinearPolynomial(self.field, folded)
        return _constant(self.field, folded[0])

    def fix_first_variable(self, r: int) -> "MultilinearPolynomial":
        """Return p(r, x2, …, xn): fold adjacent pairs (LSB variable)."""
        p = self.field.modulus
        r %= p
        half = len(self.evals) // 2
        if half == 0:
            raise FieldError("cannot fix a variable of a constant polynomial")
        folded = [
            (self.evals[2 * b] + r * (self.evals[2 * b + 1] - self.evals[2 * b])) % p
            for b in range(half)
        ]
        if half > 1:
            return MultilinearPolynomial(self.field, folded)
        return _constant(self.field, folded[0])

    # -- algebra --------------------------------------------------------------

    def __add__(self, other: "MultilinearPolynomial") -> "MultilinearPolynomial":
        self._check(other)
        p = self.field.modulus
        return MultilinearPolynomial(
            self.field, [(a + b) % p for a, b in zip(self.evals, other.evals)]
        )

    def __sub__(self, other: "MultilinearPolynomial") -> "MultilinearPolynomial":
        self._check(other)
        p = self.field.modulus
        return MultilinearPolynomial(
            self.field, [(a - b) % p for a, b in zip(self.evals, other.evals)]
        )

    def scale(self, c: int) -> "MultilinearPolynomial":
        p = self.field.modulus
        c %= p
        return MultilinearPolynomial(self.field, [(c * e) % p for e in self.evals])

    def pointwise_mul(self, other: "MultilinearPolynomial") -> List[int]:
        """Hadamard product of the two tables (NOT multilinear any more).

        Returned as a raw table: the sum-check prover for products consumes
        it directly.
        """
        self._check(other)
        p = self.field.modulus
        return [(a * b) % p for a, b in zip(self.evals, other.evals)]

    def _check(self, other: "MultilinearPolynomial") -> None:
        if self.field != other.field:
            raise FieldError("multilinear polynomials over different fields")
        if self.num_vars != other.num_vars:
            raise FieldError(
                f"variable-count mismatch: {self.num_vars} vs {other.num_vars}"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultilinearPolynomial):
            return NotImplemented
        return self.field == other.field and self.evals == other.evals

    def __hash__(self) -> int:
        return hash((self.field.modulus, tuple(self.evals)))

    def __repr__(self) -> str:
        return f"MultilinearPolynomial(n={self.num_vars}, field={self.field.name})"


class _ConstantMultilinear(MultilinearPolynomial):
    """Degenerate 0-variable polynomial (a single field constant)."""

    def __init__(self, field: PrimeField, value: int):
        # Bypass the power-of-two check: a constant has a 1-entry table.
        self.field = field  # type: ignore[misc]
        self.evals = [value % field.modulus]  # type: ignore[misc]
        self.num_vars = 0  # type: ignore[misc]


def _constant(field: PrimeField, value: int) -> MultilinearPolynomial:
    return _ConstantMultilinear(field, value)


def eq_table(field: PrimeField, point: Sequence[int]) -> List[int]:
    """Table of eq(point, b) for all b ∈ {0,1}^n.

    ``eq(r, b) = ∏_i (r_i·b_i + (1−r_i)(1−b_i))`` is the multilinear
    extension of equality; it is the workhorse of sum-check-based SNARKs
    (the paper's HyperPlonk/Libra-style protocols).

    Built iteratively in O(2^n) — the standard "expand one variable per
    round" construction, batched by the doubling kernel.  This is the
    big-int face of :func:`repro.kernels.field_kernels.eq_table`: always
    a list of Python ints, for protocol code that multiplies the entries
    (the prover's hot path takes the kernel's array directly).
    """
    return to_ints(_kernels.eq_table(field, point))


def eq_eval(field: PrimeField, xs: Sequence[int], ys: Sequence[int]) -> int:
    """Evaluate eq(xs, ys) directly for two arbitrary field points."""
    if len(xs) != len(ys):
        raise FieldError("eq_eval needs points of equal dimension")
    p = field.modulus
    acc = 1
    for x, y in zip(xs, ys):
        term = (x * y + (1 - x) * (1 - y)) % p
        acc = (acc * term) % p
    return acc
