"""Dense univariate polynomials over a prime field.

Used by the sum-check verifier (round polynomials) and by Lagrange
interpolation of the prover's intermediate results (§4: "encoded into
polynomials through Lagrange interpolation").

Coefficients are stored low-degree first as raw ints reduced mod p.
"""

from __future__ import annotations

from typing import Optional, Sequence

import random

from ..errors import FieldError
from .prime_field import PrimeField


class Polynomial:
    """A univariate polynomial ``c0 + c1·x + … + cd·x^d`` over GF(p)."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: PrimeField, coeffs: Sequence[int]):
        p = field.modulus
        trimmed = [c % p for c in coeffs]
        while len(trimmed) > 1 and trimmed[-1] == 0:
            trimmed.pop()
        if not trimmed:
            trimmed = [0]
        self.field = field
        self.coeffs = trimmed

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, field: PrimeField) -> "Polynomial":
        return cls(field, [0])

    @classmethod
    def one(cls, field: PrimeField) -> "Polynomial":
        return cls(field, [1])

    @classmethod
    def random(
        cls,
        field: PrimeField,
        degree: int,
        rng: Optional[random.Random] = None,
    ) -> "Polynomial":
        rng = rng or random
        coeffs = field.rand_vector(degree + 1, rng)
        if coeffs[-1] == 0:
            coeffs[-1] = 1
        return cls(field, coeffs)

    # -- basic properties -----------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree with the convention deg(0) = 0."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return self.coeffs == [0]

    # -- arithmetic -------------------------------------------------------------

    def _check(self, other: "Polynomial") -> None:
        if self.field != other.field:
            raise FieldError("polynomials over different fields")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        p = self.field.modulus
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = (out[i] + c) % p
        return Polynomial(self.field, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        p = self.field.modulus
        n = max(len(self.coeffs), len(other.coeffs))
        out = [0] * n
        for i in range(n):
            a = self.coeffs[i] if i < len(self.coeffs) else 0
            b = other.coeffs[i] if i < len(other.coeffs) else 0
            out[i] = (a - b) % p
        return Polynomial(self.field, out)

    def __neg__(self) -> "Polynomial":
        p = self.field.modulus
        return Polynomial(self.field, [(-c) % p for c in self.coeffs])

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, int):
            return self.scale(other)
        self._check(other)
        p = self.field.modulus
        a, b = self.coeffs, other.coeffs
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
        return Polynomial(self.field, out)

    __rmul__ = __mul__

    def scale(self, c: int) -> "Polynomial":
        p = self.field.modulus
        c %= p
        return Polynomial(self.field, [(c * x) % p for x in self.coeffs])

    # -- evaluation -----------------------------------------------------------

    def __call__(self, x: int) -> int:
        """Horner evaluation at a raw-int point; returns a raw int."""
        p = self.field.modulus
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % p
        return acc

    # -- calculus-free utilities -------------------------------------------------

    def shift(self, k: int) -> "Polynomial":
        """Multiply by x^k."""
        return Polynomial(self.field, [0] * k + self.coeffs)

    # -- comparison / repr -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.field.modulus, tuple(self.coeffs)))

    def __repr__(self) -> str:
        terms = [f"{c}*x^{i}" for i, c in enumerate(self.coeffs) if c]
        return "Poly(" + (" + ".join(terms) or "0") + f") over {self.field.name}"
