"""Lagrange interpolation utilities.

The paper's prover encodes intermediate results from the proved function
"into polynomials through Lagrange interpolation" (§4).  The sum-check
verifier also interpolates round polynomials from their evaluations at
``0, 1, …, d``.
"""

from __future__ import annotations

from typing import List, Sequence

from ..errors import FieldError
from .polynomial import Polynomial
from .prime_field import PrimeField


def lagrange_interpolate(
    field: PrimeField, xs: Sequence[int], ys: Sequence[int]
) -> Polynomial:
    """Return the unique polynomial of degree < len(xs) through the points.

    ``xs`` must be pairwise distinct mod p.

    >>> F = PrimeField(97)
    >>> poly = lagrange_interpolate(F, [0, 1, 2], [1, 2, 5])  # 1 + x^2... check
    >>> [poly(x) for x in (0, 1, 2)]
    [1, 2, 5]
    """
    if len(xs) != len(ys):
        raise FieldError("interpolation needs equally many xs and ys")
    p = field.modulus
    xs = [x % p for x in xs]
    if len(set(xs)) != len(xs):
        raise FieldError("interpolation points must be distinct")
    result = Polynomial.zero(field)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        if yi % p == 0:
            continue
        numer = Polynomial.one(field)
        denom = 1
        for j, xj in enumerate(xs):
            if j == i:
                continue
            numer = numer * Polynomial(field, [(-xj) % p, 1])
            denom = (denom * (xi - xj)) % p
        coeff = (yi * field.inv(denom)) % p
        result = result + numer.scale(coeff)
    return result


def evaluate_from_points(
    field: PrimeField, xs: Sequence[int], ys: Sequence[int], x: int
) -> int:
    """Evaluate the interpolating polynomial at ``x`` without building it.

    Uses the barycentric-style direct formula; O(d^2) but allocation-free,
    which is what the sum-check verifier wants for tiny degrees.
    """
    if len(xs) != len(ys):
        raise FieldError("evaluation needs equally many xs and ys")
    p = field.modulus
    x %= p
    total = 0
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        num = 1
        den = 1
        for j, xj in enumerate(xs):
            if j == i:
                continue
            num = (num * (x - xj)) % p
            den = (den * (xi - xj)) % p
        total = (total + yi * num * field.inv(den)) % p
    return total


def barycentric_weights(field: PrimeField, xs: Sequence[int]) -> List[int]:
    """w_i = 1 / ∏_{j≠i} (x_i − x_j), the classic barycentric weights."""
    p = field.modulus
    denoms = []
    for i, xi in enumerate(xs):
        d = 1
        for j, xj in enumerate(xs):
            if j != i:
                d = (d * (xi - xj)) % p
        denoms.append(d)
    return field.batch_inv(denoms)
