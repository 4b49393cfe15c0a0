"""Prime-field arithmetic substrate (system S1 in DESIGN.md).

Public surface:

* :class:`PrimeField` / :class:`FieldElement` — arbitrary-prime arithmetic.
* :data:`DEFAULT_FIELD` — Mersenne-61, the library default.
* Named primes in :mod:`repro.field.primes`.
* Mersenne-61 numpy fast path in :mod:`repro.field.fast61`.
* :class:`Polynomial`, Lagrange interpolation helpers.
* :class:`MultilinearPolynomial` and ``eq`` tables.
"""

from .lagrange import (
    barycentric_weights,
    evaluate_from_points,
    lagrange_interpolate,
)
from .multilinear import MultilinearPolynomial, eq_eval, eq_table
from .polynomial import Polynomial
from .prime_field import DEFAULT_FIELD, FieldElement, PrimeField
from .primes import (
    BLS12_381_SCALAR,
    BN254_SCALAR,
    GOLDILOCKS,
    MERSENNE31,
    MERSENNE61,
    NAMED_PRIMES,
    is_probable_prime,
)

__all__ = [
    "PrimeField",
    "FieldElement",
    "DEFAULT_FIELD",
    "Polynomial",
    "MultilinearPolynomial",
    "eq_table",
    "eq_eval",
    "lagrange_interpolate",
    "evaluate_from_points",
    "barycentric_weights",
    "MERSENNE31",
    "MERSENNE61",
    "GOLDILOCKS",
    "BN254_SCALAR",
    "BLS12_381_SCALAR",
    "NAMED_PRIMES",
    "is_probable_prime",
]
