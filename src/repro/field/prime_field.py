"""Prime-field arithmetic over arbitrary moduli.

Two layers are provided:

* :class:`PrimeField` — the field object.  It carries the modulus and
  offers *raw-int* operations (``add``, ``mul``, ``inv``, …) that take and
  return plain Python ints already reduced mod p.  Hot loops (the encoder,
  sum-check table updates) use this layer to avoid per-element object
  overhead.
* :class:`FieldElement` — a thin immutable wrapper with operator
  overloading for readable protocol code and examples.

Elements compare equal only within the same field; mixing fields raises
:class:`~repro.errors.FieldMismatchError` rather than silently coercing.
"""

from __future__ import annotations

import random
from typing import Iterable, List, Optional, Sequence, Union

import numpy as np

from ..errors import FieldError, FieldMismatchError, NonInvertibleError
from ..kernels import field_kernels as _kernels
from .fast61 import to_ints
from .primes import MERSENNE61, is_probable_prime

IntoField = Union[int, "FieldElement"]


class PrimeField:
    """The finite field GF(p) for a prime modulus ``p``.

    Instances are lightweight and hashable; two ``PrimeField`` objects with
    the same modulus behave identically and compare equal.

    >>> F = PrimeField(97)
    >>> (F(50) + F(60)).value
    13
    >>> F.inv(3) * 3 % 97
    1
    """

    __slots__ = ("modulus", "name", "_byte_length")

    def __init__(self, modulus: int, name: Optional[str] = None, *, check: bool = True):
        if modulus < 2:
            raise FieldError(f"modulus must be >= 2, got {modulus}")
        if check and not is_probable_prime(modulus):
            raise FieldError(f"modulus {modulus} is not prime")
        self.modulus = modulus
        self.name = name or f"GF({modulus})"
        self._byte_length = (modulus.bit_length() + 7) // 8

    # -- identity / hashing ------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.modulus == self.modulus

    def __hash__(self) -> int:
        return hash(("PrimeField", self.modulus))

    def __repr__(self) -> str:
        return f"PrimeField({self.name})"

    # -- element construction ----------------------------------------------

    def __call__(self, value: IntoField) -> "FieldElement":
        """Wrap ``value`` (int or element) as an element of this field."""
        if isinstance(value, FieldElement):
            if value.field != self:
                raise FieldMismatchError(self, value.field)
            return value
        return FieldElement(value % self.modulus, self)

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(0, self)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(1, self)

    def elements(self, values: Iterable[int]) -> List["FieldElement"]:
        """Wrap an iterable of ints as a list of elements."""
        p = self.modulus
        return [FieldElement(v % p, self) for v in values]

    # -- raw-int arithmetic (hot path) --------------------------------------

    def reduce(self, value: int) -> int:
        return value % self.modulus

    def add(self, a: int, b: int) -> int:
        s = a + b
        p = self.modulus
        return s - p if s >= p else s

    def sub(self, a: int, b: int) -> int:
        d = a - b
        return d + self.modulus if d < 0 else d

    def neg(self, a: int) -> int:
        return self.modulus - a if a else 0

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.modulus

    def exp(self, a: int, e: int) -> int:
        return pow(a, e, self.modulus)

    def inv(self, a: int) -> int:
        """Multiplicative inverse via Fermat's little theorem."""
        a %= self.modulus
        if a == 0:
            raise NonInvertibleError(f"0 has no inverse in {self.name}")
        return pow(a, self.modulus - 2, self.modulus)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def batch_inv(self, values: Sequence[int]) -> List[int]:
        """Montgomery batch inversion: one field inversion for n elements.

        Zeros are passed through as zeros (matching the common convention in
        proof-system codebases where vanishing denominators are filtered by
        the caller).
        """
        p = self.modulus
        prefix: List[int] = []
        acc = 1
        for v in values:
            prefix.append(acc)
            if v:
                acc = (acc * v) % p
        acc_inv = self.inv(acc) if acc != 1 or any(values) else 1
        out = [0] * len(values)
        for i in range(len(values) - 1, -1, -1):
            v = values[i]
            if v:
                out[i] = (acc_inv * prefix[i]) % p
                acc_inv = (acc_inv * v) % p
        return out

    # -- vector helpers (raw ints) ------------------------------------------

    # ``to_ints``: a ``uint64`` array iterates as NumPy scalars, whose
    # products wrap mod 2^64 silently; these helpers are big-int code.

    def vec_add(self, xs: Sequence[int], ys: Sequence[int]) -> List[int]:
        p = self.modulus
        return [(x + y) % p for x, y in zip(to_ints(xs), to_ints(ys))]

    def vec_sub(self, xs: Sequence[int], ys: Sequence[int]) -> List[int]:
        p = self.modulus
        return [(x - y) % p for x, y in zip(to_ints(xs), to_ints(ys))]

    def vec_scale(self, c: int, xs: Sequence[int]) -> List[int]:
        p = self.modulus
        return [(c * x) % p for x in to_ints(xs)]

    def dot(self, xs: Sequence[int], ys: Sequence[int]) -> int:
        if len(xs) != len(ys):
            raise FieldError(f"dot length mismatch: {len(xs)} vs {len(ys)}")
        p = self.modulus
        return sum(x * y for x, y in zip(to_ints(xs), to_ints(ys))) % p

    # -- randomness ----------------------------------------------------------

    def rand(self, rng: Optional[random.Random] = None) -> int:
        rng = rng or random
        return rng.randrange(self.modulus)

    def rand_nonzero(self, rng: Optional[random.Random] = None) -> int:
        rng = rng or random
        return rng.randrange(1, self.modulus)

    def rand_vector(self, n: int, rng: Optional[random.Random] = None) -> List[int]:
        rng = rng or random
        p = self.modulus
        return [rng.randrange(p) for _ in range(n)]

    # -- serialization --------------------------------------------------------

    @property
    def byte_length(self) -> int:
        """Bytes needed to serialize one canonical element."""
        return self._byte_length

    def to_bytes(self, a: int) -> bytes:
        return int(a % self.modulus).to_bytes(self._byte_length, "little")

    def from_bytes(self, data: bytes) -> int:
        """Interpret bytes (little-endian) as an element, reducing mod p."""
        return int.from_bytes(data, "little") % self.modulus

    def vector_to_bytes(self, values: Sequence[int]) -> bytes:
        """Fixed-width little-endian bytes of every element, concatenated.

        A ``uint64`` array packs with one ``tobytes()`` (byte-for-byte the
        per-element encoding of canonical residues, checked by
        ``pack_vector``); the short lists of round polynomials are
        quicker element by element.
        """
        if isinstance(values, np.ndarray):
            return _kernels.pack_vector(self, values)
        return b"".join(self.to_bytes(v) for v in values)


class FieldElement:
    """An immutable element of a :class:`PrimeField`.

    Supports ``+ - * / **`` against other elements of the same field or
    plain ints (which are reduced into the field first).
    """

    __slots__ = ("value", "field")

    def __init__(self, value: int, field: PrimeField):
        object.__setattr__(self, "value", value % field.modulus)
        object.__setattr__(self, "field", field)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("FieldElement is immutable")

    # -- coercion -------------------------------------------------------------

    def _coerce(self, other: IntoField) -> int:
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise FieldMismatchError(self.field, other.field)
            return other.value
        if isinstance(other, int):
            return other % self.field.modulus
        return NotImplemented  # type: ignore[return-value]

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other: IntoField) -> "FieldElement":
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement(self.field.add(self.value, v), self.field)

    __radd__ = __add__

    def __sub__(self, other: IntoField) -> "FieldElement":
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement(self.field.sub(self.value, v), self.field)

    def __rsub__(self, other: IntoField) -> "FieldElement":
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement(self.field.sub(v, self.value), self.field)

    def __mul__(self, other: IntoField) -> "FieldElement":
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement(self.field.mul(self.value, v), self.field)

    __rmul__ = __mul__

    def __truediv__(self, other: IntoField) -> "FieldElement":
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement(self.field.div(self.value, v), self.field)

    def __rtruediv__(self, other: IntoField) -> "FieldElement":
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement(self.field.div(v, self.value), self.field)

    def __pow__(self, exponent: int) -> "FieldElement":
        return FieldElement(self.field.exp(self.value, exponent), self.field)

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.field.neg(self.value), self.field)

    def inverse(self) -> "FieldElement":
        return FieldElement(self.field.inv(self.value), self.field)

    # -- comparison / hashing ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FieldElement):
            return self.field == other.field and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.field.modulus
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.field.modulus, self.value))

    def __bool__(self) -> bool:
        return self.value != 0

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"{self.value}:{self.field.name}"

    # -- serialization ---------------------------------------------------------

    def to_bytes(self) -> bytes:
        return self.field.to_bytes(self.value)


#: The library's default field (fast Python-int arithmetic, 61-bit prime).
DEFAULT_FIELD = PrimeField(MERSENNE61, name="M61", check=False)
