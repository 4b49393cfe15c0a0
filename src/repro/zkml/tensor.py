"""Fixed-point quantized tensors for verifiable inference.

ZKP circuits work over finite fields, so the machine-learning engine
quantizes activations and weights to integers with a global power-of-two
scale (the approach of zkCNN/ZENO).  A :class:`QuantizedTensor` carries
``values ≈ real · 2^frac_bits`` as ``int64`` and converts losslessly into
field elements (negatives map to ``p − |v|``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..errors import ZkmlError
from ..field.prime_field import PrimeField

DEFAULT_FRAC_BITS = 8


@dataclass
class QuantizedTensor:
    """An integer tensor with an implicit 2^-frac_bits scale."""

    values: np.ndarray  # int64
    frac_bits: int = DEFAULT_FRAC_BITS

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.int64)
        if self.frac_bits < 0:
            raise ZkmlError("frac_bits must be non-negative")

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_float(
        cls, values: np.ndarray, frac_bits: int = DEFAULT_FRAC_BITS
    ) -> "QuantizedTensor":
        scaled = np.rint(np.asarray(values, dtype=np.float64) * (1 << frac_bits))
        return cls(values=scaled.astype(np.int64), frac_bits=frac_bits)

    @classmethod
    def zeros(
        cls, shape: Tuple[int, ...], frac_bits: int = DEFAULT_FRAC_BITS
    ) -> "QuantizedTensor":
        return cls(values=np.zeros(shape, dtype=np.int64), frac_bits=frac_bits)

    # -- views ---------------------------------------------------------------

    @property
    def shape(self) -> Tuple[int, ...]:
        return tuple(self.values.shape)

    @property
    def size(self) -> int:
        return int(self.values.size)

    def to_float(self) -> np.ndarray:
        return self.values.astype(np.float64) / (1 << self.frac_bits)

    def to_field(self, field: PrimeField) -> List[int]:
        """Map signed integers into GF(p) canonically."""
        p = field.modulus
        return [int(v) % p for v in self.values.reshape(-1)]

    # -- arithmetic helpers -----------------------------------------------------

    def rescale(self) -> "QuantizedTensor":
        """Divide by 2^frac_bits (after a multiply doubled the scale).

        Uses round-half-away truncation toward zero, matching what the
        rescaling gates in the circuit implement.
        """
        shift = self.frac_bits
        vals = self.values
        rescaled = np.where(
            vals >= 0, vals >> shift, -((-vals) >> shift)
        )
        return QuantizedTensor(values=rescaled, frac_bits=self.frac_bits)

    def __repr__(self) -> str:
        return f"QuantizedTensor(shape={self.shape}, frac_bits={self.frac_bits})"
