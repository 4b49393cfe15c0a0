"""R1CS gadget library: the standard building blocks over CircuitBuilder.

The verifiable-ML gate accounting charges ``RESCALE_BITS`` multiplication
gates per activation for range proofs and comparisons (paper §5's cited
zkCNN/ZENO compilation).  This module implements those gadgets for real:

* :func:`to_bits` — constrained binary decomposition (the range proof:
  n boolean constraints + 1 recomposition).
* :func:`sign_bit` / :func:`relu` — the signed non-linearity the CNN
  circuits need, built on an offset decomposition.

Signed convention: a wire "is" a signed integer ``v`` with
``|v| < 2^{bits-1}``, embedded in the field as ``v mod p``.  Gadgets that
need signs shift by ``2^{bits-1}`` first, so the range proof also enforces
the magnitude bound — exactly why each activation costs ~``bits`` gates.
"""

from __future__ import annotations

from typing import List, Tuple

from ..errors import CircuitError
from .circuit import CircuitBuilder, Wire


def to_bits(cb: CircuitBuilder, wire: Wire, bits: int) -> List[Wire]:
    """Decompose ``wire`` into ``bits`` constrained boolean wires (LSB
    first) and enforce ``Σ b_i·2^i == wire``.

    The witness value must already lie in ``[0, 2^bits)`` — otherwise the
    builder raises (an honest prover would have no valid assignment).
    Cost: ``bits`` multiplication gates (the booleanity checks).
    """
    if bits < 1:
        raise CircuitError("need at least one bit")
    value = cb.wire_value(wire)
    if value >= (1 << bits):
        raise CircuitError(
            f"value {value} does not fit in {bits} bits (range violation)"
        )
    bit_wires: List[Wire] = []
    for i in range(bits):
        b = cb.private_input((value >> i) & 1)
        cb.assert_boolean(b)
        bit_wires.append(b)
    recomposed = cb.linear_combination(
        [(b, 1 << i) for i, b in enumerate(bit_wires)]
    )
    cb.assert_equal(recomposed, wire)
    return bit_wires


def _signed_value(cb: CircuitBuilder, wire: Wire, bits: int) -> int:
    """Interpret a wire's field value as a signed ``bits``-bit integer."""
    p = cb.field.modulus
    value = cb.wire_value(wire)
    signed = value if value <= p // 2 else value - p
    if not -(1 << (bits - 1)) <= signed < (1 << (bits - 1)):
        raise CircuitError(
            f"witness value {signed} outside signed {bits}-bit range"
        )
    return signed


def sign_bit(cb: CircuitBuilder, wire: Wire, bits: int) -> Tuple[Wire, List[Wire]]:
    """Return (non_negative, bit_wires) for a signed ``bits``-bit wire.

    Shifts by ``2^{bits-1}`` so the decomposition target is unsigned; the
    MSB of the shifted value is 1 iff the original is >= 0.  Cost:
    ``bits + 1`` gates — this is the per-activation cost the zkml layer
    model charges as ``RESCALE_BITS``.
    """
    _signed_value(cb, wire, bits)  # range-validate the witness
    offset = 1 << (bits - 1)
    shifted = cb.add_constant(wire, offset)
    bit_wires = to_bits(cb, shifted, bits)
    return bit_wires[-1], bit_wires


def relu(cb: CircuitBuilder, wire: Wire, bits: int) -> Wire:
    """max(wire, 0) for a signed ``bits``-bit wire.

    ``relu(x) = non_negative(x) · x`` — one gate on top of the sign
    extraction.
    """
    non_negative, _ = sign_bit(cb, wire, bits)
    return cb.mul(non_negative, wire)
