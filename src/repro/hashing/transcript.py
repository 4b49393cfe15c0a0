"""Fiat–Shamir transcript.

The paper's system derives the verifier's random numbers from pseudorandom
generators seeded by "either the final Merkle root or the output from other
sum-check modules" (§4).  This transcript realizes that: both parties absorb
the same protocol messages and squeeze identical field challenges, making
the interactive sum-check non-interactive.

The construction is the standard hash-chain sponge: an internal 32-byte
state is updated as ``state = SHA-256(state ‖ tag ‖ message)`` on every
absorb, and each squeeze is one ``SHAKE-256(state ‖ tag ‖ counter ‖ n)``
read, long enough for the whole challenge vector: ``byte_length + 16``
bytes per field element (reduction bias < 2^-128), 8 per index.
"""

from __future__ import annotations

import hashlib
import struct
from typing import List, Sequence

from ..errors import HashError
from ..field.prime_field import PrimeField


class Transcript:
    """A deterministic Fiat–Shamir transcript.

    >>> from repro.field import DEFAULT_FIELD
    >>> t1 = Transcript(b"demo")
    >>> t2 = Transcript(b"demo")
    >>> t1.absorb_bytes(b"root", b"\\x01" * 32)
    >>> t2.absorb_bytes(b"root", b"\\x01" * 32)
    >>> t1.challenge_field(b"r", DEFAULT_FIELD) == t2.challenge_field(b"r", DEFAULT_FIELD)
    True
    """

    __slots__ = ("_state", "_counter")

    def __init__(self, label: bytes):
        if not isinstance(label, bytes):
            raise HashError("transcript label must be bytes")
        self._state = hashlib.sha256(b"repro/transcript/v2:" + label).digest()
        self._counter = 0

    # -- absorbing ---------------------------------------------------------

    def absorb_bytes(self, tag: bytes, data: bytes) -> None:
        """Mix tagged bytes into the state (domain-separated by length)."""
        header = struct.pack("<I", len(tag)) + tag + struct.pack("<Q", len(data))
        self._state = hashlib.sha256(self._state + header + data).digest()
        self._counter = 0

    def absorb_field(self, tag: bytes, field: PrimeField, value: int) -> None:
        self.absorb_bytes(tag, field.to_bytes(value))

    def absorb_field_vector(
        self, tag: bytes, field: PrimeField, values: Sequence[int]
    ) -> None:
        self.absorb_bytes(tag, field.vector_to_bytes(values))

    def absorb_int(self, tag: bytes, value: int) -> None:
        self.absorb_bytes(tag, struct.pack("<Q", value))

    # -- squeezing -----------------------------------------------------------

    def challenge_bytes(self, tag: bytes, n: int = 32) -> bytes:
        """Derive ``n`` pseudorandom bytes bound to everything absorbed."""
        out = hashlib.shake_256(
            self._state + tag + struct.pack("<QQ", self._counter, n)
        ).digest(n)
        self._counter += 1
        return out

    def challenge_field(self, tag: bytes, field: PrimeField) -> int:
        """Derive one field challenge (raw int in [0, p))."""
        return self.challenge_field_vector(tag, field, 1)[0]

    def challenge_field_vector(
        self, tag: bytes, field: PrimeField, n: int
    ) -> List[int]:
        """Derive ``n`` field challenges from one squeeze."""
        # 16 bytes beyond the modulus size keep the reduction bias < 2^-128.
        width = field.byte_length + 16
        return _reduce(self.challenge_bytes(tag, n * width), width, field.modulus)

    def challenge_indices(self, tag: bytes, bound: int, n: int) -> List[int]:
        """Derive ``n`` indices in ``[0, bound)`` (for Merkle spot checks)."""
        if bound <= 0:
            raise HashError("index bound must be positive")
        return _reduce(self.challenge_bytes(tag, 8 * n), 8, bound)

    def fork(self, label: bytes) -> "Transcript":
        """Create an independent child transcript (for parallel sub-proofs)."""
        child = Transcript(label)
        child.absorb_bytes(b"fork-parent", self._state)
        return child


def _reduce(raw: bytes, width: int, bound: int) -> List[int]:
    """Little-endian ``width``-byte chunks of ``raw``, each mod ``bound``."""
    from_bytes = int.from_bytes
    return [
        from_bytes(raw[i : i + width], "little") % bound
        for i in range(0, len(raw), width)
    ]
