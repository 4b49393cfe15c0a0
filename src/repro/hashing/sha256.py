"""From-scratch SHA-256 (FIPS 180-4).

The paper's Merkle trees hash 512-bit blocks into 256-bit digests with
SHA-256 (§2.2) and §3.1 discusses keeping the sixteen 32-bit message chunks
in GPU registers.  We implement the full algorithm in pure Python — the
compression function, padding, and streaming interface — and cross-check it
against ``hashlib`` in the test suite.

It is the reference twin of the ``hashlib``-backed ``sha256-hw`` hasher:
the Merkle layout (:mod:`repro.hashing.hashers`) only ever needs full,
padded SHA-256 digests, so both hashers compute the same bytes.
"""

from __future__ import annotations

import struct
from typing import List

from ..errors import HashError

# fmt: off
_K = (
    0x428A2F98, 0x71374491, 0xB5C0FBCF, 0xE9B5DBA5, 0x3956C25B, 0x59F111F1,
    0x923F82A4, 0xAB1C5ED5, 0xD807AA98, 0x12835B01, 0x243185BE, 0x550C7DC3,
    0x72BE5D74, 0x80DEB1FE, 0x9BDC06A7, 0xC19BF174, 0xE49B69C1, 0xEFBE4786,
    0x0FC19DC6, 0x240CA1CC, 0x2DE92C6F, 0x4A7484AA, 0x5CB0A9DC, 0x76F988DA,
    0x983E5152, 0xA831C66D, 0xB00327C8, 0xBF597FC7, 0xC6E00BF3, 0xD5A79147,
    0x06CA6351, 0x14292967, 0x27B70A85, 0x2E1B2138, 0x4D2C6DFC, 0x53380D13,
    0x650A7354, 0x766A0ABB, 0x81C2C92E, 0x92722C85, 0xA2BFE8A1, 0xA81A664B,
    0xC24B8B70, 0xC76C51A3, 0xD192E819, 0xD6990624, 0xF40E3585, 0x106AA070,
    0x19A4C116, 0x1E376C08, 0x2748774C, 0x34B0BCB5, 0x391C0CB3, 0x4ED8AA4A,
    0x5B9CCA4F, 0x682E6FF3, 0x748F82EE, 0x78A5636F, 0x84C87814, 0x8CC70208,
    0x90BEFFFA, 0xA4506CEB, 0xBEF9A3F7, 0xC67178F2,
)
# fmt: on

_H0 = (
    0x6A09E667,
    0xBB67AE85,
    0x3C6EF372,
    0xA54FF53A,
    0x510E527F,
    0x9B05688C,
    0x1F83D9AB,
    0x5BE0CD19,
)

_MASK = 0xFFFFFFFF


def _rotr(x: int, n: int) -> int:
    return ((x >> n) | (x << (32 - n))) & _MASK


def _compress(state: tuple, block: bytes) -> tuple:
    """One SHA-256 compression of a 64-byte block into the running state."""
    w: List[int] = list(struct.unpack(">16I", block))
    for i in range(16, 64):
        s0 = _rotr(w[i - 15], 7) ^ _rotr(w[i - 15], 18) ^ (w[i - 15] >> 3)
        s1 = _rotr(w[i - 2], 17) ^ _rotr(w[i - 2], 19) ^ (w[i - 2] >> 10)
        w.append((w[i - 16] + s0 + w[i - 7] + s1) & _MASK)

    a, b, c, d, e, f, g, h = state
    for i in range(64):
        s1 = _rotr(e, 6) ^ _rotr(e, 11) ^ _rotr(e, 25)
        ch = (e & f) ^ (~e & g)
        temp1 = (h + s1 + ch + _K[i] + w[i]) & _MASK
        s0 = _rotr(a, 2) ^ _rotr(a, 13) ^ _rotr(a, 22)
        maj = (a & b) ^ (a & c) ^ (b & c)
        temp2 = (s0 + maj) & _MASK
        h = g
        g = f
        f = e
        e = (d + temp1) & _MASK
        d = c
        c = b
        b = a
        a = (temp1 + temp2) & _MASK

    return (
        (state[0] + a) & _MASK,
        (state[1] + b) & _MASK,
        (state[2] + c) & _MASK,
        (state[3] + d) & _MASK,
        (state[4] + e) & _MASK,
        (state[5] + f) & _MASK,
        (state[6] + g) & _MASK,
        (state[7] + h) & _MASK,
    )


def _pad(message_length: int) -> bytes:
    """FIPS 180-4 padding for a message of ``message_length`` bytes."""
    pad_len = (55 - message_length) % 64
    return b"\x80" + b"\x00" * pad_len + struct.pack(">Q", message_length * 8)


class Sha256:
    """Streaming SHA-256 with the standard ``update``/``digest`` interface.

    >>> Sha256(b"abc").hexdigest()
    'ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad'
    """

    block_size = 64
    digest_size = 32

    def __init__(self, data: bytes = b""):
        self._state = _H0
        self._buffer = b""
        self._length = 0
        if data:
            self.update(data)

    def update(self, data: bytes) -> "Sha256":
        if not isinstance(data, (bytes, bytearray, memoryview)):
            raise HashError(f"SHA-256 input must be bytes, got {type(data).__name__}")
        self._length += len(data)
        buf = self._buffer + bytes(data)
        offset = 0
        while offset + 64 <= len(buf):
            self._state = _compress(self._state, buf[offset : offset + 64])
            offset += 64
        self._buffer = buf[offset:]
        return self

    def digest(self) -> bytes:
        state = self._state
        tail = self._buffer + _pad(self._length)
        for offset in range(0, len(tail), 64):
            state = _compress(state, tail[offset : offset + 64])
        return struct.pack(">8I", *state)

    def hexdigest(self) -> str:
        return self.digest().hex()

    def copy(self) -> "Sha256":
        clone = Sha256()
        clone._state = self._state
        clone._buffer = self._buffer
        clone._length = self._length
        return clone


def sha256(data: bytes) -> bytes:
    """One-shot SHA-256 digest of ``data``."""
    return Sha256(data).digest()


#: Number of compression rounds — used by the GPU cost model (§3.1).
SHA256_ROUNDS = 64
