"""Hashing substrate (system S2 in DESIGN.md).

* From-scratch SHA-256 (:mod:`repro.hashing.sha256`), the reference twin.
* A hasher registry (:mod:`repro.hashing.hashers`) with ``sha256`` and
  ``sha256-hw`` (hashlib-backed, digest-identical) backends over the
  domain-separated Merkle layout (leaf ``0x00 ‖ data``, node
  ``0x01 ‖ left ‖ right``).
* A Fiat–Shamir :class:`Transcript` (SHA-256 absorb, SHAKE-256 squeeze).
"""

from .hashers import DIGEST_SIZE, Hasher, get_hasher
from .sha256 import SHA256_ROUNDS, Sha256
from .transcript import Transcript

__all__ = [
    "Sha256",
    "SHA256_ROUNDS",
    "Hasher",
    "get_hasher",
    "DIGEST_SIZE",
    "Transcript",
]
