"""Hashing substrate (system S2 in DESIGN.md).

* From-scratch SHA-256 (:mod:`repro.hashing.sha256`), the reference twin.
* A hasher registry (:mod:`repro.hashing.hashers`) with ``sha256`` and
  ``sha256-hw`` (hashlib-backed, digest-identical) backends over the
  domain-separated Merkle layout (leaf ``0x00 ‖ data``, node
  ``0x01 ‖ left ‖ right``).
* A Fiat–Shamir :class:`Transcript` (SHA-256 absorb, SHAKE-256 squeeze).
"""

from .hashers import DIGEST_SIZE, Hasher, available_hashers, get_hasher
from .mimc import (
    MimcPermutation,
    MimcSponge,
    default_rounds,
    derive_round_constants,
    mimc_circuit_encrypt,
    mimc_gate_count,
    mimc_merkle_root,
    power_is_permutation,
    select_alpha,
)
from .sha256 import SHA256_ROUNDS, Sha256, sha256
from .transcript import Transcript

__all__ = [
    "MimcPermutation",
    "MimcSponge",
    "power_is_permutation",
    "select_alpha",
    "default_rounds",
    "derive_round_constants",
    "mimc_circuit_encrypt",
    "mimc_gate_count",
    "mimc_merkle_root",
    "Sha256",
    "sha256",
    "SHA256_ROUNDS",
    "Hasher",
    "get_hasher",
    "available_hashers",
    "DIGEST_SIZE",
    "Transcript",
]
