"""Hash-function registry used by Merkle trees.

The library ships two interchangeable SHA-256 hashers:

* ``"sha256"``      — the from-scratch FIPS 180-4 implementation
  (:mod:`repro.hashing.sha256`); the reference twin.
* ``"sha256-hw"``   — Python's ``hashlib`` (C speed); digest-identical to
  ``"sha256"`` for every operation.  Stands in for a machine with SHA
  extensions, and is what the prover and verifier use.

Merkle digests follow the RFC 6962 §2.1 layout: a leaf is
``SHA-256(0x00 ‖ data)`` and an interior node is ``SHA-256(0x01 ‖ left ‖
right)``.  The one-byte prefixes keep a 64-byte leaf from ever passing as
an interior node, and every operation is a full (padded) SHA-256 that
``hashlib`` computes — so both hashers run one code path, differing only
in the digest constructor.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, Iterable, List, Sequence

from ..errors import HashError
from .sha256 import Sha256

DIGEST_SIZE = 32

#: RFC 6962 §2.1 domain-separation prefixes.
LEAF_PREFIX = b"\x00"
NODE_PREFIX = b"\x01"


class Hasher:
    """A named SHA-256 digest constructor and the Merkle operations on it.

    ``new(data)`` returns an object whose ``digest()`` is the SHA-256 of
    ``data`` — ``hashlib.sha256`` and :class:`~repro.hashing.sha256.Sha256`
    share that call.  On top of it: ``hash_bytes`` (plain digest),
    ``hash_many`` (one whole Merkle-leaf layer), ``compress`` (one interior
    node) and ``compress_layer`` (one whole layer of interior nodes).
    """

    __slots__ = ("name", "_new", "_zero_digests")

    def __init__(self, name: str, new: Callable[[bytes], object]):
        self.name = name
        self._new = new
        # data length -> digest of that many zero bytes (Merkle pad filler).
        self._zero_digests: Dict[int, bytes] = {}

    def hash_bytes(self, data: bytes) -> bytes:
        """Plain SHA-256 of arbitrary bytes (no domain prefix)."""
        return self._new(data).digest()

    def hash_many(self, messages: Iterable[bytes]) -> List[bytes]:
        """Merkle-leaf digests ``SHA-256(0x00 ‖ m)`` — one leaf layer per call."""
        new = self._new
        return [new(LEAF_PREFIX + m).digest() for m in messages]

    def compress(self, left: bytes, right: bytes) -> bytes:
        """The Merkle interior node ``SHA-256(0x01 ‖ left ‖ right)``."""
        if len(left) != DIGEST_SIZE or len(right) != DIGEST_SIZE:
            raise HashError(
                f"compress expects two {DIGEST_SIZE}-byte digests, got "
                f"{len(left)} and {len(right)}"
            )
        return self._new(NODE_PREFIX + left + right).digest()

    def compress_layer(self, layer: Sequence[bytes]) -> List[bytes]:
        """Compress one even-length Merkle layer into its parent layer.

        ``layer[2i], layer[2i+1] → parent[i]``; equal to calling
        :meth:`compress` per pair.
        """
        if len(layer) % 2:
            raise HashError(f"compress_layer needs an even layer, got {len(layer)}")
        if layer and set(map(len, layer)) != {DIGEST_SIZE}:
            raise HashError(f"compress_layer expects {DIGEST_SIZE}-byte digests")
        new = self._new
        pairs = iter(layer)
        return [
            new(NODE_PREFIX + left + right).digest()
            for left, right in zip(pairs, pairs)
        ]

    def zero_digest(self, num_bytes: int) -> bytes:
        """Memoized plain digest of ``num_bytes`` zero bytes (Merkle pad filler)."""
        digest = self._zero_digests.get(num_bytes)
        if digest is None:
            digest = self.hash_bytes(b"\x00" * num_bytes)
            self._zero_digests[num_bytes] = digest
        return digest

    def __repr__(self) -> str:
        return f"Hasher({self.name!r})"


# Hashers are stateless apart from their memo caches, so the registry holds
# one instance per name — that makes per-hasher caches (the Merkle pad
# filler digest) effective across tree constructions.
_REGISTRY: Dict[str, Hasher] = {
    "sha256": Hasher("sha256", Sha256),
    "sha256-hw": Hasher("sha256-hw", hashlib.sha256),
}


def get_hasher(name: str = "sha256") -> Hasher:
    """Look up a hasher by name; raises :class:`HashError` for unknown names."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise HashError(
            f"unknown hasher {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def available_hashers() -> list:
    """Names of the registered hash backends."""
    return sorted(_REGISTRY)
