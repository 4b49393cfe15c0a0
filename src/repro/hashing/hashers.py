"""Hash-function registry used by Merkle trees and transcripts.

The library ships three interchangeable 2-to-1 hashers:

* ``"sha256"``      — the from-scratch FIPS 180-4 implementation
  (:mod:`repro.hashing.sha256`); what the paper uses.
* ``"sha256-hw"``   — Python's ``hashlib`` (C speed); bit-identical output
  to ``"sha256"`` and used when a test or example needs thousands of real
  hashes quickly.  Stands in for a machine with SHA extensions.
* ``"quick"``       — a fast non-cryptographic 256-bit mixer for
  simulation-scale workloads where only determinism and collision
  *resistance in practice* matter (never use in a real deployment).

Each hasher exposes ``hash_bytes`` (arbitrary input) and ``compress``
(exactly two 32-byte children -> one 32-byte parent), the two operations
the Merkle pipeline stages perform.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Callable, Dict, List, Optional, Sequence

from ..errors import HashError
from ..kernels.hash_kernels import sha256_compress_many, sha256_many
from .sha256 import compress_block, sha256

DIGEST_SIZE = 32


class Hasher:
    """A named 2-to-1 hash function with an arbitrary-input mode.

    Besides the scalar ``hash_bytes``/``compress`` operations, a hasher
    exposes the batched forms the Merkle pipeline stages actually issue —
    ``hash_many`` (a layer of leaves per call) and ``compress_layer`` (a
    layer of interior nodes per call).  Backends that support batching
    (the SHA-256 kernels of :mod:`repro.kernels.hash_kernels`) plug in
    ``hash_many``/``compress_pairs`` callables — ``compress_pairs`` takes
    the whole layer as one contiguous buffer; everything else falls back
    to the scalar loop, so the two forms are always byte-identical.
    """

    __slots__ = ("name", "_hash_bytes", "_compress", "_hash_many", "_compress_pairs", "_zero_digests")

    def __init__(
        self,
        name: str,
        hash_bytes: Callable[[bytes], bytes],
        compress: Callable[[bytes, bytes], bytes],
        hash_many: Optional[Callable[[Sequence[bytes]], List[bytes]]] = None,
        compress_pairs: Optional[Callable[[bytes], List[bytes]]] = None,
    ):
        self.name = name
        self._hash_bytes = hash_bytes
        self._compress = compress
        self._hash_many = hash_many
        self._compress_pairs = compress_pairs
        # data length -> digest of that many zero bytes (Merkle pad filler).
        self._zero_digests: Dict[int, bytes] = {}

    def hash_bytes(self, data: bytes) -> bytes:
        """Digest arbitrary bytes to 32 bytes."""
        return self._hash_bytes(data)

    def hash_many(self, messages: Sequence[bytes]) -> List[bytes]:
        """Digest many byte strings — one whole Merkle-leaf layer per call.

        Equal to ``[self.hash_bytes(m) for m in messages]`` byte-for-byte.
        """
        if self._hash_many is not None:
            return self._hash_many(messages)
        hash_bytes = self._hash_bytes
        return [hash_bytes(m) for m in messages]

    def compress(self, left: bytes, right: bytes) -> bytes:
        """Compress two 32-byte digests into one (a Merkle interior node)."""
        if len(left) != DIGEST_SIZE or len(right) != DIGEST_SIZE:
            raise HashError(
                f"compress expects two {DIGEST_SIZE}-byte digests, got "
                f"{len(left)} and {len(right)}"
            )
        return self._compress(left, right)

    def compress_layer(self, layer: Sequence[bytes]) -> List[bytes]:
        """Compress one even-length Merkle layer into its parent layer.

        ``layer[2i], layer[2i+1] → parent[i]``; byte-identical to calling
        :meth:`compress` per pair, but batched backends get the layer
        joined into one buffer — already its ``left ‖ right`` blocks —
        and compress all of it in wide lanes.
        """
        if len(layer) % 2:
            raise HashError(f"compress_layer needs an even layer, got {len(layer)}")
        for d in layer:
            if len(d) != DIGEST_SIZE:
                raise HashError(
                    f"compress_layer expects {DIGEST_SIZE}-byte digests, got {len(d)}"
                )
        if self._compress_pairs is not None:
            return self._compress_pairs(b"".join(layer))
        compress = self._compress
        return [compress(layer[i], layer[i + 1]) for i in range(0, len(layer), 2)]

    def zero_digest(self, num_bytes: int) -> bytes:
        """Memoized digest of ``num_bytes`` zero bytes (the Merkle pad filler)."""
        digest = self._zero_digests.get(num_bytes)
        if digest is None:
            digest = self._hash_bytes(b"\x00" * num_bytes)
            self._zero_digests[num_bytes] = digest
        return digest

    def __repr__(self) -> str:
        return f"Hasher({self.name!r})"


def _quick_mix(data: bytes) -> bytes:
    """A 256-bit non-cryptographic mixer (xxhash-flavoured, pure Python).

    Processes 8-byte lanes with multiply-rotate-xor rounds and finalizes
    four 64-bit accumulators.  Deterministic, fast, well-distributed — and
    explicitly NOT collision resistant against adversaries.
    """
    prime1 = 0x9E3779B185EBCA87
    prime2 = 0xC2B2AE3D27D4EB4F
    mask = (1 << 64) - 1
    acc = [
        (prime1 + len(data)) & mask,
        prime2,
        0x165667B19E3779F9,
        0x27D4EB2F165667C5,
    ]
    padded = data + b"\x00" * ((-len(data)) % 8)
    for i in range(0, len(padded), 8):
        (lane,) = struct.unpack_from("<Q", padded, i)
        j = (i >> 3) & 3
        a = (acc[j] + lane * prime2) & mask
        a = ((a << 31) | (a >> 33)) & mask
        acc[j] = (a * prime1) & mask
    # Cross-mix the accumulators so every lane affects every output word.
    for _ in range(2):
        for j in range(4):
            acc[j] = (acc[j] ^ (acc[(j + 1) & 3] >> 17)) * prime1 & mask
            acc[j] = (acc[j] ^ (acc[j] >> 29)) & mask
    return struct.pack("<4Q", *acc)


def _make_sha256_scratch() -> Hasher:
    return Hasher(
        "sha256",
        hash_bytes=sha256,
        compress=lambda left, right: compress_block(left + right),
        hash_many=sha256_many,
        compress_pairs=sha256_compress_many,
    )


def _make_sha256_hw() -> Hasher:
    def _hash(data: bytes) -> bytes:
        return hashlib.sha256(data).digest()

    def _hash_many(messages: Sequence[bytes]) -> List[bytes]:
        new = hashlib.sha256
        return [new(m).digest() for m in messages]

    def _comp(left: bytes, right: bytes) -> bytes:
        # NOTE: hashlib pads, so to remain bit-identical to the scratch
        # compress we run the raw compression from our own implementation.
        return compress_block(left + right)

    # Interior nodes need the *raw* compression hashlib cannot compute, so
    # the "hw" hasher also batches them through the layer kernel.
    return Hasher(
        "sha256-hw",
        hash_bytes=_hash,
        compress=_comp,
        hash_many=_hash_many,
        compress_pairs=sha256_compress_many,
    )


def _make_quick() -> Hasher:
    return Hasher(
        "quick",
        hash_bytes=_quick_mix,
        compress=lambda left, right: _quick_mix(left + right),
    )


_REGISTRY: Dict[str, Callable[[], Hasher]] = {
    "sha256": _make_sha256_scratch,
    "sha256-hw": _make_sha256_hw,
    "quick": _make_quick,
}

# Hashers are stateless apart from their memo caches, so the registry hands
# out one instance per name — that makes per-hasher caches (the Merkle pad
# filler digest) effective across tree constructions.
_INSTANCES: Dict[str, Hasher] = {}


def get_hasher(name: str = "sha256") -> Hasher:
    """Look up a hasher by name; raises :class:`HashError` for unknown names."""
    hasher = _INSTANCES.get(name)
    if hasher is not None:
        return hasher
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise HashError(
            f"unknown hasher {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
    return _INSTANCES.setdefault(name, factory())


def available_hashers() -> list:
    """Names of the registered hash backends."""
    return sorted(_REGISTRY)
