"""Merkle authentication paths.

A path proves that a given leaf digest sits at a given index under a given
root: the verifier re-compresses the leaf with each sibling, choosing the
left/right order from the index bits, and compares against the root
(§2.2: "any change in the input data will alter the corresponding hash
value and propagate up, ultimately changing the Merkle root").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..errors import MerkleError
from ..hashing.hashers import DIGEST_SIZE, Hasher, get_hasher


@dataclass(frozen=True)
class MerklePath:
    """Authentication path for one leaf.

    Attributes:
        index:    Leaf position in the (padded) tree.
        leaf:     The leaf digest being authenticated.
        siblings: Sibling digests from the leaf layer up to (excluding) the
                  root.
    """

    index: int
    leaf: bytes
    siblings: List[bytes]

    def __post_init__(self) -> None:
        if self.index < 0:
            raise MerkleError(f"negative leaf index {self.index}")
        if len(self.leaf) != DIGEST_SIZE:
            raise MerkleError(f"leaf must be {DIGEST_SIZE} bytes")
        for s in self.siblings:
            if len(s) != DIGEST_SIZE:
                raise MerkleError(f"sibling must be {DIGEST_SIZE} bytes")
        if self.index >> len(self.siblings) not in (0,):
            raise MerkleError(
                f"index {self.index} too large for depth {len(self.siblings)}"
            )

    @property
    def depth(self) -> int:
        return len(self.siblings)

    def compute_root(self, hasher: Optional[Hasher] = None) -> bytes:
        """Fold the path upward and return the implied root."""
        hasher = hasher or get_hasher("sha256")
        node = self.leaf
        pos = self.index
        for sibling in self.siblings:
            if pos & 1:
                node = hasher.compress(sibling, node)
            else:
                node = hasher.compress(node, sibling)
            pos >>= 1
        return node

    def verify(self, root: bytes, hasher: Optional[Hasher] = None) -> bool:
        """Check the path authenticates ``self.leaf`` under ``root``."""
        return self.compute_root(hasher) == root

    def size_bytes(self) -> int:
        """Serialized size — contributes to the several-MB proof sizes the
        paper notes for the second category of ZKP protocols (§2.1)."""
        return DIGEST_SIZE * (1 + len(self.siblings)) + 8

    def to_bytes(self) -> bytes:
        out = self.index.to_bytes(8, "little") + self.leaf
        for s in self.siblings:
            out += s
        return out

    @classmethod
    def from_bytes(cls, data: bytes) -> "MerklePath":
        if len(data) < 8 + DIGEST_SIZE or (len(data) - 8) % DIGEST_SIZE:
            raise MerkleError("malformed MerklePath serialization")
        index = int.from_bytes(data[:8], "little")
        leaf = data[8 : 8 + DIGEST_SIZE]
        rest = data[8 + DIGEST_SIZE :]
        siblings = [
            rest[i : i + DIGEST_SIZE] for i in range(0, len(rest), DIGEST_SIZE)
        ]
        return cls(index=index, leaf=leaf, siblings=siblings)

