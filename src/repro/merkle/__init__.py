"""Merkle tree module (system S3 in DESIGN.md; paper §2.2, §3.1).

* :class:`MerkleTree` — full tree over 512-bit blocks or field columns.
* :class:`MerkleMultiProof` / :func:`open_multi` — one deduplicated
  opening of many leaves, the only opening a proof carries.
"""

from .multiproof import MerkleMultiProof, open_multi
from .tree import BLOCK_SIZE, MerkleTree, pad_leaves

__all__ = [
    "MerkleTree",
    "MerkleMultiProof",
    "open_multi",
    "pad_leaves",
    "BLOCK_SIZE",
]
