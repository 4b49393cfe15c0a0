"""Merkle tree module (system S3 in DESIGN.md; paper §2.2, §3.1).

* :class:`MerkleTree` — full tree, authentication paths.
* :class:`MerklePath` — verifiable openings of one leaf.
* :func:`merkle_root_streaming` — the paper's layer-streaming construction.
* Layer-size / hash-count helpers consumed by the pipeline scheduler.
"""

from .multiproof import (
    MerkleMultiProof,
    individual_paths_size,
    open_multi,
)
from .proof import MerklePath
from .tree import (
    BLOCK_SIZE,
    MerkleTree,
    iter_layer_sizes,
    merkle_root_streaming,
    pad_leaves,
    roots_over_roots,
    total_hashes,
)

__all__ = [
    "MerkleTree",
    "MerklePath",
    "MerkleMultiProof",
    "open_multi",
    "individual_paths_size",
    "merkle_root_streaming",
    "roots_over_roots",
    "iter_layer_sizes",
    "total_hashes",
    "pad_leaves",
    "BLOCK_SIZE",
]
