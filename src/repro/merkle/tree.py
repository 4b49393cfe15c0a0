"""Merkle trees over 512-bit data blocks (paper §2.2, §3.1).

The paper's construction: split input data into 512-bit (64-byte) blocks,
hash each block to a 256-bit leaf, then iteratively compress pairs of
digests until a single Merkle root remains.  Every layer halves, so a tree
over ``N`` blocks performs ``2N − 1 ≈ N + N/2 + … + 1`` hashes — the count
the paper uses to size its per-layer kernel thread allocations (§4).
Leaves and nodes use the RFC 6962 §2.1 layout: leaf
``SHA-256(0x00 ‖ block)``, node ``SHA-256(0x01 ‖ left ‖ right)``
(:class:`~repro.hashing.hashers.Hasher`).

This module provides:

* :class:`MerkleTree` — full in-memory tree with authentication paths.
* :func:`merkle_root_streaming` — layer-at-a-time construction that keeps
  only the live layer, mirroring the paper's dynamic load/store discipline
  (only ~2N blocks of device memory, §3.1).
* Helpers to build trees over field-element matrices (the commitment
  scheme Merkle-izes codeword *columns*).
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence

from ..errors import MerkleError
from ..hashing.hashers import DIGEST_SIZE, Hasher, get_hasher
from ..kernels.field_kernels import pack_vector
from .proof import MerklePath

BLOCK_SIZE = 64  # 512-bit input blocks, as in the paper.


def _is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def pad_leaves(leaves: Sequence[bytes], hasher: Hasher) -> List[bytes]:
    """Pad a digest list to the next power of two.

    Padding repeats the hash of an all-zero block; the padded width is part
    of what the root commits to, so padding cannot be abused to forge.
    """
    n = len(leaves)
    if n == 0:
        raise MerkleError("cannot build a Merkle tree over zero leaves")
    if _is_power_of_two(n):
        return list(leaves)
    target = 1 << n.bit_length()
    filler = hasher.zero_digest(BLOCK_SIZE)
    return list(leaves) + [filler] * (target - n)


class MerkleTree:
    """An in-memory Merkle tree retaining every layer.

    ``layers[0]`` is the list of leaf digests; ``layers[-1]`` is ``[root]``.

    >>> tree = MerkleTree.from_blocks([bytes([i]) * 64 for i in range(8)])
    >>> path = tree.open(3)
    >>> path.verify(tree.root, hasher=tree.hasher)
    True
    """

    __slots__ = ("hasher", "layers", "num_leaves")

    def __init__(self, leaf_digests: Sequence[bytes], hasher: Optional[Hasher] = None):
        self.hasher = hasher or get_hasher("sha256")
        for d in leaf_digests:
            if len(d) != DIGEST_SIZE:
                raise MerkleError(
                    f"leaf digests must be {DIGEST_SIZE} bytes, got {len(d)}"
                )
        padded = pad_leaves(leaf_digests, self.hasher)
        self.num_leaves = len(leaf_digests)
        self.layers: List[List[bytes]] = [padded]
        current = padded
        while len(current) > 1:
            current = self.hasher.compress_layer(current)
            self.layers.append(current)

    # -- constructors -------------------------------------------------------

    @classmethod
    def _from_layers(
        cls, layers: List[List[bytes]], num_leaves: int, hasher: Hasher
    ) -> "MerkleTree":
        """Adopt pre-computed layers (see :func:`build_forest`).

        The layers must already satisfy the class invariants: padded
        power-of-two leaf layer, each subsequent layer the pairwise
        compression of the one below, topped by a single root.
        """
        tree = cls.__new__(cls)
        tree.hasher = hasher
        tree.layers = layers
        tree.num_leaves = num_leaves
        return tree

    @classmethod
    def from_blocks(
        cls, blocks: Sequence[bytes], hasher: Optional[Hasher] = None
    ) -> "MerkleTree":
        """Build a tree from raw data blocks (hashed to form the leaves).

        Blocks may be any length; the paper's canonical input is 64-byte
        (512-bit) blocks.
        """
        hasher = hasher or get_hasher("sha256")
        leaves = hasher.hash_many(blocks)
        return cls(leaves, hasher)

    @classmethod
    def from_field_vectors(
        cls,
        field,
        columns: Sequence[Sequence[int]],
        hasher: Optional[Hasher] = None,
    ) -> "MerkleTree":
        """Build a tree whose leaves are hashes of field-element vectors.

        Used by the Brakedown commitment: each leaf commits to one codeword
        *column* across all rows of the coefficient matrix.
        """
        hasher = hasher or get_hasher("sha256")
        leaves = hasher.hash_many([pack_vector(field, col) for col in columns])
        return cls(leaves, hasher)

    # -- queries ------------------------------------------------------------------

    @property
    def root(self) -> bytes:
        return self.layers[-1][0]

    @property
    def depth(self) -> int:
        """Number of compression layers (0 for a single-leaf tree)."""
        return len(self.layers) - 1

    @property
    def padded_leaves(self) -> int:
        return len(self.layers[0])

    def leaf(self, index: int) -> bytes:
        if not 0 <= index < self.num_leaves:
            raise MerkleError(f"leaf index {index} out of range [0, {self.num_leaves})")
        return self.layers[0][index]

    def open(self, index: int) -> MerklePath:
        """Produce the authentication path for leaf ``index``."""
        if not 0 <= index < self.padded_leaves:
            raise MerkleError(
                f"leaf index {index} out of range [0, {self.padded_leaves})"
            )
        siblings = []
        pos = index
        for layer in self.layers[:-1]:
            siblings.append(layer[pos ^ 1])
            pos >>= 1
        return MerklePath(index=index, leaf=self.layers[0][index], siblings=siblings)

    def open_many(self, indices: Iterable[int]) -> List[MerklePath]:
        return [self.open(i) for i in indices]

    def hash_count(self) -> int:
        """Total interior-node hashes performed — the paper's ≈2N work metric."""
        return sum(len(layer) for layer in self.layers[1:])

    def __repr__(self) -> str:
        return (
            f"MerkleTree(leaves={self.num_leaves}, depth={self.depth}, "
            f"hasher={self.hasher.name})"
        )


def build_forest(
    leaf_lists: Sequence[Sequence[bytes]], hasher: Optional[Hasher] = None
) -> List[MerkleTree]:
    """Build one :class:`MerkleTree` per lane with *batched* compressions.

    All lanes of a laned prover commit matrices of identical shape, so
    their trees share a geometry.  Padding each lane's leaves and
    concatenating them lets every level of every tree be produced by a
    single :meth:`Hasher.compress_layer` call over the whole forest —
    ``depth`` batched dispatches for ``L`` trees instead of ``L·depth``.
    Each lane's slice of a level is a self-contained even-length
    power-of-two segment, so the pairwise compression never mixes lanes
    and each resulting tree is byte-identical to building it alone.
    """
    hasher = hasher or get_hasher("sha256")
    leaf_lists = [list(leaves) for leaves in leaf_lists]
    if not leaf_lists:
        return []
    padded = [pad_leaves(leaves, hasher) for leaves in leaf_lists]
    width = len(padded[0])
    if any(len(lane) != width for lane in padded):
        raise MerkleError("build_forest lanes must share one leaf count")
    lanes = len(padded)
    per_lane_layers: List[List[List[bytes]]] = [[lane] for lane in padded]
    current: List[bytes] = [d for lane in padded for d in lane]
    while width > 1:
        current = hasher.compress_layer(current)
        width //= 2
        for lane in range(lanes):
            per_lane_layers[lane].append(
                current[lane * width : (lane + 1) * width]
            )
    return [
        MerkleTree._from_layers(layers, len(leaves), hasher)
        for layers, leaves in zip(per_lane_layers, leaf_lists)
    ]


def merkle_root_streaming(
    blocks: Iterable[bytes], hasher: Optional[Hasher] = None
) -> bytes:
    """Compute a Merkle root holding only one live layer at a time.

    This is the memory discipline of the paper's pipelined Merkle module
    (§3.1): layers are produced, consumed by the next stage, and released —
    the working set is ≈2N digests rather than all layers of all trees.
    The root is identical to :class:`MerkleTree`'s.
    """
    hasher = hasher or get_hasher("sha256")
    layer = hasher.hash_many(blocks)  # consumes the blocks one at a time
    if not layer:
        raise MerkleError("cannot build a Merkle tree over zero leaves")
    layer = pad_leaves(layer, hasher)
    while len(layer) > 1:
        layer = hasher.compress_layer(layer)
    return layer[0]


def iter_layer_sizes(num_blocks: int) -> Iterator[int]:
    """Yield layer sizes of the padded tree from leaves (N) down to the root.

    The pipeline scheduler allocates one kernel per layer with threads
    proportional to these sizes (the ``M/2, M/4, …`` allocation of §4).
    """
    if num_blocks <= 0:
        raise MerkleError("num_blocks must be positive")
    n = num_blocks if _is_power_of_two(num_blocks) else 1 << num_blocks.bit_length()
    while n >= 1:
        yield n
        if n == 1:
            return
        n //= 2


def total_hashes(num_blocks: int) -> int:
    """Closed-form ≈2N hash count for one tree over ``num_blocks`` blocks."""
    return sum(iter_layer_sizes(num_blocks))


def roots_over_roots(roots: Sequence[bytes], hasher: Optional[Hasher] = None) -> bytes:
    """Combine multiple Merkle roots into one by a second-level tree.

    The paper's system (§4) feeds the roots of per-segment trees as leaves
    of another Merkle tree module, "ultimately yielding a single final
    root".
    """
    hasher = hasher or get_hasher("sha256")
    tree = MerkleTree(list(roots), hasher)
    return tree.root
