"""Merkle tree tests: construction, layout and hash counts."""

import hashlib

import pytest

from repro.errors import MerkleError
from repro.field import DEFAULT_FIELD
from repro.hashing import get_hasher
from repro.merkle import BLOCK_SIZE, MerkleTree

HASHER = get_hasher("sha256-hw")


def blocks(n, salt=0):
    return [bytes([i % 256, salt % 256]) * 32 for i in range(n)]


class TestConstruction:
    def test_single_leaf(self):
        tree = MerkleTree.from_blocks(blocks(1), HASHER)
        assert tree.depth == 0
        assert tree.root == tree.layers[0][0]

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 8, 13, 16, 33])
    def test_layer_structure(self, n):
        tree = MerkleTree.from_blocks(blocks(n), HASHER)
        padded = tree.padded_leaves
        assert padded & (padded - 1) == 0
        assert len(tree.layers[-1]) == 1
        for lower, upper in zip(tree.layers, tree.layers[1:]):
            assert len(upper) == len(lower) // 2

    def test_zero_leaves_raise(self):
        with pytest.raises(MerkleError):
            MerkleTree([], HASHER)

    def test_bad_leaf_size_raises(self):
        with pytest.raises(MerkleError):
            MerkleTree([b"short"], HASHER)

    def test_root_deterministic(self):
        assert (
            MerkleTree.from_blocks(blocks(9), HASHER).root
            == MerkleTree.from_blocks(blocks(9), HASHER).root
        )

    def test_root_changes_with_any_block(self):
        base = MerkleTree.from_blocks(blocks(8), HASHER).root
        for i in range(8):
            data = blocks(8)
            data[i] = b"\xff" * 64
            assert MerkleTree.from_blocks(data, HASHER).root != base

    def test_hash_count_matches_closed_form(self):
        tree = MerkleTree.from_blocks(blocks(16), HASHER)
        # 2N - 1 hashes per tree: N leaves and N - 1 interior nodes.
        assert tree.hash_count() == 16 - 1

    def test_from_field_vectors(self):
        F = DEFAULT_FIELD
        cols = [[1, 2, 3], [4, 5, 6], [7, 8, 9], [1, 1, 1]]
        tree = MerkleTree.from_field_vectors(F, cols, HASHER)
        want_leaf = HASHER.hash_bytes(b"\x00" + F.vector_to_bytes([4, 5, 6]))
        assert tree.leaf(1) == want_leaf

    def test_rfc6962_layout(self):
        tree = MerkleTree.from_blocks(blocks(2), HASHER)
        left, right = tree.layers[0]
        assert left == hashlib.sha256(b"\x00" + blocks(2)[0]).digest()
        assert tree.root == hashlib.sha256(b"\x01" + left + right).digest()

    def test_a_leaf_never_passes_as_a_node(self):
        """Domain separation: the leaf hash of the 64 bytes ``l ‖ r`` is
        not the parent node of the sibling digests ``l`` and ``r``."""
        tree = MerkleTree.from_blocks(blocks(2), HASHER)
        left, right = tree.layers[0]
        assert HASHER.hash_many([left + right]) != [tree.root]
        assert MerkleTree.from_blocks([left + right], HASHER).root != tree.root


class TestHelpers:
    def test_block_size_constant(self):
        assert BLOCK_SIZE == 64  # 512-bit blocks, as in the paper
