"""Merkle tree tests: construction, openings, tampering, streaming."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MerkleError
from repro.field import DEFAULT_FIELD
from repro.hashing import get_hasher
from repro.merkle import (
    BLOCK_SIZE,
    MerklePath,
    MerkleTree,
    compute_roots,
    iter_layer_sizes,
    merkle_root_streaming,
    roots_over_roots,
    total_hashes,
)

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
        # total_hashes counts leaves too; tree.hash_count() only interior.
        assert tree.hash_count() == total_hashes(16) - 16

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


class TestOpenings:
    @pytest.mark.parametrize("n", [2, 5, 8, 16])
    def test_all_paths_verify(self, n):
        tree = MerkleTree.from_blocks(blocks(n), HASHER)
        for i in range(n):
            assert tree.open(i).verify(tree.root, HASHER)

    def test_path_depth(self):
        tree = MerkleTree.from_blocks(blocks(16), HASHER)
        assert tree.open(3).depth == 4

    def test_out_of_range_raises(self):
        tree = MerkleTree.from_blocks(blocks(8), HASHER)
        with pytest.raises(MerkleError):
            tree.open(8)
        with pytest.raises(MerkleError):
            tree.open(-1)

    def test_open_many(self):
        tree = MerkleTree.from_blocks(blocks(8), HASHER)
        paths = tree.open_many([0, 3, 7])
        assert [p.index for p in paths] == [0, 3, 7]

    def test_wrong_root_rejected(self):
        tree = MerkleTree.from_blocks(blocks(8), HASHER)
        assert not tree.open(0).verify(b"\x00" * 32, HASHER)

    def test_tampered_leaf_rejected(self):
        tree = MerkleTree.from_blocks(blocks(8), HASHER)
        path = tree.open(2)
        bad = MerklePath(index=path.index, leaf=b"\x13" * 32, siblings=path.siblings)
        assert not bad.verify(tree.root, HASHER)

    def test_tampered_sibling_rejected(self):
        tree = MerkleTree.from_blocks(blocks(8), HASHER)
        path = tree.open(2)
        sib = list(path.siblings)
        sib[1] = b"\x13" * 32
        bad = MerklePath(index=path.index, leaf=path.leaf, siblings=sib)
        assert not bad.verify(tree.root, HASHER)

    def test_wrong_index_rejected(self):
        tree = MerkleTree.from_blocks(blocks(8), HASHER)
        path = tree.open(2)
        moved = MerklePath(index=3, leaf=path.leaf, siblings=path.siblings)
        assert not moved.verify(tree.root, HASHER)

    @given(idx=st.integers(min_value=0, max_value=15))
    @settings(max_examples=16, deadline=None)
    def test_property_open_verify(self, idx):
        tree = MerkleTree.from_blocks(blocks(16), HASHER)
        assert tree.open(idx).verify(tree.root, HASHER)


class TestComputeRoots:
    """The level-by-level batched fold equals ``compute_root`` per path."""

    @pytest.mark.parametrize("hasher_name", ["sha256", "sha256-hw"])
    @pytest.mark.parametrize("n", [1, 2, 5, 16, 33])
    def test_matches_per_path_roots(self, n, hasher_name):
        hasher = get_hasher(hasher_name)
        tree = MerkleTree.from_blocks(blocks(n), hasher)
        indices = sorted({0, n // 2, n - 1, tree.padded_leaves - 1})
        paths = tree.open_many(indices)
        roots = compute_roots(paths, hasher)
        assert roots == [p.compute_root(hasher) for p in paths]
        assert roots == [tree.root] * len(paths)

    def test_single_path_and_no_paths(self):
        tree = MerkleTree.from_blocks(blocks(8), HASHER)
        assert compute_roots([tree.open(5)], HASHER) == [tree.root]
        assert compute_roots([], HASHER) == []

    def test_left_right_order_follows_the_index_bits(self):
        """Every index of a tree: a swapped child order at any level of
        any path would change that path's root."""
        tree = MerkleTree.from_blocks(blocks(16), HASHER)
        paths = tree.open_many(range(16))
        assert compute_roots(paths, HASHER) == [tree.root] * 16
        moved = [
            MerklePath(index=p.index ^ 1, leaf=p.leaf, siblings=p.siblings)
            for p in paths
        ]
        assert all(r != tree.root for r in compute_roots(moved, HASHER))

    def test_a_tampered_path_changes_only_its_own_root(self):
        tree = MerkleTree.from_blocks(blocks(16), HASHER)
        paths = tree.open_many([1, 6, 11])
        for level in range(tree.depth):
            sib = list(paths[1].siblings)
            sib[level] = b"\x13" * 32
            bad = MerklePath(index=6, leaf=paths[1].leaf, siblings=sib)
            roots = compute_roots([paths[0], bad, paths[2]], HASHER)
            assert roots[0] == roots[2] == tree.root and roots[1] != tree.root
            assert roots[1] == bad.compute_root(HASHER)
        bad_leaf = MerklePath(index=6, leaf=b"\x13" * 32, siblings=paths[1].siblings)
        roots = compute_roots([paths[0], bad_leaf, paths[2]], HASHER)
        assert roots[0] == roots[2] == tree.root and roots[1] != tree.root

    def test_ragged_depths_raise(self):
        deep = MerkleTree.from_blocks(blocks(16), HASHER).open(3)
        shallow = MerkleTree.from_blocks(blocks(8), HASHER).open(3)
        with pytest.raises(MerkleError):
            compute_roots([deep, shallow], HASHER)


class TestPathSerialization:
    def test_roundtrip(self):
        tree = MerkleTree.from_blocks(blocks(8), HASHER)
        path = tree.open(5)
        again = MerklePath.from_bytes(path.to_bytes())
        assert again == path
        assert again.verify(tree.root, HASHER)

    def test_malformed_bytes(self):
        with pytest.raises(MerkleError):
            MerklePath.from_bytes(b"\x00" * 10)

    def test_size_bytes(self):
        tree = MerkleTree.from_blocks(blocks(8), HASHER)
        path = tree.open(0)
        assert path.size_bytes() == 32 * (1 + 3) + 8

    def test_index_too_deep_rejected(self):
        with pytest.raises(MerkleError):
            MerklePath(index=4, leaf=b"\x00" * 32, siblings=[b"\x00" * 32] * 2)


class TestStreamingAndHelpers:
    @pytest.mark.parametrize("n", [1, 2, 5, 8, 16, 31])
    def test_streaming_matches_tree(self, n):
        data = blocks(n)
        root = MerkleTree.from_blocks(data, HASHER).root
        assert merkle_root_streaming(data, HASHER) == root
        assert merkle_root_streaming(iter(data), HASHER) == root

    def test_streaming_empty_raises(self):
        with pytest.raises(MerkleError):
            merkle_root_streaming([], HASHER)
        with pytest.raises(MerkleError):
            merkle_root_streaming(iter([]), HASHER)

    def test_iter_layer_sizes(self):
        assert list(iter_layer_sizes(8)) == [8, 4, 2, 1]
        assert list(iter_layer_sizes(5)) == [8, 4, 2, 1]

    def test_total_hashes_closed_form(self):
        assert total_hashes(8) == 15  # 2N - 1
        assert total_hashes(1) == 1

    def test_layer_sizes_validation(self):
        with pytest.raises(MerkleError):
            list(iter_layer_sizes(0))

    def test_roots_over_roots(self):
        """§4: per-segment roots feed a second-level tree."""
        segment_roots = [
            MerkleTree.from_blocks(blocks(4, salt=s), HASHER).root for s in range(4)
        ]
        final = roots_over_roots(segment_roots, HASHER)
        assert final == MerkleTree(segment_roots, HASHER).root

    def test_block_size_constant(self):
        assert BLOCK_SIZE == 64  # 512-bit blocks, as in the paper
