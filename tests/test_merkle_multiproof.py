"""Merkle multiproof tests: correctness, dedup savings, tampering."""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MerkleError
from repro.hashing import get_hasher
from repro.merkle import MerkleMultiProof, MerkleTree, open_multi

HASHER = get_hasher("sha256-hw")


def make_tree(n=32, salt=0):
    return MerkleTree.from_blocks(
        [bytes([i % 256, salt]) * 32 for i in range(n)], HASHER
    )


class TestCorrectness:
    @pytest.mark.parametrize(
        "indices",
        [[0], [31], [0, 31], [3, 4, 5], [0, 1, 2, 3], list(range(32)), [7, 7, 7]],
    )
    def test_verifies(self, indices):
        tree = make_tree()
        proof = open_multi(tree, indices)
        assert proof.verify(tree.root, HASHER)

    def test_single_leaf_tree(self):
        tree = MerkleTree.from_blocks([b"\x01" * 64], HASHER)
        proof = open_multi(tree, [0])
        assert proof.verify(tree.root, HASHER)
        assert proof.nodes == ()

    def test_all_leaves_needs_no_nodes(self):
        tree = make_tree(8)
        proof = open_multi(tree, range(8))
        assert proof.nodes == ()
        assert proof.verify(tree.root, HASHER)

    def test_opens_correct_leaves(self):
        tree = make_tree()
        proof = open_multi(tree, [5, 9])
        assert proof.leaves == (tree.layers[0][5], tree.layers[0][9])

    @given(
        indices=st.lists(
            st.integers(min_value=0, max_value=31), min_size=1, max_size=12
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_property_arbitrary_sets(self, indices):
        tree = make_tree()
        proof = open_multi(tree, indices)
        assert proof.verify(tree.root, HASHER)

    def test_adjacent_leaves_share_everything_above_level0(self):
        tree = make_tree(16)
        proof = open_multi(tree, [6, 7])
        # Siblings of each other: only the 3 upper nodes are needed.
        assert len(proof.nodes) == 3


def _path_nodes(tree, indices):
    """Sibling digests that one authentication path per leaf would carry."""
    return len(set(indices)) * tree.depth


class TestSavings:
    def test_smaller_than_individual_paths(self):
        tree = make_tree(64)
        rng = random.Random(1)
        indices = rng.sample(range(64), 16)
        proof = open_multi(tree, indices)
        assert len(proof.nodes) < _path_nodes(tree, indices)

    def test_savings_grow_with_batch(self):
        tree = make_tree(64)
        small = open_multi(tree, [0, 1])
        large = open_multi(tree, list(range(16)))
        ratio_small = len(small.nodes) / _path_nodes(tree, [0, 1])
        ratio_large = len(large.nodes) / _path_nodes(tree, range(16))
        assert ratio_large < ratio_small


class TestRejection:
    def test_wrong_root(self):
        tree = make_tree()
        proof = open_multi(tree, [1, 2])
        assert not proof.verify(b"\x00" * 32, HASHER)

    def test_tampered_leaf(self):
        tree = make_tree()
        proof = open_multi(tree, [1, 2])
        bad = dataclasses.replace(
            proof, leaves=(b"\x13" * 32,) + proof.leaves[1:]
        )
        assert not bad.verify(tree.root, HASHER)

    def test_tampered_node(self):
        tree = make_tree()
        proof = open_multi(tree, [1, 2])
        assert proof.nodes
        bad = dataclasses.replace(
            proof, nodes=(b"\x13" * 32,) + proof.nodes[1:]
        )
        assert not bad.verify(tree.root, HASHER)

    def test_missing_node(self):
        tree = make_tree()
        proof = open_multi(tree, [1, 2])
        bad = dataclasses.replace(proof, nodes=proof.nodes[:-1])
        assert not bad.verify(tree.root, HASHER)

    def test_extra_node(self):
        tree = make_tree()
        proof = open_multi(tree, [1, 2])
        bad = dataclasses.replace(proof, nodes=proof.nodes + (b"\x00" * 32,))
        assert not bad.verify(tree.root, HASHER)

    def test_short_node_is_rejected_not_raised(self):
        proof = MerkleMultiProof(
            indices=(0,), leaves=(b"\0" * 32,), nodes=(b"\0" * 31,), depth=1
        )
        assert not proof.verify(b"\0" * 32, HASHER)
        tree = make_tree()
        proof = open_multi(tree, [1, 2])
        bad = dataclasses.replace(proof, nodes=(proof.nodes[0][:-1],) + proof.nodes[1:])
        assert not bad.verify(tree.root, HASHER)

    def test_swapped_indices(self):
        """Moving an opened leaf to a different index must fail."""
        tree = make_tree()
        proof = open_multi(tree, [1, 2])
        bad = dataclasses.replace(proof, indices=(1, 3))
        assert not bad.verify(tree.root, HASHER)

    def test_cross_tree(self):
        a, b = make_tree(salt=0), make_tree(salt=1)
        proof = open_multi(a, [4, 8])
        assert not proof.verify(b.root, HASHER)

    def test_empty_rejected(self):
        tree = make_tree()
        with pytest.raises(MerkleError):
            open_multi(tree, [])

    def test_out_of_range_rejected(self):
        tree = make_tree(8)
        with pytest.raises(MerkleError):
            open_multi(tree, [8])
