"""Batched Merkle hashing: one call per layer equals one hash per node.

Merkle layers are hashed a whole layer per call (``Hasher.hash_many`` for
leaves, ``Hasher.compress_layer`` for interior nodes, ``build_forest``
for many trees at once).  Every node is a full SHA-256 in the RFC 6962
§2.1 layout — leaf ``SHA-256(0x00 ‖ m)``, node ``SHA-256(0x01 ‖ l ‖ r)``
— so ``hashlib`` is the oracle.  These tests pin:

1. the batched calls against per-node ``compress`` / the scalar
   ``sha256`` twin / ``hashlib``, at layer sizes and message lengths
   straddling SHA-256's padding edges, for both registered hashers;
2. inputs are never written, whatever buffer type they arrive in;
3. two threads hashing different layers concurrently (no shared scratch);
4. the Merkle forest on top: roots and every path equal per-lane trees.
"""

import hashlib
import random
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import HashError
from repro.hashing.hashers import LEAF_PREFIX, NODE_PREFIX, get_hasher
from repro.hashing.sha256 import Sha256
from repro.merkle import open_multi
from repro.merkle.tree import MerkleTree, build_forest

HASHERS = ["sha256", "sha256-hw"]

#: Layer sizes (in node pairs) from empty to one deep layer.
EDGE_COUNTS = [0, 1, 3, 4, 63, 64, 65, 127, 128, 129, 191, 192, 193, 1000]
#: Message lengths on both sides of every padding edge once the one-byte
#: leaf prefix is added: one block up to 54 bytes, two up to 118, three
#: from 119.
EDGE_LENGTHS = [0, 55, 56, 64, 119, 120]
#: Above this many blocks, the pure-Python twin (~0.1 ms per block) is
#: only checked against ``hashlib`` on a slice.
SCALAR_LIMIT = 65


def _blocks(rng, n, size=64):
    return [rng.randbytes(size) for _ in range(n)]


def _leaf(message):
    return hashlib.sha256(LEAF_PREFIX + bytes(message)).digest()


def _node(left, right):
    return hashlib.sha256(NODE_PREFIX + bytes(left) + bytes(right)).digest()


def _pairs(layer):
    it = iter(layer)
    return list(zip(it, it))


class TestTierParity:
    @pytest.mark.parametrize("n", EDGE_COUNTS)
    def test_compress_many_equals_scalar(self, n, rng):
        layer = _blocks(rng, 2 * n, 32)
        want = [_node(l, r) for l, r in _pairs(layer)]
        hw = get_hasher("sha256-hw")
        assert hw.compress_layer(layer) == want
        assert [hw.compress(l, r) for l, r in _pairs(layer)] == want
        head = layer[: 2 * SCALAR_LIMIT]
        scratch = get_hasher("sha256")
        assert scratch.compress_layer(head) == want[:SCALAR_LIMIT]
        assert [
            Sha256(NODE_PREFIX + l + r).digest() for l, r in _pairs(head)
        ] == want[:SCALAR_LIMIT]

    @pytest.mark.parametrize("n", [0, 1, 3, 4, 63, 64, 65, 127, 128, 129, 193])
    @pytest.mark.parametrize("length", EDGE_LENGTHS)
    def test_sha256_many_equals_scalar_and_hashlib(self, n, length, rng):
        messages = _blocks(rng, n, length)
        got = get_hasher("sha256-hw").hash_many(messages)
        assert got == [_leaf(m) for m in messages]
        if n <= SCALAR_LIMIT:
            assert got == [Sha256(LEAF_PREFIX + m).digest() for m in messages]
            assert got == get_hasher("sha256").hash_many(messages)

    @pytest.mark.parametrize("n", [3, 4, 64, 129, 1000])
    def test_sha256_many_mixed_lengths(self, n, rng):
        pool = EDGE_LENGTHS + [7, 300]
        messages = [rng.randbytes(rng.choice(pool)) for _ in range(n)]
        messages += [rng.randbytes(500)] * 2  # two equal leaves
        want = [_leaf(m) for m in messages]
        assert get_hasher("sha256-hw").hash_many(messages) == want
        # A generator is consumed once, in order.
        assert get_hasher("sha256-hw").hash_many(iter(messages)) == want
        head = messages[:SCALAR_LIMIT]
        assert get_hasher("sha256").hash_many(head) == want[:SCALAR_LIMIT]

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.binary(min_size=32, max_size=32), max_size=80),
        st.sampled_from(HASHERS),
    )
    def test_compress_many_property(self, digests, hasher_name):
        layer = digests[: len(digests) // 2 * 2]
        hasher = get_hasher(hasher_name)
        want = [_node(l, r) for l, r in _pairs(layer)]
        assert hasher.compress_layer(layer) == want
        assert [hasher.compress(l, r) for l, r in _pairs(layer)] == want

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.binary(max_size=130), max_size=40),
        st.integers(0, 400),
        st.sampled_from(EDGE_LENGTHS),
    )
    def test_sha256_many_property(self, ragged, n_same, length):
        rng = random.Random(n_same * 131 + length)
        messages = ragged + _blocks(rng, n_same, length)
        rng.shuffle(messages)
        assert get_hasher("sha256-hw").hash_many(messages) == [
            _leaf(m) for m in messages
        ]

    def test_bad_block_sizes_raise(self):
        for hasher in map(get_hasher, HASHERS):
            with pytest.raises(HashError):
                hasher.compress_layer([bytes(32)] * 5 + [bytes(31)])
            with pytest.raises(HashError):
                hasher.compress_layer([bytes(32)] * 5)  # odd layer
            with pytest.raises(HashError):
                hasher.compress_layer([bytes(32)] * 3 + [bytes(64)])
            with pytest.raises(HashError):
                hasher.compress(bytes(32), bytes(33))


class TestInputsAreNotWritten:
    @pytest.mark.parametrize("n", [3, 40, 197])
    def test_bytes_bytearray_memoryview(self, n, rng):
        raw = rng.randbytes(64 * n + 16)
        backing = bytearray(raw)
        view = memoryview(backing)
        as_bytes = [raw[8 + 64 * i : 8 + 64 * i + 64] for i in range(n)]
        as_arrays = [bytearray(b) for b in as_bytes]
        as_views = [view[8 + 64 * i : 8 + 64 * i + 64] for i in range(n)]
        hasher = get_hasher("sha256-hw")
        want = [_leaf(b) for b in as_bytes]
        for messages in (as_bytes, as_arrays, as_views):
            assert hasher.hash_many(messages) == want
        # The same bytes as a layer of 2n 32-byte digests.
        want_nodes = [_node(b[:32], b[32:]) for b in as_bytes]
        for blocks in (as_bytes, as_arrays, as_views):
            layer = [half for b in blocks for half in (b[:32], b[32:])]
            assert hasher.compress_layer(layer) == want_nodes
        assert bytes(backing) == raw
        assert [bytes(a) for a in as_arrays] == as_bytes


class TestThreads:
    def test_two_threads_hash_different_layers(self, rng):
        """No module-level scratch: concurrent calls cannot cross-talk."""
        hasher = get_hasher("sha256-hw")
        layers = [
            _blocks(random.Random(seed), 2 * (192 + 64 * seed), 32)
            for seed in (1, 2)
        ]
        want = [[_node(l, r) for l, r in _pairs(layer)] for layer in layers]
        results = [[], []]
        start = threading.Barrier(2)

        def work(slot):
            start.wait(timeout=60)
            for _ in range(6):
                results[slot].append(hasher.compress_layer(layers[slot]))

        threads = [threading.Thread(target=work, args=(i,)) for i in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        for slot in (0, 1):
            assert results[slot] == [want[slot]] * 6


class TestForestOnTheWideKernel:
    @pytest.mark.parametrize("hasher_name", HASHERS)
    @pytest.mark.parametrize("lanes, leaves", [(16, 128), (3, 100), (1, 512)])
    def test_roots_and_every_path_equal_per_lane_trees(
        self, hasher_name, lanes, leaves, rng
    ):
        # One compress_layer call per level over all lanes; 100 leaves pad.
        hasher = get_hasher(hasher_name)
        leaf_lists = [_blocks(rng, leaves, 32) for _ in range(lanes)]
        forest = build_forest(leaf_lists, hasher)
        for lane_leaves, tree in zip(leaf_lists, forest):
            alone = MerkleTree(lane_leaves, hasher)
            assert tree.root == alone.root
            assert tree.layers == alone.layers
            for index in range(tree.padded_leaves):
                proof = open_multi(tree, [index])
                assert proof == open_multi(alone, [index])
                assert proof.verify(alone.root, hasher)

    def test_hashers_agree_on_wide_layers(self, rng):
        layer = _blocks(rng, 2 * 193, 32)
        assert get_hasher("sha256").compress_layer(layer) == get_hasher(
            "sha256-hw"
        ).compress_layer(layer)
        messages = _blocks(rng, 193, 70)
        assert get_hasher("sha256").hash_many(messages) == get_hasher(
            "sha256-hw"
        ).hash_many(messages)
