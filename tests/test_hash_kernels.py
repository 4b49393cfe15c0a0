"""Three-tier SHA-256 layer kernels: wide == SWAR == scalar, digest for digest.

``hash_kernels`` picks a tier from the number of independent blocks in
the call (scalar below ``SWAR_MIN_LANES``, SWAR big ints below
``WIDE_MIN_BLOCKS``, wide numpy lanes from there).  These tests pin:

1. every tier against the scalar ``compress_block`` / ``sha256`` twin
   and ``hashlib``, at block counts straddling every dispatch edge and
   message lengths straddling every padding edge;
2. the wide kernel alone (forced, carried state, NIST vectors);
3. inputs are never written, whatever buffer type they arrive in;
4. two threads hashing different layers concurrently (no shared scratch);
5. the Merkle forest on top: roots and every path equal per-lane trees.
"""

import hashlib
import random
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import HashError
from repro.hashing.hashers import get_hasher
from repro.hashing.sha256 import compress_block, sha256
from repro.kernels import hash_kernels, use_reference_kernels
from repro.kernels.hash_kernels import (
    SWAR_MAX_LANES,
    SWAR_MIN_LANES,
    WIDE_MIN_BLOCKS,
    sha256_compress_many,
    sha256_many,
)
from repro.merkle.tree import MerkleTree, build_forest

#: Block counts on both sides of every dispatch edge (scalar | SWAR at 4,
#: the SWAR chunk at 64, SWAR | wide at ``WIDE_MIN_BLOCKS``) plus one
#: deep in the wide tier.
EDGE_COUNTS = sorted(
    {0, 1, 3, 4, 63, 64, 65, 127, 128, 129, 1000}
    | {SWAR_MIN_LANES - 1, SWAR_MIN_LANES, SWAR_MAX_LANES + 1}
    | {WIDE_MIN_BLOCKS - 1, WIDE_MIN_BLOCKS, WIDE_MIN_BLOCKS + 1}
)
#: Message lengths on both sides of every padding edge: one block up to
#: 55 bytes, two up to 119, three from 120.
EDGE_LENGTHS = [0, 55, 56, 64, 119, 120]

NIST_VECTORS = [
    (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
    (
        b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
    ),
]


def _blocks(rng, n, size=64):
    return [rng.randbytes(size) for _ in range(n)]


def _words(blocks):
    return np.frombuffer(b"".join(blocks), dtype=">u4").reshape(len(blocks), 16)


def _state_of(digests):
    """``[8, n]`` registers from ``n`` 32-byte digests."""
    return (
        np.frombuffer(b"".join(digests), dtype=">u4")
        .reshape(len(digests), 8)
        .T.astype(np.uint32)
    )


class TestTierParity:
    def test_edges_sit_where_the_tests_think(self):
        assert SWAR_MIN_LANES < SWAR_MAX_LANES < WIDE_MIN_BLOCKS
        assert {WIDE_MIN_BLOCKS - 1, WIDE_MIN_BLOCKS} <= set(EDGE_COUNTS)

    @pytest.mark.parametrize("n", EDGE_COUNTS)
    def test_compress_many_equals_scalar(self, n, rng):
        blocks = _blocks(rng, n)
        want = [compress_block(b) for b in blocks]
        assert sha256_compress_many(blocks) == want
        # One contiguous buffer (what ``compress_layer`` hands over).
        assert sha256_compress_many(b"".join(blocks)) == want

    @pytest.mark.parametrize("n", [0, 1, 3, 4, 63, 64, 65, 127, 128, 129, 193])
    @pytest.mark.parametrize("length", EDGE_LENGTHS)
    def test_sha256_many_equals_scalar_and_hashlib(self, n, length, rng):
        messages = _blocks(rng, n, length)
        got = sha256_many(messages)
        assert got == [hashlib.sha256(m).digest() for m in messages]
        if n <= 65:  # the pure-Python twin is ~0.1 ms per block
            assert got == [sha256(m) for m in messages]

    @pytest.mark.parametrize("n", [3, 4, 64, 129, 1000])
    def test_sha256_many_mixed_lengths(self, n, rng):
        # Uneven groups: some land in the wide tier, some in SWAR, and
        # lengths with fewer than SWAR_MIN_LANES messages go scalar.
        pool = EDGE_LENGTHS + [7, 300]
        messages = [rng.randbytes(rng.choice(pool)) for _ in range(n)]
        messages += [rng.randbytes(500)] * 2  # a group of two
        assert sha256_many(messages) == [
            hashlib.sha256(m).digest() for m in messages
        ]

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.binary(min_size=64, max_size=64), max_size=WIDE_MIN_BLOCKS + 40)
    )
    def test_compress_many_property(self, blocks):
        assert sha256_compress_many(blocks) == [compress_block(b) for b in blocks]

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.binary(max_size=130), max_size=40),
        st.integers(0, 2 * WIDE_MIN_BLOCKS),
        st.sampled_from(EDGE_LENGTHS),
    )
    def test_sha256_many_property(self, ragged, n_same, length):
        # ``n_same`` equal-length messages reach the SWAR and wide tiers;
        # the ragged rest forms small groups around them.
        rng = random.Random(n_same * 131 + length)
        messages = ragged + _blocks(rng, n_same, length)
        rng.shuffle(messages)
        assert sha256_many(messages) == [
            hashlib.sha256(m).digest() for m in messages
        ]

    def test_reference_mode_forces_the_scalar_twin(self, rng, monkeypatch):
        def boom(*_args):
            raise AssertionError("a batched tier ran under reference kernels")

        monkeypatch.setattr(hash_kernels, "_compress_wide", boom)
        monkeypatch.setattr(hash_kernels, "_compress_swar", boom)
        blocks = _blocks(rng, WIDE_MIN_BLOCKS + 8)
        with use_reference_kernels():
            assert sha256_compress_many(blocks) == [
                compress_block(b) for b in blocks
            ]
            assert sha256_many(blocks) == [
                hashlib.sha256(b).digest() for b in blocks
            ]

    def test_tier_is_chosen_by_block_count(self, rng, monkeypatch):
        calls = []
        for name in ("_compress_wide", "_compress_swar"):
            real = getattr(hash_kernels, name)
            monkeypatch.setattr(
                hash_kernels,
                name,
                lambda s, w, name=name, real=real: (
                    calls.append((name, w.shape[0])),
                    real(s, w),
                )[1],
            )
        sha256_compress_many(_blocks(rng, SWAR_MIN_LANES - 1))
        assert calls == []  # scalar
        sha256_compress_many(_blocks(rng, WIDE_MIN_BLOCKS - 1))
        assert {name for name, _ in calls} == {"_compress_swar"}
        assert max(k for _, k in calls) <= SWAR_MAX_LANES
        assert sum(k for _, k in calls) == WIDE_MIN_BLOCKS - 1
        del calls[:]
        sha256_compress_many(_blocks(rng, WIDE_MIN_BLOCKS))
        assert calls == [("_compress_wide", WIDE_MIN_BLOCKS)]

    def test_bad_block_sizes_raise(self):
        with pytest.raises(HashError):
            sha256_compress_many([bytes(64)] * 5 + [bytes(63)])
        with pytest.raises(HashError):
            sha256_compress_many(bytes(64 * 5 + 1))


class TestWideKernel:
    """The wide kernel called directly, below and above its dispatch edge."""

    @pytest.mark.parametrize("n", [1, 2, 5, 64, 300])
    def test_wide_equals_swar_equals_scalar_with_carried_state(self, n, rng):
        first, second = _blocks(rng, n), _blocks(rng, n)
        want_first = [compress_block(b) for b in first]
        state_w = hash_kernels._compress_wide(None, _words(first))
        assert hash_kernels._digests(state_w) == want_first
        # Two-block messages: the second block runs against carried state.
        want = [
            hashlib.sha256(a + b[:55]).digest() for a, b in zip(first, second)
        ]
        tail = [b[:55] + b"\x80" + (8 * 119).to_bytes(8, "big") for b in second]
        carried = state_w.copy()
        got_w = hash_kernels._compress_wide(state_w, _words(tail))
        assert hash_kernels._digests(got_w) == want
        assert np.array_equal(state_w, carried)  # carried state not written
        if n <= SWAR_MAX_LANES:
            state_s = hash_kernels._compress_swar(None, _words(first))
            assert np.array_equal(state_s, state_w)
            got_s = hash_kernels._compress_swar(state_s, _words(tail))
            assert np.array_equal(got_s, got_w)

    def test_state_round_trips_through_digests(self, rng):
        digests = _blocks(rng, 9, 32)
        assert hash_kernels._digests(_state_of(digests)) == digests

    def test_nist_vectors_through_the_wide_path(self, monkeypatch):
        # Enough same-length company to cross the edge on its own ...
        for message, hexdigest in NIST_VECTORS:
            batch = [message] + [
                bytes([i % 251]) * len(message) for i in range(WIDE_MIN_BLOCKS)
            ]
            assert sha256_many(batch)[0].hex() == hexdigest
        # ... and with the edge lowered so a small batch goes wide too.
        monkeypatch.setattr(hash_kernels, "WIDE_MIN_BLOCKS", SWAR_MIN_LANES)
        monkeypatch.setattr(
            hash_kernels, "_compress_swar", lambda *a: pytest.fail("SWAR ran")
        )
        messages = [m for m, _ in NIST_VECTORS] * 2
        assert [d.hex() for d in sha256_many(messages)] == [
            h for _, h in NIST_VECTORS
        ] * 2
        block = bytes(range(64))
        assert sha256_compress_many([block] * 4) == [compress_block(block)] * 4

    def test_constants_are_read_only_and_lazy(self):
        consts = hash_kernels._wide_constants()
        assert consts is hash_kernels._wide_constants()
        for c in consts:
            assert not c.flags.writeable


class TestInputsAreNotWritten:
    @pytest.mark.parametrize("n", [3, 40, WIDE_MIN_BLOCKS + 5])
    def test_bytes_bytearray_memoryview(self, n, rng):
        raw = rng.randbytes(64 * n + 16)
        backing = bytearray(raw)
        view = memoryview(backing)
        as_bytes = [raw[8 + 64 * i : 8 + 64 * i + 64] for i in range(n)]
        as_arrays = [bytearray(b) for b in as_bytes]
        as_views = [view[8 + 64 * i : 8 + 64 * i + 64] for i in range(n)]
        want = [compress_block(b) for b in as_bytes]
        for blocks in (as_bytes, as_arrays, as_views, view[8 : 8 + 64 * n]):
            assert sha256_compress_many(blocks) == want
        assert sha256_many(as_views) == [
            hashlib.sha256(b).digest() for b in as_bytes
        ]
        assert sha256_many(as_arrays) == sha256_many(as_bytes)
        assert bytes(backing) == raw
        assert [bytes(a) for a in as_arrays] == as_bytes


class TestThreads:
    def test_two_threads_hash_different_layers(self, rng):
        """No module-level scratch: concurrent calls cannot cross-talk."""
        hasher = get_hasher("sha256-hw")
        layers = [
            _blocks(random.Random(seed), 2 * (WIDE_MIN_BLOCKS + 64 * seed), 32)
            for seed in (1, 2)
        ]
        with use_reference_kernels():
            want = [hasher.compress_layer(layer) for layer in layers]
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
            assert all(got == want[slot] for got in results[slot])


class TestForestOnTheWideKernel:
    @pytest.mark.parametrize("hasher_name", ["sha256", "sha256-hw"])
    @pytest.mark.parametrize("lanes, leaves", [(16, 128), (3, 100), (1, 512)])
    def test_roots_and_every_path_equal_per_lane_trees(
        self, hasher_name, lanes, leaves, rng
    ):
        # 16 x 128 leaves: levels of 1024, 512 and 256 nodes go wide, the
        # rest narrow through SWAR to the per-lane roots; 100 leaves pad.
        hasher = get_hasher(hasher_name)
        leaf_lists = [_blocks(rng, leaves, 32) for _ in range(lanes)]
        forest = build_forest(leaf_lists, hasher)
        for lane_leaves, tree in zip(leaf_lists, forest):
            with use_reference_kernels():
                alone = MerkleTree(lane_leaves, hasher)
            assert tree.root == alone.root
            assert tree.layers == alone.layers
            for index in range(tree.padded_leaves):
                path = tree.open(index)
                assert path == alone.open(index)
                assert path.verify(alone.root, hasher)

    def test_hashers_agree_on_wide_layers(self, rng):
        layer = _blocks(rng, 2 * (WIDE_MIN_BLOCKS + 1), 32)
        assert get_hasher("sha256").compress_layer(layer) == get_hasher(
            "sha256-hw"
        ).compress_layer(layer)
        messages = _blocks(rng, WIDE_MIN_BLOCKS + 1, 70)
        assert get_hasher("sha256").hash_many(messages) == get_hasher(
            "sha256-hw"
        ).hash_many(messages)
