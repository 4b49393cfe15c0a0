"""SHA-256 against FIPS vectors, hashlib cross-check, and hasher registry."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import HashError
from repro.hashing import (
    Sha256,
    available_hashers,
    get_hasher,
    sha256,
)


class TestFipsVectors:
    """Known-answer tests from FIPS 180-4 / NIST examples."""

    def test_empty(self):
        assert (
            sha256(b"").hex()
            == "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        )

    def test_abc(self):
        assert (
            sha256(b"abc").hex()
            == "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )

    def test_two_block_message(self):
        msg = b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
        assert (
            sha256(msg).hex()
            == "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        )

    def test_million_a(self):
        assert (
            sha256(b"a" * 1_000_000).hex()
            == "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        )


class TestAgainstHashlib:
    @given(data=st.binary(max_size=300))
    @settings(max_examples=60)
    def test_matches_hashlib(self, data):
        assert sha256(data) == hashlib.sha256(data).digest()

    @pytest.mark.parametrize("size", [0, 1, 55, 56, 63, 64, 65, 127, 128, 1000])
    def test_padding_boundaries(self, size):
        data = bytes(range(256)) * (size // 256 + 1)
        data = data[:size]
        assert sha256(data) == hashlib.sha256(data).digest()


class TestStreaming:
    def test_chunked_update_equals_oneshot(self):
        h = Sha256()
        for chunk in (b"hello ", b"wor", b"ld", b"!"):
            h.update(chunk)
        assert h.digest() == sha256(b"hello world!")

    def test_digest_is_idempotent(self):
        h = Sha256(b"data")
        assert h.digest() == h.digest()

    def test_update_after_digest(self):
        h = Sha256(b"ab")
        _ = h.digest()
        h.update(b"c")
        assert h.digest() == sha256(b"abc")

    def test_copy_independent(self):
        h = Sha256(b"ab")
        clone = h.copy()
        h.update(b"c")
        assert clone.digest() == sha256(b"ab")
        assert h.digest() == sha256(b"abc")

    def test_rejects_str(self):
        with pytest.raises(HashError):
            Sha256().update("not bytes")  # type: ignore[arg-type]

    def test_hexdigest(self):
        assert Sha256(b"abc").hexdigest() == sha256(b"abc").hex()


class TestHasherRegistry:
    def test_available(self):
        assert available_hashers() == ["sha256", "sha256-hw"]

    def test_unknown_raises(self):
        with pytest.raises(HashError):
            get_hasher("md5")

    def test_scratch_and_hw_agree(self):
        scratch = get_hasher("sha256")
        hw = get_hasher("sha256-hw")
        data = b"cross-check"
        assert scratch.hash_bytes(data) == hw.hash_bytes(data)
        left, right = b"\x01" * 32, b"\x02" * 32
        assert scratch.compress(left, right) == hw.compress(left, right)
        # The Merkle operations, on a leaf that is two digests long.
        messages = [left + right, data, b""]
        assert scratch.hash_many(messages) == hw.hash_many(messages)
        assert hw.hash_many(messages) == [
            hashlib.sha256(b"\x00" + m).digest() for m in messages
        ]
        layer = [left, right] + hw.hash_many(messages[1:])
        assert scratch.compress_layer(layer) == hw.compress_layer(layer)
        assert hw.compress_layer(layer)[0] == hashlib.sha256(
            b"\x01" + left + right
        ).digest()

    def test_compress_validates_digest_size(self):
        h = get_hasher("sha256")
        with pytest.raises(HashError):
            h.compress(b"\x00" * 31, b"\x00" * 32)
        with pytest.raises(HashError):
            h.compress_layer([b"\x00" * 32, b"\x00" * 31])
        with pytest.raises(HashError):
            h.compress_layer([b"\x00" * 32] * 3)
