"""Proof serialization: roundtrips, tamper and truncation handling."""

import pytest

from repro.core import (
    SnarkProver,
    SnarkVerifier,
    deserialize_proof,
    make_pcs,
    random_circuit,
    serialize_proof,
)
from repro.core.serialize import ByteReader, ByteWriter, MAGIC
from repro.errors import ProofError
from repro.field import DEFAULT_FIELD

F = DEFAULT_FIELD


@pytest.fixture(scope="module")
def setting():
    cc = random_circuit(F, 48, seed=51)
    pcs = make_pcs(F, cc.r1cs, num_col_checks=6)
    prover = SnarkProver(cc.r1cs, pcs, public_indices=cc.public_indices)
    verifier = SnarkVerifier(cc.r1cs, pcs, public_indices=cc.public_indices)
    proof = prover.prove(cc.witness, cc.public_values)
    return cc, pcs, verifier, proof


class TestByteCodec:
    def test_u32_u64_roundtrip(self):
        w = ByteWriter()
        w.u32(123)
        w.u64(1 << 50)
        r = ByteReader(w.getvalue())
        assert r.u32() == 123
        assert r.u64() == 1 << 50
        r.expect_end()

    def test_blob_roundtrip(self):
        w = ByteWriter()
        w.blob(b"hello")
        r = ByteReader(w.getvalue())
        assert r.blob() == b"hello"

    def test_field_vector_roundtrip(self, rng):
        vec = F.rand_vector(17, rng)
        w = ByteWriter()
        w.field_vector(F, vec)
        r = ByteReader(w.getvalue())
        assert r.field_vector(F) == vec

    def test_truncation_detected(self):
        w = ByteWriter()
        w.u64(5)
        r = ByteReader(w.getvalue()[:4])
        with pytest.raises(ProofError):
            r.u64()

    def test_trailing_bytes_detected(self):
        r = ByteReader(b"\x00" * 8)
        r.u32()
        with pytest.raises(ProofError):
            r.expect_end()


class TestProofRoundtrip:
    def test_roundtrip_verifies(self, setting):
        cc, pcs, verifier, proof = setting
        blob = serialize_proof(proof, F)
        again = deserialize_proof(blob, F, pcs.params)
        assert verifier.verify(again, cc.public_values)

    def test_roundtrip_is_exact(self, setting):
        cc, pcs, _, proof = setting
        blob = serialize_proof(proof, F)
        again = deserialize_proof(blob, F, pcs.params)
        assert again.commitment.root == proof.commitment.root
        assert again.constraint_sumcheck == proof.constraint_sumcheck
        assert again.witness_sumcheck == proof.witness_sumcheck
        assert (again.va, again.vb, again.vc, again.vz) == (
            proof.va, proof.vb, proof.vc, proof.vz,
        )
        assert again.opening == proof.opening

    def test_blob_size_matches_accounting(self, setting):
        """``size_bytes`` is the wire size; the components sum to it."""
        _, _, _, proof = setting
        blob = serialize_proof(proof, F)
        assert proof.size_bytes(F) == len(blob)
        assert sum(proof.component_sizes(F).values()) == len(blob)

    def test_deterministic_encoding(self, setting):
        _, _, _, proof = setting
        assert serialize_proof(proof, F) == serialize_proof(proof, F)


class TestMalformedBlobs:
    def test_bad_magic(self, setting):
        _, pcs, _, proof = setting
        blob = b"XXXX" + serialize_proof(proof, F)[4:]
        with pytest.raises(ProofError):
            deserialize_proof(blob, F, pcs.params)

    def test_bad_version(self, setting):
        _, pcs, _, proof = setting
        blob = bytearray(serialize_proof(proof, F))
        blob[4] = 99
        with pytest.raises(ProofError):
            deserialize_proof(bytes(blob), F, pcs.params)

    def test_truncated_blob(self, setting):
        _, pcs, _, proof = setting
        blob = serialize_proof(proof, F)
        with pytest.raises(ProofError):
            deserialize_proof(blob[: len(blob) // 2], F, pcs.params)

    def test_trailing_garbage(self, setting):
        _, pcs, _, proof = setting
        blob = serialize_proof(proof, F) + b"\x00"
        with pytest.raises(ProofError):
            deserialize_proof(blob, F, pcs.params)

    def test_bitflip_fails_verification(self, setting):
        """Any single corrupted field element must break verification
        (the blob may still parse — soundness rejects it)."""
        cc, pcs, verifier, proof = setting
        blob = bytearray(serialize_proof(proof, F))
        # Flip a byte inside the constraint sum-check region.
        blob[50] ^= 0xFF
        try:
            mangled = deserialize_proof(bytes(blob), F, pcs.params)
        except ProofError:
            return  # parse-time rejection is also fine
        assert not verifier.verify(mangled, cc.public_values)

    def test_empty_blob(self, setting):
        _, pcs, _, _ = setting
        with pytest.raises(ProofError):
            deserialize_proof(b"", F, pcs.params)

    def test_magic_constant(self):
        assert MAGIC == b"RPZK"
