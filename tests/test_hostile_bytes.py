"""Hostile proof bytes: a mutated, truncated or random blob never passes.

Every flipped byte (XOR 0xFF) and every truncation of a real proof blob,
sampled one position in ``STRIDE``, must end as a ``ProofError`` or a
``verify`` that returns False.  ``pytest -m sweep`` runs every position
(``STRIDE = 1``) and counts the accepted and untyped cases.  Random byte
strings fed to the decoders may only raise ``ProofError``.
"""

import itertools
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import SnarkProver, SnarkVerifier, make_pcs, random_circuit
from repro.core.serialize import MAGIC, VERSION, deserialize_proof_bundle
from repro.core.serialize import deserialize_proof, serialize_proof
from repro.errors import ProofError
from repro.field import DEFAULT_FIELD as F

STRIDE = 16
CC = random_circuit(F, 64, seed=3)
PARAMS = make_pcs(F, CC.r1cs, num_col_checks=6).params


@pytest.fixture(scope="module", params=[False, True], ids=["paths", "compressed"])
def subject(request):
    """A valid proof blob and a predicate: is this blob rejected?"""
    pcs = make_pcs(F, CC.r1cs, num_col_checks=6, compress_openings=request.param)
    proof = SnarkProver(CC.r1cs, pcs, public_indices=CC.public_indices).prove(
        CC.witness, CC.public_values
    )
    verifier = SnarkVerifier(CC.r1cs, pcs, public_indices=CC.public_indices)

    def rejected(blob: bytes) -> bool:
        try:
            candidate = deserialize_proof(blob, F, pcs.params)
            return not verifier.verify(candidate, CC.public_values)
        except ProofError:
            return True

    blob = serialize_proof(proof, F)
    assert not rejected(blob)
    return blob, rejected


def test_flipped_bytes_are_rejected(subject):
    blob, rejected = subject
    for at in range(0, len(blob), STRIDE):
        flipped = blob[:at] + bytes([blob[at] ^ 0xFF]) + blob[at + 1:]
        assert rejected(flipped), f"flip at byte {at} accepted"


def test_truncations_are_rejected(subject):
    blob, rejected = subject
    for length in range(0, len(blob), STRIDE):
        assert rejected(blob[:length]), f"truncation to {length} accepted"


@pytest.mark.sweep
def test_every_flip_and_truncation_is_rejected(subject):
    blob, rejected = subject
    flips = (
        blob[:at] + bytes([blob[at] ^ 0xFF]) + blob[at + 1:] for at in range(len(blob))
    )
    truncations = (blob[:length] for length in range(len(blob)))
    accepted, untyped = 0, []
    for case in itertools.chain(flips, truncations):
        try:
            accepted += not rejected(case)
        except Exception as exc:  # counted: only ProofError is typed
            untyped.append(type(exc).__name__)
    print(f"\n{len(blob)} flips, {len(blob)} truncations: "
          f"{accepted} accepted, {len(untyped)} untyped {sorted(set(untyped))}")
    assert accepted == 0 and not untyped


@settings(max_examples=300, deadline=None)
@given(data=st.binary(max_size=512), headed=st.booleans(), bundle=st.booleans())
def test_decoders_fail_typed_on_random_bytes(data, headed, bundle):
    decode = deserialize_proof_bundle if bundle else deserialize_proof
    try:
        decode(MAGIC + struct.pack("<I", VERSION) + data if headed else data,
               F, PARAMS)
    except ProofError:
        pass
