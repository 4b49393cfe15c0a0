"""Hostile proof bytes: a mutated, truncated or random blob never passes.

Every flipped byte (XOR 0xFF) and every truncation of a real proof blob,
sampled one position in ``STRIDE``, must end as a ``ProofError`` or a
``verify`` that returns False.  ``pytest -m sweep`` runs every position
(``STRIDE = 1``) and counts the accepted and untyped cases.  Random byte
strings fed to the decoders may only raise ``ProofError``.  Structured
mutations of a decoded proof — parts swapped, reordered, duplicated,
dropped or moved between components — must make ``verify`` return False.
"""

import dataclasses
import itertools
import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import SnarkProver, SnarkVerifier, make_pcs, random_circuit
from repro.core.serialize import MAGIC, VERSION, deserialize_proof_bundle
from repro.core.serialize import deserialize_proof, serialize_proof
from repro.errors import ProofError
from repro.field import DEFAULT_FIELD as F
from repro.field import MultilinearPolynomial
from repro.hashing import Transcript

STRIDE = 16
CC = random_circuit(F, 64, seed=3)
PARAMS = make_pcs(F, CC.r1cs, num_col_checks=6).params


PCS = make_pcs(F, CC.r1cs, num_col_checks=6)
PROOF = SnarkProver(CC.r1cs, PCS, public_indices=CC.public_indices).prove(
    CC.witness, CC.public_values
)
VERIFIER = SnarkVerifier(CC.r1cs, PCS, public_indices=CC.public_indices)


@pytest.fixture(scope="module")
def subject():
    """A valid proof blob and a predicate: is this blob rejected?"""
    pcs, proof, verifier = PCS, PROOF, VERIFIER

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


# -- structured mutations of a decoded proof ------------------------------------


def _opening(**changes):
    return dataclasses.replace(PROOF, opening=dataclasses.replace(PROOF.opening, **changes))


def _swapped(items, i, j):
    items = list(items)
    items[i], items[j] = items[j], items[i]
    return items


def _moved_round():
    """Sum-check #1's last round polynomial appended to sum-check #2."""
    one, two = PROOF.constraint_sumcheck, PROOF.witness_sumcheck
    return dataclasses.replace(
        PROOF,
        constraint_sumcheck=dataclasses.replace(one, round_polys=one.round_polys[:-1]),
        witness_sumcheck=dataclasses.replace(
            two, round_polys=two.round_polys + one.round_polys[-1:]
        ),
    )


OPENING = PROOF.opening
MUTATIONS = {
    "evaluation rows swapped": lambda: _opening(
        evaluation_rows=_swapped(OPENING.evaluation_rows, 0, 1)
    ),
    "proximity row swapped with an evaluation row": lambda: _opening(
        proximity_row=OPENING.evaluation_rows[0],
        evaluation_rows=[OPENING.proximity_row] + OPENING.evaluation_rows[1:],
    ),
    "opened columns reordered": lambda: _opening(
        columns=_swapped(OPENING.columns, 0, 1)
    ),
    "column duplicated": lambda: _opening(
        columns=OPENING.columns[:1] + OPENING.columns
    ),
    "column dropped": lambda: _opening(columns=OPENING.columns[1:]),
    "multiproof node dropped": lambda: _opening(nodes=OPENING.nodes[:-1]),
    "multiproof nodes reordered": lambda: _opening(
        nodes=_swapped(OPENING.nodes, 0, 1)
    ),
    "round polynomial moved between sum-checks": _moved_round,
}


@pytest.mark.parametrize("mutation", MUTATIONS, ids=list(MUTATIONS))
def test_structured_mutations_are_rejected(mutation):
    assert len(OPENING.evaluation_rows) >= 2 and len(OPENING.columns) >= 2
    assert VERIFIER.verify(PROOF, CC.public_values)
    assert VERIFIER.verify(MUTATIONS[mutation](), CC.public_values) is False


def test_permuted_point_list_is_rejected():
    """A valid k-point opening checked against its points reordered."""
    rng = random.Random(11)
    ml = MultilinearPolynomial.random(F, PCS.params.num_vars, rng)
    com, state = PCS.commit(ml.evals)
    points = [F.rand_vector(PCS.params.num_vars, rng), [0] * PCS.params.num_vars]
    points.append([1] + [0] * (PCS.params.num_vars - 1))
    values = [ml.evaluate(point) for point in points]
    proof = PCS.open_many(state, points, Transcript(b"k"))
    assert PCS.verify_many(com, points, values, proof, Transcript(b"k"))
    for order in itertools.permutations(range(3)):
        if order != (0, 1, 2):
            permuted = [points[i] for i in order], [values[i] for i in order]
            assert not PCS.verify_many(com, *permuted, proof, Transcript(b"k"))
