"""Multiproof-authenticated PCS openings: correctness, size, end-to-end.

Every opening authenticates its columns with one shared Merkle multiproof
(the only opening format): these tests pin it against the per-column
authentication paths it replaced, via ``individual_paths_size``.
"""

import dataclasses
import random

import pytest

from repro.commitment import BrakedownPCS
from repro.core import (
    SnarkProver,
    SnarkVerifier,
    deserialize_proof,
    make_pcs,
    random_circuit,
    serialize_proof,
)
from repro.errors import CommitmentError
from repro.field import DEFAULT_FIELD, MultilinearPolynomial
from repro.hashing import Transcript
from repro.merkle import MerkleTree, individual_paths_size
from tests.test_commitment import _drawn_columns

F = DEFAULT_FIELD


@pytest.fixture(scope="module")
def pcs():
    return BrakedownPCS(F, num_vars=10, seed=4, num_col_checks=16)


@pytest.fixture(scope="module")
def committed(pcs):
    rng = random.Random(13)
    ml = MultilinearPolynomial.random(F, 10, rng)
    com, state = pcs.commit(ml.evals)
    return ml, com, state


def _claims(ml, rng):
    """A random point and two boolean points, with their values."""
    points = [F.rand_vector(10, rng), [0] * 10, [1] * 10]
    return points, [ml.evaluate(pt) for pt in points]


class TestCompressedOpenings:
    def test_same_commitment_root(self, pcs, committed):
        """The commitment is the plain column tree: openings add nothing
        to it."""
        _, com, state = committed
        columns = [list(col) for col in zip(*state.encoded)]
        assert com.root == MerkleTree.from_field_vectors(F, columns, pcs.hasher).root

    def test_roundtrip(self, pcs, committed, rng):
        ml, com, state = committed
        points, values = _claims(ml, rng)
        proof = pcs.open_many(state, points, Transcript(b"c"))
        assert proof.nodes
        assert pcs.verify_many(com, points, values, proof, Transcript(b"c"))

    def test_smaller_than_plain(self, pcs, committed, rng):
        """The shared nodes undercut per-column authentication paths."""
        ml, com, state = committed
        points, values = _claims(ml, rng)
        proof = pcs.open_many(state, points, Transcript(b"c"))
        indices = _drawn_columns(pcs, com, points, values, proof, b"c")
        assert len(indices) == len(proof.columns)
        assert 32 * len(proof.nodes) < individual_paths_size(state.tree, indices)

    def test_wrong_value_rejected(self, pcs, committed, rng):
        ml, com, state = committed
        points, values = _claims(ml, rng)
        proof = pcs.open_many(state, points, Transcript(b"c"))
        for k in range(len(points)):
            bad = list(values)
            bad[k] = (bad[k] + 1) % F.modulus
            assert not pcs.verify_many(com, points, bad, proof, Transcript(b"c"))

    def test_tampered_column_rejected(self, pcs, committed, rng):
        ml, com, state = committed
        points, values = _claims(ml, rng)
        proof = pcs.open_many(state, points, Transcript(b"c"))
        bad_col = [(v + 1) % F.modulus for v in proof.columns[0]]
        bad = dataclasses.replace(proof, columns=[bad_col] + list(proof.columns[1:]))
        assert not pcs.verify_many(com, points, values, bad, Transcript(b"c"))

    def test_missing_multiproof_rejected(self, pcs, committed, rng):
        """Dropping any one node, or all of them, breaks the fold."""
        ml, com, state = committed
        points, values = _claims(ml, rng)
        proof = pcs.open_many(state, points, Transcript(b"c"))
        for drop in range(len(proof.nodes)):
            nodes = proof.nodes[:drop] + proof.nodes[drop + 1:]
            bad = dataclasses.replace(proof, nodes=nodes)
            assert not pcs.verify_many(com, points, values, bad, Transcript(b"c"))
        bad = dataclasses.replace(proof, nodes=[])
        assert not pcs.verify_many(com, points, values, bad, Transcript(b"c"))

    def test_mode_mixup_rejected(self, pcs, committed, rng):
        """A verifier with another column-check count must refuse the
        opening: the parameters are part of the public setup."""
        ml, com, state = committed
        points, values = _claims(ml, rng)
        proof = pcs.open_many(state, points, Transcript(b"c"))
        other = BrakedownPCS(F, num_vars=10, seed=4, num_col_checks=8)
        with pytest.raises(CommitmentError):
            other.verify_many(com, points, values, proof, Transcript(b"c"))


class TestCompressedSnark:
    @pytest.fixture(scope="class")
    def setting(self):
        cc = random_circuit(F, 48, seed=71)
        pcs = make_pcs(F, cc.r1cs, num_col_checks=8)
        prover = SnarkProver(cc.r1cs, pcs, public_indices=cc.public_indices)
        verifier = SnarkVerifier(cc.r1cs, pcs, public_indices=cc.public_indices)
        proof = prover.prove(cc.witness, cc.public_values)
        return cc, pcs, verifier, proof

    def test_end_to_end(self, setting):
        cc, _, verifier, proof = setting
        assert verifier.verify(proof, cc.public_values)

    def test_smaller_than_plain_snark(self, setting):
        """One opening with shared nodes, against what per-point openings
        with per-column paths would cost: at least ``k`` proximity rows
        and ``k`` sets of column paths."""
        cc, pcs, _, proof = setting
        k = 2 + len(cc.public_indices)
        opening = proof.opening
        column_paths = len(opening.columns) * (8 + 32 * (1 + pcs.params.merkle_depth))
        per_point = k * (F.byte_length * len(opening.proximity_row) + column_paths)
        assert opening.size_bytes(F) < per_point

    def test_serialization_roundtrip(self, setting):
        cc, pcs, verifier, proof = setting
        blob = serialize_proof(proof, F)
        again = deserialize_proof(blob, F, pcs.params)
        assert again.opening.nodes == proof.opening.nodes
        assert verifier.verify(again, cc.public_values)
