"""Brakedown polynomial-commitment tests."""

import dataclasses

import pytest

from repro.commitment import BrakedownPCS, split_num_vars
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
from repro.merkle import MerkleTree

F = DEFAULT_FIELD


@pytest.fixture(scope="module")
def pcs():
    return BrakedownPCS(F, num_vars=8, seed=2, num_col_checks=12)


@pytest.fixture(scope="module")
def committed(pcs):
    import random

    rng = random.Random(5)
    ml = MultilinearPolynomial.random(F, 8, rng)
    com, state = pcs.commit(ml.evals)
    return ml, com, state


class TestSplit:
    def test_default_balanced(self):
        assert split_num_vars(8) == (4, 4)
        assert split_num_vars(9) == (4, 5)

    def test_explicit_split(self):
        assert split_num_vars(8, row_vars=2) == (2, 6)

    def test_too_few_vars(self):
        with pytest.raises(CommitmentError):
            split_num_vars(1)

    def test_degenerate_split(self):
        with pytest.raises(CommitmentError):
            split_num_vars(4, row_vars=4)


class TestCommit:
    def test_commitment_is_32_bytes(self, committed):
        _, com, _ = committed
        assert len(com.root) == 32

    def test_wrong_eval_count(self, pcs):
        with pytest.raises(CommitmentError):
            pcs.commit([1, 2, 3])

    def test_deterministic(self, pcs, rng):
        evals = F.rand_vector(256, rng)
        c1, _ = pcs.commit(evals)
        c2, _ = pcs.commit(evals)
        assert c1.root == c2.root

    def test_binding_to_data(self, pcs, rng):
        evals = F.rand_vector(256, rng)
        c1, _ = pcs.commit(evals)
        evals[100] = (evals[100] + 1) % F.modulus
        c2, _ = pcs.commit(evals)
        assert c1.root != c2.root

    def test_codeword_matrix_shape(self, committed, pcs):
        _, _, state = committed
        assert len(state.encoded) == pcs.params.num_rows
        assert all(len(r) == pcs.params.codeword_length for r in state.encoded)


class TestEvaluate:
    def test_matches_multilinear_extension(self, committed, pcs, rng):
        ml, _, state = committed
        for _ in range(5):
            pt = F.rand_vector(8, rng)
            assert pcs.evaluate(state, pt) == ml.evaluate(pt)

    def test_boolean_point_is_table_entry(self, committed, pcs):
        ml, _, state = committed
        idx = 137
        pt = [(idx >> i) & 1 for i in range(8)]
        assert pcs.evaluate(state, pt) == ml.evals[idx]

    def test_wrong_dimension(self, committed, pcs):
        _, _, state = committed
        with pytest.raises(CommitmentError):
            pcs.evaluate(state, [1, 2, 3])


class TestOpenVerify:
    def test_roundtrip(self, committed, pcs, rng):
        ml, com, state = committed
        pt = F.rand_vector(8, rng)
        value = ml.evaluate(pt)
        proof = pcs.open(state, pt, Transcript(b"t"))
        assert pcs.verify(com, pt, value, proof, Transcript(b"t"))

    def test_wrong_value_rejected(self, committed, pcs, rng):
        ml, com, state = committed
        pt = F.rand_vector(8, rng)
        proof = pcs.open(state, pt, Transcript(b"t"))
        assert not pcs.verify(
            com, pt, (ml.evaluate(pt) + 1) % F.modulus, proof, Transcript(b"t")
        )

    def test_wrong_transcript_rejected(self, committed, pcs, rng):
        """Column indices are transcript-derived; a different transcript
        expects different columns."""
        ml, com, state = committed
        pt = F.rand_vector(8, rng)
        proof = pcs.open(state, pt, Transcript(b"t"))
        assert not pcs.verify(
            com, pt, ml.evaluate(pt), proof, Transcript(b"other")
        )

    def test_wrong_point_rejected(self, committed, pcs, rng):
        ml, com, state = committed
        pt = F.rand_vector(8, rng)
        value = ml.evaluate(pt)
        proof = pcs.open(state, pt, Transcript(b"t"))
        other = F.rand_vector(8, rng)
        assert not pcs.verify(com, other, value, proof, Transcript(b"t"))

    def test_tampered_evaluation_row(self, committed, pcs, rng):
        ml, com, state = committed
        pt = F.rand_vector(8, rng)
        value = ml.evaluate(pt)
        proof = pcs.open(state, pt, Transcript(b"t"))
        bad = dataclasses.replace(
            proof,
            evaluation_rows=[[(v + 1) % F.modulus for v in proof.evaluation_rows[0]]],
        )
        assert not pcs.verify(com, pt, value, bad, Transcript(b"t"))

    def test_tampered_proximity_row(self, committed, pcs, rng):
        ml, com, state = committed
        pt = F.rand_vector(8, rng)
        value = ml.evaluate(pt)
        proof = pcs.open(state, pt, Transcript(b"t"))
        bad = dataclasses.replace(
            proof,
            proximity_row=[(v + 1) % F.modulus for v in proof.proximity_row],
        )
        assert not pcs.verify(com, pt, value, bad, Transcript(b"t"))

    def test_tampered_column_values(self, committed, pcs, rng):
        ml, com, state = committed
        pt = F.rand_vector(8, rng)
        value = ml.evaluate(pt)
        proof = pcs.open(state, pt, Transcript(b"t"))
        col0 = [(v + 1) % F.modulus for v in proof.columns[0]]
        bad = dataclasses.replace(proof, columns=[col0] + list(proof.columns[1:]))
        assert not pcs.verify(com, pt, value, bad, Transcript(b"t"))

    def test_dropped_column_rejected(self, committed, pcs, rng):
        ml, com, state = committed
        pt = F.rand_vector(8, rng)
        value = ml.evaluate(pt)
        proof = pcs.open(state, pt, Transcript(b"t"))
        bad = dataclasses.replace(proof, columns=list(proof.columns[1:]))
        assert not pcs.verify(com, pt, value, bad, Transcript(b"t"))

    def test_wrong_length_rows_rejected(self, committed, pcs, rng):
        ml, com, state = committed
        pt = F.rand_vector(8, rng)
        value = ml.evaluate(pt)
        proof = pcs.open(state, pt, Transcript(b"t"))
        bad = dataclasses.replace(
            proof, evaluation_rows=[proof.evaluation_rows[0][:-1]]
        )
        assert not pcs.verify(com, pt, value, bad, Transcript(b"t"))

    def _with_nodes(self, proof, nodes):
        """``proof`` with its multiproof sibling nodes replaced."""
        return dataclasses.replace(proof, nodes=list(nodes))

    def _opened(self, committed, pcs, rng):
        ml, com, state = committed
        pt = F.rand_vector(8, rng)
        proof = pcs.open(state, pt, Transcript(b"t"))
        assert len(proof.columns) > 2 and len(proof.nodes) > 2
        assert pcs.verify(com, pt, ml.evaluate(pt), proof, Transcript(b"t"))
        return com, pt, ml.evaluate(pt), proof

    def test_tampered_path_sibling_rejected(self, committed, pcs, rng):
        """Every node of the shared authentication path is bound by the fold."""
        com, pt, value, proof = self._opened(committed, pcs, rng)
        for position in range(len(proof.nodes)):
            nodes = list(proof.nodes)
            nodes[position] = bytes(32)
            bad = self._with_nodes(proof, nodes)
            assert not pcs.verify(com, pt, value, bad, Transcript(b"t"))

    def test_tampered_path_leaf_rejected(self, committed, pcs, rng):
        """A leaf is the hash of its column: one changed value moves it."""
        com, pt, value, proof = self._opened(committed, pcs, rng)
        for position in range(len(proof.columns)):
            columns = [list(c) for c in proof.columns]
            columns[position][-1] = (columns[position][-1] + 1) % F.modulus
            bad = dataclasses.replace(proof, columns=columns)
            assert not pcs.verify(com, pt, value, bad, Transcript(b"t"))

    def test_path_index_mismatch_rejected(self, committed, pcs, rng):
        """Column indices come from the transcript: the true columns at
        the neighbouring indices fold to another root."""
        com, pt, value, proof = self._opened(committed, pcs, rng)
        _, _, state = committed
        q = pcs.params.codeword_length
        moved = [
            [row[(j + 1) % q] for row in state.encoded]
            for j in _drawn_columns(pcs, com, [pt], [value], proof, b"t")
        ]
        bad = dataclasses.replace(proof, columns=moved)
        assert not pcs.verify(com, pt, value, bad, Transcript(b"t"))

    def test_swapped_paths_rejected(self, committed, pcs, rng):
        """Valid nodes and columns, attached in the wrong order."""
        com, pt, value, proof = self._opened(committed, pcs, rng)
        nodes = list(proof.nodes)
        nodes[0], nodes[1] = nodes[1], nodes[0]
        assert not pcs.verify(
            com, pt, value, self._with_nodes(proof, nodes), Transcript(b"t")
        )
        columns = list(proof.columns)
        columns[0], columns[1] = columns[1], columns[0]
        bad = dataclasses.replace(proof, columns=columns)
        assert not pcs.verify(com, pt, value, bad, Transcript(b"t"))

    def test_ragged_path_depth_rejected(self, committed, pcs, rng):
        """A node stream one short or one long is a typed ``False``."""
        com, pt, value, proof = self._opened(committed, pcs, rng)
        for nodes in (proof.nodes[:-1], list(proof.nodes) + [bytes(32)]):
            bad = self._with_nodes(proof, nodes)
            assert pcs.verify(com, pt, value, bad, Transcript(b"t")) is False

    def test_missing_path_rejected(self, committed, pcs, rng):
        com, pt, value, proof = self._opened(committed, pcs, rng)
        for bad in (self._with_nodes(proof, []), self._with_nodes(proof, [b""])):
            assert not pcs.verify(com, pt, value, bad, Transcript(b"t"))

    def test_single_opened_column_roundtrip(self, rng):
        """One opened column: the multiproof is that column's whole path."""
        one = BrakedownPCS(F, num_vars=6, seed=3, num_col_checks=1)
        ml = MultilinearPolynomial.random(F, 6, rng)
        com, state = one.commit(ml.evals)
        pt = F.rand_vector(6, rng)
        proof = one.open(state, pt, Transcript(b"t"))
        assert len(proof.columns) == 1
        assert len(proof.nodes) == one.params.merkle_depth
        assert one.verify(com, pt, ml.evaluate(pt), proof, Transcript(b"t"))
        bad = self._with_nodes(proof, [bytes(32)] + list(proof.nodes[1:]))
        assert not one.verify(com, pt, ml.evaluate(pt), bad, Transcript(b"t"))

    def test_substituted_commitment_rejected(self, pcs, rng):
        """Open against one polynomial, verify against another's root."""
        a = MultilinearPolynomial.random(F, 8, rng)
        b = MultilinearPolynomial.random(F, 8, rng)
        com_a, state_a = pcs.commit(a.evals)
        com_b, _ = pcs.commit(b.evals)
        pt = F.rand_vector(8, rng)
        proof = pcs.open(state_a, pt, Transcript(b"t"))
        assert not pcs.verify(com_b, pt, a.evaluate(pt), proof, Transcript(b"t"))

    def test_proof_size_positive(self, committed, pcs, rng):
        _, _, state = committed
        pt = F.rand_vector(8, rng)
        proof = pcs.open(state, pt, Transcript(b"t"))
        assert proof.size_field_elements() > 0
        assert proof.size_bytes(F) > proof.size_field_elements()


def _drawn_columns(pcs, com, points, values, proof, label):
    """Replay the verifier's transcript up to the column draw."""
    transcript = Transcript(label)
    pcs._absorb_claims(transcript, com.root, points, values)
    transcript.challenge_field_vector(b"pcs/proximity", F, pcs.params.num_rows)
    transcript.absorb_field_vector(b"pcs/prox-row", F, proof.proximity_row)
    for row in proof.evaluation_rows:
        transcript.absorb_field_vector(b"pcs/eval-row", F, row)
    return pcs._draw_columns(transcript)


class TestOpenMany:
    """One opening of one commitment at k points (DESIGN decision 25)."""

    @pytest.fixture()
    def claims(self, committed, rng):
        ml, _, _ = committed
        idx = 137
        points = [
            F.rand_vector(8, rng),
            [(idx >> i) & 1 for i in range(8)],
            [0] * 8,
            F.rand_vector(8, rng),
        ]
        return points, [ml.evaluate(pt) for pt in points]

    def test_one_row_per_distinct_row_half(self, committed, pcs, claims):
        """Points 1 and 2 lie in matrix rows 137 >> 4 and 0: boolean row
        halves are plain rows of the matrix."""
        _, _, state = committed
        points, _ = claims
        proof = pcs.open_many(state, points, Transcript(b"k"))
        assert len(proof.evaluation_rows) == 4
        assert proof.evaluation_rows[1] == list(state.matrix[137 >> 4])
        assert proof.evaluation_rows[2] == list(state.matrix[0])
        same_row = [points[2], [1, 0, 0, 0] + [0] * 4]
        shared = pcs.open_many(state, same_row, Transcript(b"k"))
        assert len(shared.evaluation_rows) == 1

    def test_values_match_evaluate(self, committed, pcs, claims):
        _, _, state = committed
        points, values = claims
        (_,), (got,) = pcs.open_many_lanes(state, [points], [Transcript(b"k")])
        assert got == values == [pcs.evaluate(state, pt) for pt in points]

    def test_one_point_is_open(self, committed, pcs, claims):
        _, _, state = committed
        points, _ = claims
        assert pcs.open(state, points[0], Transcript(b"k")) == pcs.open_many(
            state, points[:1], Transcript(b"k")
        )

    def test_lanes_sharing_rows_differently_match_width_one(self, pcs, rng):
        """Lane 1's two points share a row half (in a small field even a
        random point can); lane 0's do not.  Each lane opens as alone."""
        tables = [F.rand_vector(256, rng) for _ in range(2)]
        _, state = pcs.commit_encoded_lanes(pcs.encode_rows_lanes(tables))
        corner = [1, 1, 0, 0, 1, 0, 0, 0]
        points = [[F.rand_vector(8, rng), corner], [[0, 0, 1, 0, 1, 0, 0, 0], corner]]
        proofs, values = pcs.open_many_lanes(
            state, points, [Transcript(b"l"), Transcript(b"l")]
        )
        assert [len(p.evaluation_rows) for p in proofs] == [2, 1]
        for table, pts, proof, vals in zip(tables, points, proofs, values):
            com, alone = pcs.commit(table)
            assert pcs.open_many(alone, pts, Transcript(b"l")) == proof
            assert vals == [pcs.evaluate(alone, pt) for pt in pts]
            assert pcs.verify_many(com, pts, vals, proof, Transcript(b"l"))

    def test_swapped_evaluation_rows_rejected(self, committed, pcs, claims):
        """Point A's row offered for point B, and the proximity row offered
        as an evaluation row."""
        _, com, state = committed
        points, values = claims
        proof = pcs.open_many(state, points, Transcript(b"k"))
        rows = list(proof.evaluation_rows)
        rows[0], rows[1] = rows[1], rows[0]
        swapped = dataclasses.replace(proof, evaluation_rows=rows)
        prox = dataclasses.replace(
            proof,
            proximity_row=proof.evaluation_rows[0],
            evaluation_rows=[proof.proximity_row] + list(proof.evaluation_rows[1:]),
        )
        for bad in (swapped, prox):
            assert not pcs.verify_many(com, points, values, bad, Transcript(b"k"))

    def test_point_count_mismatch_rejected(self, committed, pcs, claims):
        _, com, state = committed
        points, values = claims
        proof = pcs.open_many(state, points, Transcript(b"k"))
        for pts, vals in ((points[:-1], values[:-1]), (points, values[:-1]), ([], [])):
            assert not pcs.verify_many(com, pts, vals, proof, Transcript(b"k"))

    def test_smaller_than_k_openings(self, committed, pcs, claims):
        _, _, state = committed
        points, _ = claims
        together = pcs.open_many(state, points, Transcript(b"k")).size_bytes(F)
        apart = sum(
            pcs.open(state, pt, Transcript(b"k")).size_bytes(F) for pt in points
        )
        assert together < apart / 2

    def _opened(self, committed, pcs, claims):
        """An honest k-point opening, checked to verify."""
        _, com, state = committed
        points, values = claims
        proof = pcs.open_many(state, points, Transcript(b"k"))
        assert pcs.verify_many(com, points, values, proof, Transcript(b"k"))
        return com, points, values, proof

    def test_same_commitment_root(self, committed, pcs):
        """The commitment is the plain column tree: openings add nothing
        to it."""
        _, com, state = committed
        columns = [list(col) for col in zip(*state.encoded)]
        assert com.root == MerkleTree.from_field_vectors(F, columns, pcs.hasher).root

    def test_wrong_value_rejected(self, committed, pcs, claims):
        """A wrong value at any one of the k points fails the opening."""
        com, points, values, proof = self._opened(committed, pcs, claims)
        for k in range(len(points)):
            bad = list(values)
            bad[k] = (bad[k] + 1) % F.modulus
            assert not pcs.verify_many(com, points, bad, proof, Transcript(b"k"))

    def test_tampered_column_rejected(self, committed, pcs, claims):
        com, points, values, proof = self._opened(committed, pcs, claims)
        bad_col = [(v + 1) % F.modulus for v in proof.columns[0]]
        bad = dataclasses.replace(proof, columns=[bad_col] + list(proof.columns[1:]))
        assert not pcs.verify_many(com, points, values, bad, Transcript(b"k"))

    def test_missing_multiproof_rejected(self, committed, pcs, claims):
        """Dropping any one node, or all of them, breaks the fold."""
        com, points, values, proof = self._opened(committed, pcs, claims)
        for drop in range(len(proof.nodes)):
            nodes = proof.nodes[:drop] + proof.nodes[drop + 1:]
            bad = dataclasses.replace(proof, nodes=nodes)
            assert not pcs.verify_many(com, points, values, bad, Transcript(b"k"))
        bad = dataclasses.replace(proof, nodes=[])
        assert not pcs.verify_many(com, points, values, bad, Transcript(b"k"))

    def test_other_column_check_count_raises(self, committed, pcs, claims):
        """A verifier with another column-check count must refuse the
        opening: the parameters are part of the public setup."""
        com, points, values, proof = self._opened(committed, pcs, claims)
        other = BrakedownPCS(F, num_vars=8, seed=2, num_col_checks=8)
        with pytest.raises(CommitmentError):
            other.verify_many(com, points, values, proof, Transcript(b"k"))

    @pytest.fixture(scope="class")
    def snark(self):
        cc = random_circuit(F, 48, seed=71)
        pcs = make_pcs(F, cc.r1cs, num_col_checks=8)
        prover = SnarkProver(cc.r1cs, pcs, public_indices=cc.public_indices)
        verifier = SnarkVerifier(cc.r1cs, pcs, public_indices=cc.public_indices)
        proof = prover.prove(cc.witness, cc.public_values)
        return cc, pcs, verifier, proof

    def test_snark_end_to_end(self, snark):
        cc, _, verifier, proof = snark
        assert verifier.verify(proof, cc.public_values)

    def test_snark_smaller_than_per_point_openings(self, snark):
        """A SNARK proof's one opening, against what per-point openings
        with per-column paths would cost: at least ``k`` proximity rows
        and ``k`` sets of column paths."""
        cc, pcs, _, proof = snark
        k = 2 + len(cc.public_indices)
        opening = proof.opening
        column_paths = len(opening.columns) * (8 + 32 * (1 + pcs.params.merkle_depth))
        per_point = k * (F.byte_length * len(opening.proximity_row) + column_paths)
        assert opening.size_bytes(F) < per_point

    def test_snark_serialization_roundtrip(self, snark):
        cc, pcs, verifier, proof = snark
        blob = serialize_proof(proof, F)
        again = deserialize_proof(blob, F, pcs.params)
        assert again.opening.nodes == proof.opening.nodes
        assert verifier.verify(again, cc.public_values)



class TestParameterVariants:
    @pytest.mark.parametrize("num_vars", [4, 6, 10])
    def test_various_sizes_roundtrip(self, num_vars, rng):
        pcs = BrakedownPCS(F, num_vars=num_vars, seed=1, num_col_checks=6)
        ml = MultilinearPolynomial.random(F, num_vars, rng)
        com, state = pcs.commit(ml.evals)
        pt = F.rand_vector(num_vars, rng)
        proof = pcs.open(state, pt, Transcript(b"t"))
        assert pcs.verify(com, pt, ml.evaluate(pt), proof, Transcript(b"t"))

    def test_unbalanced_split_roundtrip(self, rng):
        pcs = BrakedownPCS(F, num_vars=8, row_vars=2, seed=1, num_col_checks=6)
        ml = MultilinearPolynomial.random(F, 8, rng)
        com, state = pcs.commit(ml.evals)
        pt = F.rand_vector(8, rng)
        proof = pcs.open(state, pt, Transcript(b"t"))
        assert pcs.verify(com, pt, ml.evaluate(pt), proof, Transcript(b"t"))

    def test_mismatched_pcs_params_raise(self, committed):
        _, com, _ = committed
        other = BrakedownPCS(F, num_vars=8, seed=99, num_col_checks=12)
        with pytest.raises(CommitmentError):
            other.verify(com, [0] * 8, 0, None, Transcript(b"t"))  # type: ignore[arg-type]
