"""Brakedown polynomial-commitment tests."""

import dataclasses

import pytest

from repro.commitment import BrakedownPCS, split_num_vars
from repro.errors import CommitmentError
from repro.field import DEFAULT_FIELD, MultilinearPolynomial
from repro.hashing import Transcript
from repro.merkle import MerklePath

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
            evaluation_row=[(v + 1) % F.modulus for v in proof.evaluation_row],
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
        col0 = dataclasses.replace(
            proof.columns[0],
            values=[(v + 1) % F.modulus for v in proof.columns[0].values],
        )
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
        bad = dataclasses.replace(proof, evaluation_row=proof.evaluation_row[:-1])
        assert not pcs.verify(com, pt, value, bad, Transcript(b"t"))

    def _with_path(self, proof, position, path):
        """``proof`` with the Merkle path of one opened column replaced."""
        columns = list(proof.columns)
        columns[position] = dataclasses.replace(columns[position], path=path)
        return dataclasses.replace(proof, columns=columns)

    def _opened(self, committed, pcs, rng):
        ml, com, state = committed
        pt = F.rand_vector(8, rng)
        proof = pcs.open(state, pt, Transcript(b"t"))
        assert len(proof.columns) > 2
        assert pcs.verify(com, pt, ml.evaluate(pt), proof, Transcript(b"t"))
        return com, pt, ml.evaluate(pt), proof

    def test_tampered_path_sibling_rejected(self, committed, pcs, rng):
        """Every level of every opened path is bound by the batched fold."""
        com, pt, value, proof = self._opened(committed, pcs, rng)
        for position, opening in enumerate(proof.columns):
            for level in range(opening.path.depth):
                sib = list(opening.path.siblings)
                sib[level] = bytes(32)
                bad = self._with_path(
                    proof, position, dataclasses.replace(opening.path, siblings=sib)
                )
                assert not pcs.verify(com, pt, value, bad, Transcript(b"t"))

    def test_tampered_path_leaf_rejected(self, committed, pcs, rng):
        com, pt, value, proof = self._opened(committed, pcs, rng)
        for position, opening in enumerate(proof.columns):
            bad = self._with_path(
                proof, position, dataclasses.replace(opening.path, leaf=bytes(32))
            )
            assert not pcs.verify(com, pt, value, bad, Transcript(b"t"))

    def test_path_index_mismatch_rejected(self, committed, pcs, rng):
        com, pt, value, proof = self._opened(committed, pcs, rng)
        for position, opening in enumerate(proof.columns):
            moved = dataclasses.replace(opening.path, index=opening.index ^ 1)
            bad = self._with_path(proof, position, moved)
            assert not pcs.verify(com, pt, value, bad, Transcript(b"t"))

    def test_swapped_paths_rejected(self, committed, pcs, rng):
        """Valid paths of the same tree, attached to the wrong columns."""
        com, pt, value, proof = self._opened(committed, pcs, rng)
        bad = self._with_path(proof, 0, proof.columns[1].path)
        bad = self._with_path(bad, 1, proof.columns[0].path)
        assert not pcs.verify(com, pt, value, bad, Transcript(b"t"))

    def test_ragged_path_depth_rejected(self, committed, pcs, rng):
        """A path of another depth is a typed ``False``, not an exception."""
        com, pt, value, proof = self._opened(committed, pcs, rng)
        path = proof.columns[0].path
        for siblings in (path.siblings[:-1], path.siblings + [bytes(32)]):
            index = path.index % (1 << len(siblings))
            short = MerklePath(index=index, leaf=path.leaf, siblings=siblings)
            bad = self._with_path(proof, 0, short)
            assert pcs.verify(com, pt, value, bad, Transcript(b"t")) is False

    def test_missing_path_rejected(self, committed, pcs, rng):
        com, pt, value, proof = self._opened(committed, pcs, rng)
        bad = self._with_path(proof, len(proof.columns) - 1, None)
        assert not pcs.verify(com, pt, value, bad, Transcript(b"t"))

    def test_single_opened_column_roundtrip(self, rng):
        """One opened column takes the single-path fallback of the fold."""
        one = BrakedownPCS(F, num_vars=6, seed=3, num_col_checks=1)
        ml = MultilinearPolynomial.random(F, 6, rng)
        com, state = one.commit(ml.evals)
        pt = F.rand_vector(6, rng)
        proof = one.open(state, pt, Transcript(b"t"))
        assert len(proof.columns) == 1
        assert one.verify(com, pt, ml.evaluate(pt), proof, Transcript(b"t"))
        sib = list(proof.columns[0].path.siblings)
        sib[0] = bytes(32)
        bad = self._with_path(
            proof, 0, dataclasses.replace(proof.columns[0].path, siblings=sib)
        )
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
