"""Sum-check protocol tests: Algorithm 1, product sum-check, verifiers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SumcheckError
from repro.field import DEFAULT_FIELD, MultilinearPolynomial
from repro.sumcheck import (
    MultilinearSumcheckProver,
    ProductSumcheckProver,
    RoundCheckFailure,
    evaluation_point,
    prove_multilinear,
    verify_multilinear,
    verify_multilinear_rounds,
    verify_product,
    verify_product_rounds,
)

F = DEFAULT_FIELD


def random_instance(rng, n=5):
    ml = MultilinearPolynomial.random(F, n, rng)
    rs = F.rand_vector(n, rng)
    return ml, rs


class TestAlgorithm1:
    def test_proof_shape(self, rng):
        ml, rs = random_instance(rng, 6)
        proof = prove_multilinear(F, ml.evals, rs)
        assert len(proof) == 6
        assert all(len(pair) == 2 for pair in proof)

    def test_first_round_sums_to_h(self, rng):
        ml, rs = random_instance(rng)
        proof = prove_multilinear(F, ml.evals, rs)
        pi11, pi12 = proof[0]
        assert (pi11 + pi12) % F.modulus == ml.hypercube_sum()

    def test_completeness(self, rng):
        for n in (1, 2, 4, 7):
            ml, rs = random_instance(rng, n)
            proof = prove_multilinear(F, ml.evals, rs)
            oracle = ml.evaluate(evaluation_point(rs))
            assert verify_multilinear(F, ml.hypercube_sum(), proof, rs, oracle)

    def test_wrong_claim_rejected(self, rng):
        ml, rs = random_instance(rng)
        proof = prove_multilinear(F, ml.evals, rs)
        oracle = ml.evaluate(evaluation_point(rs))
        bad = (ml.hypercube_sum() + 1) % F.modulus
        assert not verify_multilinear(F, bad, proof, rs, oracle)

    def test_tampered_round_rejected(self, rng):
        ml, rs = random_instance(rng)
        proof = prove_multilinear(F, ml.evals, rs)
        oracle = ml.evaluate(evaluation_point(rs))
        for i in range(len(proof)):
            bad = list(proof)
            bad[i] = ((bad[i][0] + 1) % F.modulus, bad[i][1])
            assert not verify_multilinear(F, ml.hypercube_sum(), bad, rs, oracle)

    def test_wrong_oracle_rejected(self, rng):
        ml, rs = random_instance(rng)
        proof = prove_multilinear(F, ml.evals, rs)
        oracle = (ml.evaluate(evaluation_point(rs)) + 1) % F.modulus
        assert not verify_multilinear(F, ml.hypercube_sum(), proof, rs, oracle)

    def test_bad_table_length(self):
        with pytest.raises(SumcheckError):
            prove_multilinear(F, [1, 2, 3], [0, 0])

    def test_wrong_random_count(self):
        with pytest.raises(SumcheckError):
            prove_multilinear(F, [1, 2, 3, 4], [1])

    @given(n=st.integers(min_value=1, max_value=6), seed=st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_property_completeness(self, n, seed):
        import random as _random

        rng = _random.Random(seed)
        ml = MultilinearPolynomial.random(F, n, rng)
        rs = F.rand_vector(n, rng)
        proof = prove_multilinear(F, ml.evals, rs)
        oracle = ml.evaluate(evaluation_point(rs))
        assert verify_multilinear(F, ml.hypercube_sum(), proof, rs, oracle)


class TestRoundAtATimeProver:
    def test_matches_oneshot(self, rng):
        ml, rs = random_instance(rng, 5)
        prover = MultilinearSumcheckProver(F, ml.evals)
        rounds = [prover.round(r) for r in rs]
        assert rounds == prove_multilinear(F, ml.evals, rs)

    def test_final_value_is_evaluation(self, rng):
        ml, rs = random_instance(rng, 5)
        prover = MultilinearSumcheckProver(F, ml.evals)
        for r in rs:
            prover.round(r)
        assert prover.final_value() == ml.evaluate(evaluation_point(rs))

    def test_round_message_does_not_advance(self, rng):
        ml, _ = random_instance(rng, 4)
        prover = MultilinearSumcheckProver(F, ml.evals)
        assert prover.round_message() == prover.round_message()
        assert prover.rounds_remaining == 4

    def test_too_many_rounds(self, rng):
        ml, rs = random_instance(rng, 3)
        prover = MultilinearSumcheckProver(F, ml.evals)
        for r in rs:
            prover.round(r)
        with pytest.raises(SumcheckError):
            prover.round(0)

    def test_early_finalize_raises(self, rng):
        ml, _ = random_instance(rng, 3)
        prover = MultilinearSumcheckProver(F, ml.evals)
        with pytest.raises(SumcheckError):
            prover.final_value()


class TestProductSumcheck:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_completeness_degree_k(self, rng, k):
        n = 4
        factors = [MultilinearPolynomial.random(F, n, rng) for _ in range(k)]
        prover = ProductSumcheckProver(F, [f.evals for f in factors])
        claimed = prover.claimed_sum
        rounds, chals = [], []
        for _ in range(n):
            rounds.append(prover.round_polynomial())
            r = F.rand(rng)
            chals.append(r)
            prover.fold(r)
        final = verify_product_rounds(F, claimed, rounds, chals, k)
        pt = evaluation_point(chals)
        want = 1
        for f in factors:
            want = (want * f.evaluate(pt)) % F.modulus
        assert final == want == prover.final_value()

    def test_single_factor_equals_algorithm1(self, rng):
        ml, rs = random_instance(rng, 4)
        pp = ProductSumcheckProver(F, [ml.evals])
        pairs = prove_multilinear(F, ml.evals, rs)
        for (pi1, pi2), r in zip(pairs, rs):
            evals = pp.round_polynomial()
            assert evals == [pi1, pi2]
            pp.fold(r)

    def test_claimed_sum_is_product_sum(self, rng):
        a = MultilinearPolynomial.random(F, 3, rng)
        b = MultilinearPolynomial.random(F, 3, rng)
        pp = ProductSumcheckProver(F, [a.evals, b.evals])
        want = sum(x * y for x, y in zip(a.evals, b.evals)) % F.modulus
        assert pp.claimed_sum == want

    def test_final_factor_values(self, rng):
        a = MultilinearPolynomial.random(F, 3, rng)
        b = MultilinearPolynomial.random(F, 3, rng)
        pp = ProductSumcheckProver(F, [a.evals, b.evals])
        chals = []
        for _ in range(3):
            r = F.rand(rng)
            pp.round(r)
            chals.append(r)
        pt = evaluation_point(chals)
        assert pp.final_factor_values() == [a.evaluate(pt), b.evaluate(pt)]

    def test_mismatched_lengths(self):
        with pytest.raises(SumcheckError):
            ProductSumcheckProver(F, [[1, 2, 3, 4], [1, 2]])

    def test_empty_factors(self):
        with pytest.raises(SumcheckError):
            ProductSumcheckProver(F, [])

    def test_verify_product_full(self, rng):
        a = MultilinearPolynomial.random(F, 4, rng)
        b = MultilinearPolynomial.random(F, 4, rng)
        pp = ProductSumcheckProver(F, [a.evals, b.evals])
        claimed = pp.claimed_sum
        rounds, chals = [], []
        for _ in range(4):
            rounds.append(pp.round_polynomial())
            r = F.rand(rng)
            chals.append(r)
            pp.fold(r)
        oracle = pp.final_value()
        assert verify_product(F, claimed, rounds, chals, 2, oracle)
        assert not verify_product(F, claimed, rounds, chals, 2, oracle + 1)


class TestVerifierEdgeCases:
    def test_round_check_failure_details(self, rng):
        ml, rs = random_instance(rng, 3)
        proof = prove_multilinear(F, ml.evals, rs)
        bad = [((p[0] + 1) % F.modulus, p[1]) for p in proof[:1]] + list(proof[1:])
        with pytest.raises(RoundCheckFailure) as exc:
            verify_multilinear_rounds(F, ml.hypercube_sum(), bad, rs)
        assert exc.value.round_index == 0

    def test_mismatched_round_count(self):
        with pytest.raises(SumcheckError):
            verify_multilinear_rounds(F, 0, [(0, 0)], [1, 2])

    def test_wrong_eval_count_in_product(self):
        with pytest.raises(SumcheckError):
            verify_product_rounds(F, 0, [[0, 0, 0]], [1], degree=3)
