"""R1CS and circuit-builder tests."""

import pytest

from repro.core import (
    CircuitBuilder,
    R1CS,
    SnarkProver,
    SnarkVerifier,
    make_pcs,
    next_power_of_two,
    random_circuit,
)
from repro.errors import CircuitError
from repro.field import DEFAULT_FIELD, PrimeField, eq_table
from repro.kernels import use_reference_kernels

F = DEFAULT_FIELD


def simple_r1cs():
    """x * y = z with witness [1, x, y, z]."""
    return R1CS(
        F,
        num_vars=4,
        a_rows=[[(1, 1)]],
        b_rows=[[(2, 1)]],
        c_rows=[[(3, 1)]],
    )


class TestR1CSBasics:
    def test_satisfied(self):
        r = simple_r1cs()
        assert r.is_satisfied([1, 3, 4, 12])
        assert not r.is_satisfied([1, 3, 4, 13])

    def test_violations(self):
        r = simple_r1cs()
        assert r.violations([1, 3, 4, 13]) == [0]

    def test_witness_leading_one_enforced(self):
        r = simple_r1cs()
        with pytest.raises(CircuitError):
            r.pad_witness([2, 3, 4, 12])

    def test_witness_length_enforced(self):
        r = simple_r1cs()
        with pytest.raises(CircuitError):
            r.pad_witness([1, 3, 4])

    def test_padded_shapes(self):
        r = simple_r1cs()
        assert r.padded_constraints == 2
        assert r.padded_vars == 4
        assert r.constraint_vars == 1
        assert r.witness_vars == 2

    def test_row_count_mismatch(self):
        with pytest.raises(CircuitError):
            R1CS(F, 4, [[(0, 1)]], [], [])

    def test_column_out_of_range(self):
        with pytest.raises(CircuitError):
            R1CS(F, 2, [[(5, 1)]], [[(0, 1)]], [[(0, 1)]])

    def test_zero_coefficient_rejected(self):
        with pytest.raises(CircuitError):
            R1CS(F, 2, [[(0, F.modulus)]], [[(0, 1)]], [[(0, 1)]])

    def test_digest_binds_structure(self):
        a = simple_r1cs()
        b = R1CS(F, 4, [[(1, 2)]], [[(2, 1)]], [[(3, 1)]])
        assert a.digest() != b.digest()
        assert a.digest() == simple_r1cs().digest()

    def test_nnz(self):
        assert simple_r1cs().nnz() == 3

    def test_next_power_of_two(self):
        assert [next_power_of_two(n) for n in (1, 2, 3, 4, 5, 1023)] == [
            1, 2, 4, 4, 8, 1024,
        ]


class TestMleQueries:
    def test_matvec_tables(self):
        r = simple_r1cs()
        az, bz, cz = r.matvec_tables([1, 3, 4, 12])
        assert az[0] == 3 and bz[0] == 4 and cz[0] == 12
        assert az[1] == bz[1] == cz[1] == 0  # padding rows

    def test_combined_row_table(self, rng):
        r = simple_r1cs()
        point = F.rand_vector(r.constraint_vars, rng)
        eq_x = eq_table(F, point)
        table = r.combined_row_table(eq_x, 1, 0, 0)
        # Only A contributes: T[1] = eq_x[0] * 1.
        assert table[1] == eq_x[0]
        assert table[0] == 0

    def test_combined_row_length_check(self):
        r = simple_r1cs()
        with pytest.raises(CircuitError):
            r.combined_row_table([1], 1, 1, 1)

    def test_mle_eval_consistency(self, rng):
        """M̃ at boolean points equals the matrix entries."""
        r = simple_r1cs()
        eq_x = eq_table(F, [0])  # row 0
        eq_y = eq_table(F, [1, 0])  # column 1
        assert r.mle_eval(r.a_rows, eq_x, eq_y) == 1
        eq_y0 = eq_table(F, [0, 0])
        assert r.mle_eval(r.a_rows, eq_x, eq_y0) == 0

    def test_mle_evals_abc(self, rng):
        r = simple_r1cs()
        px = F.rand_vector(r.constraint_vars, rng)
        py = F.rand_vector(r.witness_vars, rng)
        ma, mb, mc = r.mle_evals_abc(px, py)
        eq_x = eq_table(F, px)
        eq_y = eq_table(F, py)
        assert ma == F.mul(eq_x[0], eq_y[1])
        assert mb == F.mul(eq_x[0], eq_y[2])
        assert mc == F.mul(eq_x[0], eq_y[3])

    @pytest.mark.parametrize("gates", [5, 48, 300])
    def test_mle_evals_abc_vectorised_equals_reference(self, gates, rng):
        """The array route through the transposed edge sets gives the
        values of the ``mle_eval`` double loop, and plain ints."""
        r = random_circuit(F, gates, seed=gates).r1cs
        for _ in range(4):
            px = F.rand_vector(r.constraint_vars, rng)
            py = F.rand_vector(r.witness_vars, rng)
            fast = r.mle_evals_abc(px, py)
            eq_x, eq_y = eq_table(F, px), eq_table(F, py)
            assert fast == tuple(
                r.mle_eval(rows, eq_x, eq_y)
                for rows in (r.a_rows, r.b_rows, r.c_rows)
            )
            with use_reference_kernels():
                assert r.mle_evals_abc(px, py) == fast
            assert all(type(v) is int and 0 <= v < F.modulus for v in fast)

    def test_mle_evals_abc_other_fields_use_the_reference(self, rng):
        small = PrimeField(2**31 - 1, check=False)
        r = random_circuit(small, 20, seed=3).r1cs
        px = small.rand_vector(r.constraint_vars, rng)
        py = small.rand_vector(r.witness_vars, rng)
        eq_x, eq_y = eq_table(small, px), eq_table(small, py)
        assert r.mle_evals_abc(px, py) == tuple(
            r.mle_eval(rows, eq_x, eq_y)
            for rows in (r.a_rows, r.b_rows, r.c_rows)
        )

    def test_verifier_builds_the_edge_sets_at_construction(self):
        """A verifier that never saw a prover is not billed for the edge
        sets on its first ``verify`` — and still rejects a wrong value."""
        cc = random_circuit(F, 40, seed=5)
        pcs = make_pcs(F, cc.r1cs, num_col_checks=4)
        proof = SnarkProver(
            random_circuit(F, 40, seed=5).r1cs, pcs,
            public_indices=cc.public_indices,
        ).prove(cc.witness, cc.public_values)
        assert not hasattr(cc.r1cs, "_f61_cols")
        verifier = SnarkVerifier(cc.r1cs, pcs, public_indices=cc.public_indices)
        assert hasattr(cc.r1cs, "_f61_cols")
        assert verifier.verify(proof, cc.public_values)
        wrong = [(cc.public_values[0] + 1) % F.modulus] + cc.public_values[1:]
        assert not verifier.verify(proof, wrong)


class TestCircuitBuilder:
    def test_mul_chain(self):
        cb = CircuitBuilder(F)
        x = cb.private_input(2)
        acc = x
        for _ in range(5):
            acc = cb.mul(acc, x)
        cb.expose_public(acc)
        r1cs, witness, publics = cb.finalize()
        assert publics == [64]  # 2^6
        assert r1cs.is_satisfied(witness)

    def test_linear_ops_are_free(self):
        cb = CircuitBuilder(F)
        a = cb.private_input(3)
        b = cb.private_input(4)
        s = cb.add(a, b)
        d = cb.sub(a, b)
        sc = cb.scale(s, 10)
        _ = cb.add_constant(d, 100)
        assert cb.num_multiplications == 0
        assert cb.wire_value(sc) == 70

    def test_linear_combination(self):
        cb = CircuitBuilder(F)
        a = cb.private_input(2)
        b = cb.private_input(3)
        lc = cb.linear_combination([(a, 5), (b, 7)])
        assert cb.wire_value(lc) == 31

    def test_assert_equal_ok_and_bad(self):
        cb = CircuitBuilder(F)
        a = cb.private_input(5)
        b = cb.scale(cb.private_input(1), 5)
        cb.assert_equal(a, b)
        r1cs, witness, _ = cb.finalize()
        assert r1cs.is_satisfied(witness)

        cb2 = CircuitBuilder(F)
        with pytest.raises(CircuitError):
            cb2.assert_equal(cb2.private_input(1), cb2.private_input(2))

    def test_assert_boolean(self):
        cb = CircuitBuilder(F)
        cb.assert_boolean(cb.private_input(1))
        cb.assert_boolean(cb.private_input(0))
        r1cs, witness, _ = cb.finalize()
        assert r1cs.is_satisfied(witness)
        cb2 = CircuitBuilder(F)
        with pytest.raises(CircuitError):
            cb2.assert_boolean(cb2.private_input(2))

    def test_square(self):
        cb = CircuitBuilder(F)
        x = cb.private_input(9)
        cb.expose_public(cb.square(x))
        _, _, publics = cb.finalize()
        assert publics == [81]

    def test_constant_wire(self):
        cb = CircuitBuilder(F)
        c = cb.constant(7)
        x = cb.private_input(6)
        cb.expose_public(cb.mul(c, x))
        _, _, publics = cb.finalize()
        assert publics == [42]

    def test_double_finalize_raises(self):
        cb = CircuitBuilder(F)
        cb.mul(cb.private_input(1), cb.private_input(1))
        cb.finalize()
        with pytest.raises(CircuitError):
            cb.finalize()

    def test_mul_after_finalize_raises(self):
        cb = CircuitBuilder(F)
        x = cb.private_input(1)
        cb.mul(x, x)
        cb.finalize()
        with pytest.raises(CircuitError):
            cb.mul(x, x)

    def test_public_indices_bound_in_witness(self):
        cb = CircuitBuilder(F)
        x = cb.private_input(3)
        cb.expose_public(cb.mul(x, x))
        r1cs, witness, publics = cb.finalize()
        assert [witness[i] for i in cb.public_indices] == publics

    def test_sum_wires(self):
        cb = CircuitBuilder(F)
        ws = cb.private_inputs([1, 2, 3, 4])
        assert cb.wire_value(cb.sum_wires(ws)) == 10


class TestRandomCircuit:
    def test_gate_count_exact(self):
        cc = random_circuit(F, 100, seed=1)
        # 100 gates + 1 public-binding constraint row.
        assert cc.r1cs.num_constraints == 101

    def test_satisfiable(self):
        cc = random_circuit(F, 64, seed=2)
        assert cc.r1cs.is_satisfied(cc.witness)

    def test_deterministic(self):
        a = random_circuit(F, 32, seed=3)
        b = random_circuit(F, 32, seed=3)
        assert a.r1cs.digest() == b.r1cs.digest()
        assert a.witness == b.witness

    def test_seed_changes_circuit(self):
        a = random_circuit(F, 32, seed=3)
        b = random_circuit(F, 32, seed=4)
        assert a.r1cs.digest() != b.r1cs.digest()

    def test_too_small_raises(self):
        with pytest.raises(CircuitError):
            random_circuit(F, 1)
