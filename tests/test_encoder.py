"""Linear-time encoder tests: sparse matrices, Spielman code, scheduling."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EncodingError
from repro.field import DEFAULT_FIELD
from repro.encoder import (
    EncoderParams,
    MAX_ROW_WEIGHT,
    SparseMatrix,
    SpielmanEncoder,
    WARP_SIZE,
    bucket_sort_rows,
    sorted_schedule,
    sorting_speedup,
    unsorted_schedule,
)

F = DEFAULT_FIELD


class TestSparseMatrix:
    def test_apply_matches_dense(self, rng):
        m = SparseMatrix.random_expander(F, 10, 6, 3, rng)
        x = F.rand_vector(10, rng)
        dense = [[0] * 6 for _ in range(10)]
        for i, row in enumerate(m.rows):
            for j, w in row:
                dense[i][j] = w
        want = [
            sum(x[i] * dense[i][j] for i in range(10)) % F.modulus for j in range(6)
        ]
        assert m.apply(x) == want

    def test_apply_length_check(self, rng):
        m = SparseMatrix.random_expander(F, 4, 4, 2, rng)
        with pytest.raises(EncodingError):
            m.apply([1, 2, 3])

    def test_fixed_row_weight(self, rng):
        m = SparseMatrix.random_expander(F, 20, 50, 7, rng)
        assert all(len(r) == 7 for r in m.rows)
        assert m.nnz == 140

    def test_row_weight_clamped_to_out(self, rng):
        m = SparseMatrix.random_expander(F, 5, 3, 8, rng)
        assert all(len(r) == 3 for r in m.rows)

    def test_distinct_columns_per_row(self, rng):
        m = SparseMatrix.random_expander(F, 30, 40, 10, rng)
        for row in m.rows:
            cols = [j for j, _ in row]
            assert len(set(cols)) == len(cols)

    def test_rejects_row_over_max_weight(self):
        rows = [[(j, 1) for j in range(MAX_ROW_WEIGHT + 1)]]
        with pytest.raises(EncodingError):
            SparseMatrix(F, 1, MAX_ROW_WEIGHT + 1, rows)

    def test_rejects_zero_weight(self):
        with pytest.raises(EncodingError):
            SparseMatrix(F, 1, 2, [[(0, 0)]])

    def test_rejects_bad_column(self):
        with pytest.raises(EncodingError):
            SparseMatrix(F, 1, 2, [[(5, 1)]])

    def test_statistics(self, rng):
        m = SparseMatrix.random_expander(F, 10, 20, 4, rng)
        assert sum(m.column_degrees()) == m.nnz
        assert m.row_lengths() == [4] * 10
        assert 0 < m.density() < 1

    def test_linearity(self, rng):
        m = SparseMatrix.random_expander(F, 8, 8, 3, rng)
        x = F.rand_vector(8, rng)
        y = F.rand_vector(8, rng)
        a, b = F.rand(rng), F.rand(rng)
        combo = [(a * xi + b * yi) % F.modulus for xi, yi in zip(x, y)]
        want = [
            (a * u + b * v) % F.modulus for u, v in zip(m.apply(x), m.apply(y))
        ]
        assert m.apply(combo) == want


class TestEncoderParams:
    def test_defaults_valid(self):
        p = EncoderParams()
        assert p.codeword_length(100) == 200

    def test_rejects_bad_alpha(self):
        with pytest.raises(EncodingError):
            EncoderParams(alpha=0.0)
        with pytest.raises(EncodingError):
            EncoderParams(alpha=1.0)

    def test_rejects_no_parity_room(self):
        with pytest.raises(EncodingError):
            EncoderParams(alpha=0.6, inv_rate=2)  # q(1-a) = 0.8 <= 1

    def test_rejects_rate_one(self):
        with pytest.raises(EncodingError):
            EncoderParams(inv_rate=1)


class TestSpielmanEncoder:
    @pytest.mark.parametrize("n", [16, 33, 64, 200, 512])
    def test_codeword_length_and_systematic(self, n, rng):
        enc = SpielmanEncoder(F, n, seed=1)
        x = F.rand_vector(n, rng)
        cw = enc.encode(x)
        assert len(cw) == 2 * n
        assert cw[:n] == x

    def test_recursive_equals_iterative(self, rng):
        for n in (40, 100, 256):
            enc = SpielmanEncoder(F, n, seed=3)
            x = F.rand_vector(n, rng)
            assert enc.encode(x) == enc.encode_recursive(x)

    def test_base_case_only(self, rng):
        enc = SpielmanEncoder(F, 16, seed=0)  # <= base_size: no stages
        assert enc.num_stages == 0
        x = F.rand_vector(16, rng)
        cw = enc.encode(x)
        assert len(cw) == 32 and cw[:16] == x

    def test_determinism_from_seed(self, rng):
        x = F.rand_vector(128, rng)
        a = SpielmanEncoder(F, 128, seed=9).encode(x)
        b = SpielmanEncoder(F, 128, seed=9).encode(x)
        c = SpielmanEncoder(F, 128, seed=10).encode(x)
        assert a == b
        assert a != c

    def test_linearity(self, rng):
        enc = SpielmanEncoder(F, 100, seed=4)
        x = F.rand_vector(100, rng)
        y = F.rand_vector(100, rng)
        a, b = F.rand(rng), F.rand(rng)
        combo = [(a * xi + b * yi) % F.modulus for xi, yi in zip(x, y)]
        want = [
            (a * u + b * v) % F.modulus
            for u, v in zip(enc.encode(x), enc.encode(y))
        ]
        assert enc.encode(combo) == want

    def test_zero_encodes_to_zero(self):
        enc = SpielmanEncoder(F, 64, seed=2)
        assert enc.encode([0] * 64) == [0] * 128

    def test_distance_smoke(self, rng):
        """Random nonzero messages should produce high-weight codewords —
        a sanity proxy for the expander code's distance."""
        enc = SpielmanEncoder(F, 128, seed=5)
        for _ in range(5):
            x = [0] * 128
            x[rng.randrange(128)] = F.rand_nonzero(rng)
            cw = enc.encode(x)
            nonzero = sum(1 for v in cw if v)
            assert nonzero >= 8  # a single message symbol spreads out

    def test_wrong_length_raises(self):
        enc = SpielmanEncoder(F, 64, seed=0)
        with pytest.raises(EncodingError):
            enc.encode([1] * 63)

    @given(n=st.integers(min_value=33, max_value=300), seed=st.integers(0, 50))
    @settings(max_examples=15, deadline=None)
    def test_property_systematic_and_length(self, n, seed):
        rng = random.Random(seed)
        enc = SpielmanEncoder(F, n, seed=seed)
        x = F.rand_vector(n, rng)
        cw = enc.encode(x)
        assert len(cw) == 2 * n and cw[:n] == x


class TestWarpScheduling:
    def test_bucket_sort_is_sorted(self, rng):
        lens = [rng.randrange(0, 256) for _ in range(500)]
        order = bucket_sort_rows(lens)
        values = [lens[i] for i in order]
        assert values == sorted(values)
        assert sorted(order) == list(range(500))

    def test_bucket_sort_stability(self):
        lens = [5, 3, 5, 3]
        assert bucket_sort_rows(lens) == [1, 3, 0, 2]

    def test_rejects_out_of_range(self):
        with pytest.raises(EncodingError):
            bucket_sort_rows([256])

    def test_sorted_never_worse(self, rng):
        for _ in range(10):
            lens = [rng.randrange(1, 200) for _ in range(rng.randrange(32, 400))]
            assert sorted_schedule(lens).simd_cost <= unsorted_schedule(lens).simd_cost

    def test_uniform_lengths_no_gain(self):
        lens = [17] * 128
        assert sorting_speedup(lens) == 1.0

    def test_work_conservation(self, rng):
        lens = [rng.randrange(1, 100) for _ in range(333)]
        s = sorted_schedule(lens)
        u = unsorted_schedule(lens)
        assert s.total_work == u.total_work == sum(lens)

    def test_warp_partition(self, rng):
        lens = [rng.randrange(1, 50) for _ in range(100)]
        sched = sorted_schedule(lens)
        seen = [i for w in sched.warps for i in w.row_indices]
        assert sorted(seen) == list(range(100))
        assert all(len(w.row_indices) <= WARP_SIZE for w in sched.warps)

    def test_imbalance_at_least_one(self, rng):
        lens = [rng.randrange(1, 256) for _ in range(256)]
        assert sorted_schedule(lens).imbalance >= 1.0

    def test_wasted_lanes_nonnegative(self, rng):
        lens = [rng.randrange(1, 256) for _ in range(77)]
        assert sorted_schedule(lens).wasted_lanes >= 0

    def test_bimodal_lengths_big_gain(self):
        """Alternating short/long rows is the worst case for unsorted."""
        lens = [1, 200] * 64
        assert sorting_speedup(lens) > 1.8
