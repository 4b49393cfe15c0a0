"""Hot-path kernel layer tests (S26): golden parity, caches, profiling.

Three properties pin the layer down:

1. **Golden parity** — every fast kernel matches its naive reference
   twin element-for-element (the twins are the pre-kernel code paths).
2. **Byte identity** — end-to-end proofs from the kernelized prover
   serialize to the same bytes as reference-path proofs, across every
   execution backend.
3. **Observability** — stage profiles attach to task records and a
   single JSONL trace reconstructs a per-stage cost breakdown.
"""

import io
import pickle
import random

import numpy as np
import pytest

from repro.commitment.brakedown import BrakedownPCS
from repro.core import ProofTask, SnarkProver, SnarkVerifier, random_circuit
from repro.core.constraint import ConstraintSumcheckProver
from repro.core.serialize import serialize_proof
from repro.encoder.spielman import SpielmanEncoder
from repro.errors import ExecutionError
from repro.execution import resolve_backend, stage_breakdown
from repro.execution.trace import load_trace
from repro.field import DEFAULT_FIELD, PrimeField
from repro.field import fast61
from repro.field.multilinear import MultilinearPolynomial
from repro.field.primes import MERSENNE61
from repro.hashing.hashers import get_hasher
from repro.kernels import (
    EncoderCache,
    SpecCache,
    collect_stages,
    default_spec_cache,
    exclusive_stage_seconds,
    field_kernels,
    kernels_enabled,
    spec_cache_key,
    stage,
    use_reference_kernels,
)
from repro.merkle.tree import BLOCK_SIZE, MerkleTree, pad_leaves
from repro.runtime import JsonlTraceSink, ProverSpec
from repro.sumcheck.prover import ProductSumcheckProver

F = DEFAULT_FIELD
P = MERSENNE61


def _rand_vec(rng, n, p=P):
    return [rng.randrange(p) for _ in range(n)]


# -- fast61 numpy primitives --------------------------------------------------


class TestFast61:
    EDGE = [0, 1, 2, P - 1, P - 2, (1 << 32) - 1, (1 << 32) + 1, 1 << 60]

    def test_mul_exact_on_edge_pairs(self):
        a = np.array([x for x in self.EDGE for _ in self.EDGE], dtype=np.uint64)
        b = np.array(self.EDGE * len(self.EDGE), dtype=np.uint64)
        got = fast61.f61_mul(a, b).tolist()
        want = [(int(x) * int(y)) % P for x, y in zip(a, b)]
        assert got == want

    def test_add_sub_random(self, rng):
        a = np.array(_rand_vec(rng, 257), dtype=np.uint64)
        b = np.array(_rand_vec(rng, 257), dtype=np.uint64)
        assert fast61.f61_add(a, b).tolist() == [
            (int(x) + int(y)) % P for x, y in zip(a, b)
        ]
        assert fast61.f61_sub(a, b).tolist() == [
            (int(x) - int(y)) % P for x, y in zip(a, b)
        ]

    def test_sum_and_dot_exact(self, rng):
        # Worst case for uint64 accumulation: many near-p values.
        a = np.array([P - 1 - i for i in range(1000)], dtype=np.uint64)
        b = np.array(_rand_vec(rng, 1000), dtype=np.uint64)
        assert fast61.f61_sum(a) == sum(int(x) for x in a) % P
        assert fast61.f61_dot(a, b) == (
            sum(int(x) * int(y) for x, y in zip(a, b)) % P
        )

    def test_columns_sum(self, rng):
        m = np.array(
            [_rand_vec(rng, 33) for _ in range(65)], dtype=np.uint64
        )
        want = [
            sum(int(m[i, j]) for i in range(65)) % P for j in range(33)
        ]
        assert fast61.f61_columns_sum(m).tolist() == want

    def test_spmv_matches_naive(self, rng):
        n_in, n_out, nnz = 40, 30, 200
        src = [rng.randrange(n_in) for _ in range(nnz)]
        dst = [rng.randrange(n_out) for _ in range(nnz)]
        w = _rand_vec(rng, nnz)
        op = fast61.F61SpMV(src, dst, w, n_in, n_out)
        x = _rand_vec(rng, n_in)
        want = [0] * n_out
        for s, d, ww in zip(src, dst, w):
            want[d] = (want[d] + x[s] * ww) % P
        assert op.apply_list(x) == want
        batch = np.array([_rand_vec(rng, n_in) for _ in range(5)], dtype=np.uint64)
        got = op.apply_batch(batch)
        for row_in, row_out in zip(batch, got):
            assert op.apply(row_in).tolist() == row_out.tolist()

    def test_spmv_empty_edges(self):
        op = fast61.F61SpMV([], [], [], 4, 6)
        assert op.apply_list([1, 2, 3, 4]) == [0] * 6


# -- field kernels vs reference twins -----------------------------------------


FIELDS = [F, PrimeField(2**31 - 1, check=False), PrimeField(97, check=False)]


class TestFieldKernelParity:
    @pytest.mark.parametrize("field", FIELDS, ids=["m61", "m31", "p97"])
    @pytest.mark.parametrize("n", [2, 64, 256])
    def test_fold_table(self, field, n, rng):
        table = _rand_vec(rng, n, field.modulus)
        r = rng.randrange(field.modulus)
        assert field_kernels.fold_table(
            field, table, r
        ) == field_kernels._reference_fold_table(field, table, r)

    def test_fold_table_preserves_arrays(self, rng):
        table = np.array(_rand_vec(rng, 8), dtype=np.uint64)
        r = rng.randrange(P)
        out = field_kernels.fold_table(F, table, r)
        assert isinstance(out, np.ndarray)
        assert out.tolist() == field_kernels._reference_fold_table(
            F, table.tolist(), r
        )

    @pytest.mark.parametrize("field", FIELDS, ids=["m61", "m31", "p97"])
    @pytest.mark.parametrize("n", [1, 3, 7])
    def test_eq_table(self, field, n, rng):
        point = _rand_vec(rng, n, field.modulus)
        fast = field_kernels.eq_table(field, point)
        # Arrays are the native table form over M61 (any length), lists
        # everywhere else.
        assert isinstance(fast, np.ndarray if field is F else list)
        assert fast61.to_ints(fast) == field_kernels._reference_eq_table(
            field, point
        )

    @pytest.mark.parametrize("field", FIELDS, ids=["m61", "m31", "p97"])
    @pytest.mark.parametrize("shape", [(3, 5), (17, 64), (64, 128)])
    def test_combine_rows(self, field, shape, rng):
        rows, width = shape
        matrix = [_rand_vec(rng, width, field.modulus) for _ in range(rows)]
        coeffs = _rand_vec(rng, rows, field.modulus)
        coeffs[0] = 0  # exercise the zero-coefficient skip
        assert field_kernels.combine_rows(
            field, matrix, coeffs
        ) == field_kernels._reference_combine_rows(field, matrix, coeffs)

    @pytest.mark.parametrize("field", FIELDS, ids=["m61", "m31", "p97"])
    def test_spmv(self, field, rng):
        p = field.modulus
        rows = [
            [(rng.randrange(12), rng.randrange(p)) for _ in range(3)]
            for _ in range(8)
        ]
        x = _rand_vec(rng, 8, p)
        assert field_kernels.spmv(
            field, rows, x, 12
        ) == field_kernels._reference_spmv(field, rows, x, 12)

    @pytest.mark.parametrize("field", FIELDS, ids=["m61", "m31", "p97"])
    @pytest.mark.parametrize("n", [4, 64])
    def test_round_kernels(self, field, n, rng):
        p = field.modulus
        ta, tb = _rand_vec(rng, n, p), _rand_vec(rng, n, p)
        eq, az = _rand_vec(rng, n, p), _rand_vec(rng, n, p)
        bz, cz = _rand_vec(rng, n, p), _rand_vec(rng, n, p)
        with use_reference_kernels():
            quad = field_kernels.product_round_quadratic(field, ta, tb)
            cubic = field_kernels.constraint_round_cubic(field, eq, az, bz, cz)
            pair = field_kernels.product_pair_sum(field, ta, tb)
            claim = field_kernels.constraint_claimed_sum(field, eq, az, bz, cz)
            viol = field_kernels.constraint_violation(field, az, bz, cz)
        assert field_kernels.product_round_quadratic(field, ta, tb) == quad
        assert (
            field_kernels.constraint_round_cubic(field, eq, az, bz, cz) == cubic
        )
        assert field_kernels.product_pair_sum(field, ta, tb) == pair
        assert (
            field_kernels.constraint_claimed_sum(field, eq, az, bz, cz) == claim
        )
        assert field_kernels.constraint_violation(field, az, bz, cz) == viol

    def test_constraint_violation_detects(self):
        az, bz, cz = [2] * 64, [3] * 64, [6] * 64
        assert not field_kernels.constraint_violation(F, az, bz, cz)
        cz[17] = 7
        assert field_kernels.constraint_violation(F, az, bz, cz)

    @pytest.mark.parametrize("field", FIELDS, ids=["m61", "m31", "p97"])
    @pytest.mark.parametrize("n", [8, 64])
    def test_evaluate_table(self, field, n, rng):
        table = _rand_vec(rng, n, field.modulus)
        point = _rand_vec(rng, n.bit_length() - 1, field.modulus)
        want = field_kernels.evaluate_table_bits(field, table, point)
        got = field_kernels.evaluate_table(field, table, point)
        assert got == want
        assert isinstance(got, int) and not isinstance(got, np.integer)

    @pytest.mark.parametrize("field", FIELDS, ids=["m61", "m31", "p97"])
    def test_pack_vector(self, field, rng):
        values = _rand_vec(rng, 50, field.modulus)
        assert field_kernels.pack_vector(
            field, values
        ) == field_kernels._reference_pack_vector(field, values)

    def test_pack_vector_noncanonical_falls_back(self):
        # Negative and >= p values must reduce exactly like to_bytes.
        values = [-1, P + 5, 3]
        assert field_kernels.pack_vector(
            F, values
        ) == field_kernels._reference_pack_vector(F, values)

    def test_dispatch_toggle(self):
        assert kernels_enabled()
        with use_reference_kernels():
            assert not kernels_enabled()
        assert kernels_enabled()


# -- merkle / encoder integration ---------------------------------------------


class TestMerkleAndEncoder:
    def test_pad_leaves_filler_is_memoized(self):
        hasher = get_hasher("sha256")
        filler = hasher.zero_digest(BLOCK_SIZE)
        assert filler == hasher.hash_bytes(bytes(BLOCK_SIZE))
        assert hasher.zero_digest(BLOCK_SIZE) is filler  # cached object
        padded = pad_leaves([bytes([1]) * 32] * 3, hasher)
        assert padded[3] == filler

    def test_from_field_vectors_matches_manual(self, rng):
        cols = [_rand_vec(rng, 4) for _ in range(6)]
        tree = MerkleTree.from_field_vectors(F, cols)
        manual = MerkleTree(
            [
                tree.hasher.hash_bytes(
                    b"\x00" + b"".join(F.to_bytes(v) for v in col)
                )
                for col in cols
            ],
            tree.hasher,
        )
        assert tree.root == manual.root

    def test_sparse_apply_parity(self, rng):
        enc = SpielmanEncoder(F, 64, seed=5)
        msg = _rand_vec(rng, 64)
        fast = enc.encode(msg)
        with use_reference_kernels():
            ref = SpielmanEncoder(F, 64, seed=5).encode(msg)
        assert fast == ref

    def test_encode_many_parity(self, rng):
        enc = SpielmanEncoder(F, 64, seed=5)
        messages = [_rand_vec(rng, 64) for _ in range(5)]
        assert enc.encode_many(messages) == [enc.encode(m) for m in messages]

    def test_encode_many_single_message(self, rng):
        enc = SpielmanEncoder(F, 32, seed=1)
        msg = _rand_vec(rng, 32)
        assert enc.encode_many([msg]) == [enc.encode(msg)]


# -- sum-check array state ----------------------------------------------------


class TestSumcheckArrayState:
    def _drive(self, prover, rng):
        out = []
        while prover.rounds_remaining:
            out.append(prover.round_polynomial())
            prover.fold(rng.randrange(P))
        return out

    def test_constraint_prover_array_matches_list(self):
        rng_a, rng_b = random.Random(7), random.Random(7)
        n = 256
        eq = _rand_vec(random.Random(1), n)
        az = _rand_vec(random.Random(2), n)
        bz = _rand_vec(random.Random(3), n)
        cz = _rand_vec(random.Random(4), n)
        fast = ConstraintSumcheckProver(F, eq, az, bz, cz)
        assert isinstance(fast._eq, np.ndarray)
        with use_reference_kernels():
            ref = ConstraintSumcheckProver(F, eq, az, bz, cz)
        assert isinstance(ref._eq, list)
        assert fast.claimed_sum == ref.claimed_sum
        rounds_fast = self._drive(fast, rng_a)
        with use_reference_kernels():
            rounds_ref = self._drive(ref, rng_b)
        assert rounds_fast == rounds_ref
        finals = fast.final_values()
        assert finals == ref.final_values()
        assert all(type(v) is int for v in finals)

    def test_product_prover_array_matches_list(self):
        rng_a, rng_b = random.Random(9), random.Random(9)
        ta = _rand_vec(random.Random(5), 256)
        tb = _rand_vec(random.Random(6), 256)
        fast = ProductSumcheckProver(F, [ta, tb])
        assert isinstance(fast._tables[0], np.ndarray)
        with use_reference_kernels():
            ref = ProductSumcheckProver(F, [ta, tb])
        assert fast.claimed_sum == ref.claimed_sum
        rounds_fast = self._drive(fast, rng_a)
        with use_reference_kernels():
            rounds_ref = self._drive(ref, rng_b)
        assert rounds_fast == rounds_ref
        finals = fast.final_factor_values()
        assert finals == ref.final_factor_values()
        assert all(type(v) is int for v in finals)

    def test_degree_three_product_stays_on_lists(self):
        tables = [_rand_vec(random.Random(i), 64) for i in range(3)]
        prover = ProductSumcheckProver(F, tables)
        assert isinstance(prover._tables[0], list)

    def test_negative_inputs_are_reduced(self):
        n = 256
        eq = [-1] * n
        az = bz = cz = [1] * n
        prover = ConstraintSumcheckProver(F, eq, az, bz, cz)
        assert isinstance(prover._eq, np.ndarray)
        assert prover._eq.tolist() == [P - 1] * n
        assert prover.claimed_sum == 0


# -- multilinear evaluation ---------------------------------------------------


class TestMultilinearEvaluate:
    @pytest.mark.parametrize("n", [1, 4, 7])
    def test_fold_evaluation_matches_bits_reference(self, n, rng):
        table = _rand_vec(rng, 1 << n)
        poly = MultilinearPolynomial(F, table)
        point = _rand_vec(rng, n)
        want = field_kernels.evaluate_table_bits(F, table, point)
        assert poly.evaluate(point) == want


# -- spec cache ---------------------------------------------------------------


class TestSpecCache:
    def test_value_keyed_hit(self):
        circ = random_circuit(F, 64, seed=2)
        spec_a = ProverSpec(
            r1cs=circ.r1cs, public_indices=tuple(circ.public_indices)
        )
        spec_b = ProverSpec(  # distinct object, identical value
            r1cs=circ.r1cs, public_indices=tuple(circ.public_indices)
        )
        assert spec_cache_key(spec_a) == spec_cache_key(spec_b)
        cache = SpecCache(maxsize=4)
        p1 = cache.get_prover(spec_a)
        p2 = cache.get_prover(spec_b)
        assert p1 is p2
        assert cache.hits == 1 and cache.misses == 1

    def test_different_knobs_miss(self):
        circ = random_circuit(F, 64, seed=2)
        cache = SpecCache(maxsize=4)
        cache.get_prover(ProverSpec(r1cs=circ.r1cs))
        cache.get_prover(ProverSpec(r1cs=circ.r1cs, num_col_checks=6))
        assert cache.misses == 2 and cache.hits == 0

    def test_lru_bound(self):
        cache = SpecCache(maxsize=1)
        for seed in (1, 2):
            circ = random_circuit(F, 64, seed=seed)
            cache.get_prover(ProverSpec(r1cs=circ.r1cs))
        assert len(cache) == 1

    def test_default_cache_is_shared(self):
        assert default_spec_cache() is default_spec_cache()


class TestEncoderCache:
    def test_hit_returns_same_graph_and_counts(self):
        cache = EncoderCache(maxsize=4)
        e1 = cache.get(F, 16, None, 7)
        e2 = cache.get(F, 16, None, 7)
        assert e1 is e2
        assert cache.hits == 1 and cache.misses == 1 and len(cache) == 1

    def test_lru_bound_and_eviction_stats(self):
        cache = EncoderCache(maxsize=2)
        for seed in (1, 2, 3):
            cache.get(F, 16, None, seed)
        assert len(cache) == 2
        assert cache.evictions == 1
        # Seed 1 was the least recently used entry — rebuilt on return.
        assert cache.get(F, 16, None, 1) is not None
        assert cache.misses == 4

    def test_recency_ordering_protects_hot_entries(self):
        # The pre-LRU memo evicted in insertion order, so the hottest
        # graph was dropped first; a hit must now refresh recency.
        cache = EncoderCache(maxsize=2)
        hot = cache.get(F, 16, None, 1)
        cache.get(F, 16, None, 2)
        assert cache.get(F, 16, None, 1) is hot  # refresh recency
        cache.get(F, 16, None, 3)  # evicts seed 2, not the hot seed 1
        assert cache.get(F, 16, None, 1) is hot
        assert cache.hits == 2

    def test_eviction_actually_frees_entries(self):
        import gc
        import weakref

        cache = EncoderCache(maxsize=1)
        ref = weakref.ref(cache.get(F, 16, None, 100))
        assert ref() is not None
        cache.get(F, 16, None, 101)  # evicts seed 100
        gc.collect()
        assert ref() is None, "evicted encoder still referenced"

    def test_default_encoder_cache_backs_cached_encoder(self):
        from repro.kernels import cached_encoder, default_encoder_cache

        cache = default_encoder_cache()
        before = cache.hits + cache.misses
        e1 = cached_encoder(F, 16, None, 12345)
        e2 = cached_encoder(F, 16, None, 12345)
        assert e1 is e2
        assert cache.hits + cache.misses >= before + 2


# -- stage profiling ----------------------------------------------------------


class TestStageProfile:
    def test_collect_and_nest(self):
        with collect_stages() as profile:
            with stage("commit"):
                with stage("merkle"):
                    pass
        assert set(profile.seconds) == {"commit", "merkle"}
        assert profile.seconds["commit"] >= profile.seconds["merkle"]

    def test_noop_without_collector(self):
        with stage("merkle"):
            pass  # must not raise or record anywhere

    def test_prove_records_all_stages(self):
        circ = random_circuit(F, 128, seed=3)
        prover = SnarkProver(circ.r1cs, public_indices=circ.public_indices)
        with collect_stages() as profile:
            prover.prove(circ.witness, circ.public_values)
        assert {"commit", "encode", "merkle", "sumcheck1", "sumcheck2",
                "open"} <= set(profile.seconds)
        ordered = list(profile.as_dict())
        assert ordered[:3] == ["commit", "encode", "merkle"]


# -- trace reconstruction -----------------------------------------------------


class TestStageTrace:
    def _run(self, selector):
        circ = random_circuit(F, 128, seed=4)
        spec = ProverSpec(
            r1cs=circ.r1cs, public_indices=tuple(circ.public_indices)
        )
        tasks = [
            ProofTask(i, circ.witness, circ.public_values) for i in range(3)
        ]
        buf = io.StringIO()
        sink = JsonlTraceSink(buf)
        backend = resolve_backend(selector)
        proofs, stats = backend.prove_tasks(spec, tasks, trace=sink)
        return buf.getvalue(), stats

    def test_serial_breakdown_from_single_jsonl(self):
        text, stats = self._run("serial")
        events = load_trace(text.splitlines())
        per_task = stage_breakdown(events, task_id=1)
        assert {"commit", "sumcheck1", "sumcheck2", "open"} <= set(per_task)
        # Records keep the raw inclusive profile; the replay's default is
        # the exclusive (summable) view of the same numbers.
        record = next(r for r in stats.records if r.task_id == 1)
        assert record.stage_seconds == stage_breakdown(
            events, task_id=1, exclusive=False
        )
        assert per_task == exclusive_stage_seconds(record.stage_seconds)
        totals = stage_breakdown(events)
        assert totals == stats.stage_totals()
        assert stage_breakdown(events, exclusive=False) == stats.stage_totals(
            exclusive=False
        )
        assert totals["commit"] >= per_task["commit"]

    def test_pool_breakdown(self):
        text, stats = self._run("pool:2")
        events = load_trace(text.splitlines())
        assert stage_breakdown(events) == stats.stage_totals()
        assert all(r.stage_seconds for r in stats.records)

    def test_exclusive_totals_never_double_count(self):
        _, stats = self._run("serial")
        incl = stats.stage_totals(exclusive=False)
        excl = stats.stage_totals()
        # The historical bug: summing the inclusive dict counts the
        # commit phase twice (commit ⊇ encode + merkle).
        assert excl["commit"] == pytest.approx(
            max(0.0, incl["commit"] - incl["encode"] - incl["merkle"])
        )
        for name in ("encode", "merkle", "sumcheck1", "sumcheck2", "open"):
            assert excl[name] == incl[name]
        assert sum(excl.values()) < sum(incl.values())
        # Exclusive fractions are shares of proving wall time: their sum
        # never exceeds the summed in-stage proving seconds.
        prove_wall = sum(r.prove_seconds for r in stats.records)
        assert sum(excl.values()) <= prove_wall + 1e-9

    def test_report_split_sums_to_at_most_wall(self):
        _, stats = self._run("serial")
        split_line = next(
            line for line in stats.report().splitlines()
            if line.startswith("stage split")
        )
        shown = sum(
            float(tok[:-2]) for tok in split_line.split() if tok.endswith("ms")
        )
        prove_wall = sum(r.prove_seconds for r in stats.records) * 1e3
        assert shown <= prove_wall * 1.01 + 0.1  # rounding slack

    def test_missing_task_raises(self):
        text, _ = self._run("serial")
        events = load_trace(text.splitlines())
        with pytest.raises(ExecutionError):
            stage_breakdown(events, task_id=999)

    def test_report_includes_stage_split(self):
        _, stats = self._run("serial")
        assert "stage split" in stats.report()


# -- end-to-end byte identity -------------------------------------------------


class TestByteIdentity:
    def _reference_proof(self, circ):
        with use_reference_kernels():
            prover = SnarkProver(
                circ.r1cs,
                BrakedownPCS(F, num_vars=circ.r1cs.witness_vars),
                public_indices=circ.public_indices,
            )
            return prover.prove(circ.witness, circ.public_values)

    def test_single_proof_byte_identical_and_verifies(self):
        circ = random_circuit(F, 256, seed=6)
        ref = self._reference_proof(circ)
        prover = SnarkProver(
            circ.r1cs,
            BrakedownPCS(F, num_vars=circ.r1cs.witness_vars),
            public_indices=circ.public_indices,
        )
        fast = prover.prove(circ.witness, circ.public_values)
        assert serialize_proof(fast, F) == serialize_proof(ref, F)
        verifier = SnarkVerifier(circ.r1cs, public_indices=circ.public_indices)
        assert verifier.verify(fast, circ.public_values)

    @pytest.mark.parametrize(
        "selector",
        ["serial", "pool:2", "sharded:serial,serial", "resilient:serial"],
    )
    def test_backends_byte_identical_to_reference(self, selector):
        circ = random_circuit(F, 128, seed=8)
        spec = ProverSpec(
            r1cs=circ.r1cs, public_indices=tuple(circ.public_indices)
        )
        tasks = [
            ProofTask(i, circ.witness, circ.public_values) for i in range(4)
        ]
        ref = self._reference_proof_for_spec(spec, circ)
        backend = resolve_backend(selector)
        proofs, _ = backend.prove_tasks(spec, tasks)
        for proof in proofs:
            assert serialize_proof(proof, F) == ref

    def _reference_proof_for_spec(self, spec, circ):
        with use_reference_kernels():
            proof = spec.build_prover().prove(
                circ.witness, circ.public_values
            )
            return serialize_proof(proof, F)


# -- pickling ------------------------------------------------------------------


class TestR1csPickle:
    def test_f61_caches_dropped_and_rebuilt(self):
        circ = random_circuit(F, 64, seed=10)
        r1cs = circ.r1cs
        z = r1cs.pad_witness(circ.witness)
        before = r1cs.matvec_tables(z)  # populates the F61SpMV caches
        clone = pickle.loads(pickle.dumps(r1cs))
        assert getattr(clone, "_f61_rows", None) is None
        after = clone.matvec_tables(z)
        assert [t.tolist() for t in after] == [t.tolist() for t in before]
        assert clone.digest() == r1cs.digest()
