"""Lane-vectorized proving tests (S31): kernels, prover, backend.

Four properties pin the lane dimension down:

1. **Kernel parity** — every laned kernel matches its naive reference
   twin element-for-element at ``[lanes, n]`` shape, and each lane
   matches the one-table kernel applied to that lane alone, across the
   fast-path field (M61) and three fallback fields (M31, p=97 and the
   254-bit BN254 scalar field, whose lanes are per-lane int lists).
2. **Byte identity** — every lane of ``prove_lanes`` emits its width-1
   bytes, at widths that cross the small-table tail on different
   rounds, including the ragged final group of a batch.
3. **Selector surface** — ``lanes:<W>``/``lanes:auto`` resolve, pad,
   and compose (a composed ``auto`` hardens to ``AUTO_LANE_CAP``);
   ``resolve_lane_width`` behaves.
4. **Accounting** — amortized per-lane stage seconds keep the S27
   invariant Σ(exclusive stages) ≤ proving wall per task record.
"""

import random

import numpy as np
import pytest

from repro.core import BatchProver, ProofTask, SnarkVerifier, random_circuit
from repro.core.lanes import LanedProof
from repro.core.prover import PIPELINE_STAGES, make_pcs
from repro.core.serialize import serialize_proof
from repro.errors import ProofError
from repro.execution import (
    AUTO_LANE_BUDGET,
    AUTO_LANE_CAP,
    LanedBackend,
    resolve_backend,
    resolve_lane_width,
)
from repro.field import DEFAULT_FIELD, PrimeField, fast61
from repro.field.primes import BN254_SCALAR, MERSENNE61
from repro.hashing.hashers import get_hasher
from repro.kernels import field_kernels, use_reference_kernels
from repro.merkle import open_multi
from repro.merkle.tree import MerkleTree, build_forest
from repro.runtime import ProverSpec

F = DEFAULT_FIELD
P = MERSENNE61

#: The acceptance matrix: the M61 fast path plus three fallback moduli
#: (a non-M61 Mersenne prime, a tiny odd prime, and a field too wide for
#: ``uint64``) that must take the int-list lane form yet produce
#: identical bytes.
FIELDS = [
    F,
    PrimeField(2**31 - 1, check=False),
    PrimeField(97, check=False),
    PrimeField(BN254_SCALAR, check=False),
]
FIELD_IDS = ["m61", "m31", "p97", "bn254"]


def _lane_mat(rng, lanes, n, p):
    """``[lanes, n]`` random residues: a uint64 array when they fit,
    per-lane int lists otherwise."""
    rows = [[rng.randrange(p) for _ in range(n)] for _ in range(lanes)]
    return np.array(rows, dtype=np.uint64) if p < 1 << 64 else rows


def _as_int_lists(arr):
    return [[int(v) for v in lane] for lane in arr]


# -- laned kernel parity ------------------------------------------------------


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
class TestLanedKernelParity:
    """fast == reference == per-lane scalar, at ``[lanes, n]`` shape."""

    LANES = 5

    def test_fold_table(self, field, rng):
        p = field.modulus
        table = _lane_mat(rng, self.LANES, 16, p)
        rs = [rng.randrange(p) for _ in range(self.LANES)]
        fast = field_kernels.fold_table(field, table, rs)
        ref = field_kernels._reference_fold_table(field, table, rs)
        assert _as_int_lists(fast) == _as_int_lists(ref)
        for lane in range(self.LANES):
            scalar = field_kernels.fold_table(
                field, [int(v) for v in table[lane]], rs[lane]
            )
            assert _as_int_lists(fast)[lane] == [int(v) % p for v in scalar]

    def test_eq_table_lanes(self, field, rng):
        p = field.modulus
        points = [[rng.randrange(p) for _ in range(4)] for _ in range(self.LANES)]
        fast = field_kernels.eq_table_lanes(field, points)
        ref = field_kernels._reference_eq_table_lanes(field, points)
        assert [len(lane) for lane in fast] == [16] * self.LANES
        assert _as_int_lists(fast) == _as_int_lists(ref)
        for lane, point in enumerate(points):
            scalar = field_kernels.eq_table(field, point)
            assert _as_int_lists(fast)[lane] == [int(v) % p for v in scalar]

    def test_combine_rows(self, field, rng):
        p = field.modulus
        mats = [_lane_mat(rng, 6, 9, p) for _ in range(self.LANES)]
        if p < 1 << 64:
            mats = np.array(mats, dtype=np.uint64)
        coeffs = _lane_mat(rng, self.LANES, 6, p)
        # Exercise the sparse skips: zero and unit coefficients.
        coeffs[0][0] = 0
        coeffs[1][2] = 1
        fast = field_kernels.combine_rows(field, mats, coeffs)
        ref = field_kernels._reference_combine_rows(field, mats, coeffs)
        assert _as_int_lists(fast) == _as_int_lists(ref)
        for lane in range(self.LANES):
            scalar = field_kernels.combine_rows(
                field,
                [[int(v) for v in row] for row in mats[lane]],
                [int(c) for c in coeffs[lane]],
            )
            assert _as_int_lists(fast)[lane] == [int(v) % p for v in scalar]

    # At 5 lanes, 12 entries stack every point into one dispatch; 1536
    # and 4096 fit two points and one point per f61 block.
    ROUND_SIZES = (12, 1536, 4096)

    def test_product_round_quadratic(self, field, rng):
        p = field.modulus
        for n in self.ROUND_SIZES:
            ta = _lane_mat(rng, self.LANES, n, p)
            tb = _lane_mat(rng, self.LANES, n, p)
            fast = field_kernels.product_round_quadratic(field, ta, tb)
            ref = field_kernels._reference_product_round_quadratic(field, ta, tb)
            assert [[int(v) % p for v in lane] for lane in fast] == [
                [int(v) % p for v in lane] for lane in ref
            ]
            for lane in range(self.LANES):
                scalar = field_kernels.product_round_quadratic(
                    field, [int(v) for v in ta[lane]], [int(v) for v in tb[lane]]
                )
                assert [int(v) % p for v in fast[lane]] == [
                    int(v) % p for v in scalar
                ]

    def test_constraint_round_cubic(self, field, rng):
        p = field.modulus
        for n in self.ROUND_SIZES:
            tables = [_lane_mat(rng, self.LANES, n, p) for _ in range(4)]
            fast = field_kernels.constraint_round_cubic(field, *tables)
            ref = field_kernels._reference_constraint_round_cubic(field, *tables)
            assert [[int(v) % p for v in lane] for lane in fast] == [
                [int(v) % p for v in lane] for lane in ref
            ]
            for lane in range(self.LANES):
                scalar = field_kernels.constraint_round_cubic(
                    field, *([int(v) for v in t[lane]] for t in tables)
                )
                assert [int(v) % p for v in fast[lane]] == [
                    int(v) % p for v in scalar
                ]

    def test_constraint_claimed_sum(self, field, rng):
        p = field.modulus
        tables = [_lane_mat(rng, self.LANES, 10, p) for _ in range(4)]
        got = field_kernels.constraint_claimed_sum(field, *tables)
        for lane in range(self.LANES):
            scalar = field_kernels.constraint_claimed_sum(
                field, *([int(v) for v in t[lane]] for t in tables)
            )
            assert int(got[lane]) % p == scalar % p

    def test_constraint_violation_attributes_the_bad_lane(self, field, rng):
        p = field.modulus
        az = _lane_mat(rng, 3, 8, p)
        bz = _lane_mat(rng, 3, 8, p)
        cz = [[(int(a) * int(b)) % p for a, b in zip(la, lb)] for la, lb in zip(az, bz)]
        if p < 1 << 64:
            cz = np.array(cz, dtype=np.uint64)
        assert field_kernels.constraint_violation(field, az, bz, cz) == [
            False,
            False,
            False,
        ]
        cz[1][3] = (int(cz[1][3]) + 1) % p
        assert field_kernels.constraint_violation(field, az, bz, cz) == [
            False,
            True,
            False,
        ]

    def test_product_pair_sum(self, field, rng):
        p = field.modulus
        ta = _lane_mat(rng, self.LANES, 11, p)
        tb = _lane_mat(rng, self.LANES, 11, p)
        got = field_kernels.product_pair_sum(field, ta, tb)
        for lane in range(self.LANES):
            scalar = field_kernels.product_pair_sum(
                field, [int(v) for v in ta[lane]], [int(v) for v in tb[lane]]
            )
            assert int(got[lane]) % p == scalar % p

    def test_laned_fast_matches_reference_mode(self, field, rng):
        """The whole laned surface again, with kernels globally disabled."""
        p = field.modulus
        table = _lane_mat(rng, 3, 8, p)
        rs = [rng.randrange(p) for _ in range(3)]
        fast = field_kernels.fold_table(field, table, rs)
        with use_reference_kernels():
            ref = field_kernels.fold_table(field, table, rs)
        assert _as_int_lists(fast) == _as_int_lists(ref)

    def test_list_lanes_match_array_lanes(self, field, rng):
        """Per-lane int lists — the form off the fast path and in the
        sum-check tail — give what ``[L, n]`` arrays give."""
        p = field.modulus
        tables = [_lane_mat(rng, self.LANES, 8, p) for _ in range(4)]
        lists = [_as_int_lists(t) for t in tables]
        rs = [rng.randrange(p) for _ in range(self.LANES)]
        for kernel, n in (
            (field_kernels.constraint_round_cubic, 4),
            (field_kernels.constraint_claimed_sum, 4),
            (field_kernels.product_round_quadratic, 2),
            (field_kernels.product_pair_sum, 2),
        ):
            assert kernel(field, *lists[:n]) == [
                [int(v) for v in x] if isinstance(x, list) else int(x)
                for x in kernel(field, *tables[:n])
            ]
        folded = field_kernels.fold_product_tables(field, lists, rs)
        assert folded == [
            _as_int_lists(t)
            for t in field_kernels.fold_product_tables(field, tables, rs)
        ]
        assert all(type(t) is list for t in folded)


# -- laned fast61 primitives --------------------------------------------------


class TestLanedFast61:
    def test_axis_and_rows_sum(self, rng):
        a = _lane_mat(rng, 4, 37, P)
        rows = fast61.f61_rows_sum(a)
        assert all(type(v) is int for v in rows)
        assert rows == [sum(int(x) for x in lane) % P for lane in a]
        cols = fast61.f61_axis_sum(a, axis=0)
        assert [int(v) for v in cols] == [
            sum(int(a[i, j]) for i in range(4)) % P for j in range(37)
        ]


# -- batched Merkle forest ----------------------------------------------------


class TestMerkleForest:
    def test_forest_matches_per_lane_trees(self, rng):
        hasher = get_hasher("sha256")
        leaf_lists = [
            [bytes([rng.randrange(256)]) * 32 for _ in range(6)] for _ in range(5)
        ]
        forest = build_forest(leaf_lists, hasher)
        for leaves, tree in zip(leaf_lists, forest):
            alone = MerkleTree(leaves, hasher)
            assert tree.root == alone.root
            assert tree.layers == alone.layers
            proof = open_multi(tree, [3])
            assert proof.verify(alone.root, hasher)

    def test_single_lane_forest(self, rng):
        hasher = get_hasher("sha256")
        leaves = [bytes([i]) * 32 for i in range(8)]
        (tree,) = build_forest([leaves], hasher)
        assert tree.root == MerkleTree(leaves, hasher).root


# -- laned prover byte identity ----------------------------------------------


def _make_spec_and_tasks(field, gates, count, seed=11):
    """One circuit structure, ``count`` distinct-witness variants."""
    rng = random.Random(f"test-lanes/{seed}")
    variants = [
        random_circuit(
            field,
            gates,
            seed=seed,
            input_values=[rng.randrange(1, field.modulus) for _ in range(8)],
        )
        for _ in range(count)
    ]
    base = variants[0]
    digest = base.r1cs.digest()
    assert all(v.r1cs.digest() == digest for v in variants)
    spec = ProverSpec(
        r1cs=base.r1cs,
        public_indices=tuple(base.public_indices),
        num_col_checks=6,
    )
    tasks = [
        ProofTask(task_id=i, witness=v.witness, public_values=v.public_values)
        for i, v in enumerate(variants)
    ]
    return spec, tasks


def _wire(field, proofs):
    return [serialize_proof(p, field) for p in proofs]


#: (field, width) pairs: width 3 (the bare field id) and the powers of
#: two cross the small-table tail (``L·n < _NP_MIN``) on different rounds.
WIDTH_CASES = [
    pytest.param(field, width, id=fid if width == 3 else f"{fid}-w{width}")
    for field, fid in zip(FIELDS, FIELD_IDS)
    for width in (1, 2, 3, 16)
]


class TestLanedProofByteIdentity:
    @pytest.mark.parametrize("field, width", WIDTH_CASES)
    def test_prove_lanes_matches_per_proof_path(self, field, width):
        """Every lane of a group emits its width-1 bytes, and verifies."""
        spec, tasks = _make_spec_and_tasks(field, 96, width)
        prover = spec.build_prover()
        alone = [prover.prove(t.witness, t.public_values) for t in tasks]
        laned = prover.prove_lanes(
            [t.witness for t in tasks], [t.public_values for t in tasks]
        )
        assert _wire(field, laned) == _wire(field, alone)
        verifier = SnarkVerifier(
            spec.r1cs,
            make_pcs(field, spec.r1cs, num_col_checks=6),
            public_indices=list(spec.public_indices),
        )
        assert all(
            verifier.verify(p, t.public_values) for p, t in zip(laned, tasks)
        )

    @pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
    def test_reference_kernels_emit_the_same_bytes(self, field):
        """The one machine under the reference kernels (per-lane int lists
        from round 0) proves what it proves on the default kernels."""
        spec, tasks = _make_spec_and_tasks(field, 96, 2)
        prover = spec.build_prover()
        witnesses = [t.witness for t in tasks]
        publics = [t.public_values for t in tasks]
        fast = prover.prove_lanes(witnesses, publics)
        with use_reference_kernels():
            ref = prover.prove_lanes(witnesses, publics)
            alone = prover.prove(witnesses[0], publics[0])
        assert _wire(field, ref) == _wire(field, fast)
        assert _wire(field, [alone]) == _wire(field, fast[:1])

    def test_single_lane_is_byte_identical(self):
        spec, tasks = _make_spec_and_tasks(F, 24, 1)
        prover = spec.build_prover()
        (task,) = tasks
        alone = prover.prove(task.witness, task.public_values)
        (laned,) = prover.prove_lanes([task.witness], [task.public_values])
        assert serialize_proof(laned, F) == serialize_proof(alone, F)

    def test_laned_proof_walks_pipeline_stages(self):
        spec, tasks = _make_spec_and_tasks(F, 24, 2)
        prover = spec.build_prover()
        staged = prover.begin_lanes(
            [t.witness for t in tasks], [t.public_values for t in tasks]
        )
        assert isinstance(staged, LanedProof)
        seen = []
        while not staged.done:
            seen.append(staged.next_stage)
            staged.run_next()
        assert seen == list(PIPELINE_STAGES)
        assert staged.next_stage is None
        assert len(staged.proofs) == 2


# -- lane backend: selectors, padding, accounting -----------------------------


class TestLaneBackend:
    def test_resolve_lane_width(self):
        assert resolve_lane_width("auto", 3, 1 << 11) == 3
        assert resolve_lane_width("auto", 500, 1 << 11) == AUTO_LANE_CAP
        assert resolve_lane_width(7, 3, 1 << 11) == 7
        with pytest.raises(Exception):
            resolve_lane_width(0, 3, 1 << 11)

    @pytest.mark.parametrize(
        "padded_vars, n_tasks, width",
        [
            (1 << 7, 64, 16),   # small circuits: the cap
            (1 << 11, 64, 16),  # 2^10 gates
            (1 << 13, 64, 16),  # 2^12 gates: budget == cap
            (1 << 14, 64, 8),
            (1 << 15, 8, 4),    # 2^14 gates
            (1 << 16, 8, 2),
            (1 << 17, 3, 1),    # 2^16 gates: too large for two lanes
            (1 << 20, 64, 1),   # budget // padded_vars == 0 is still 1
            (1 << 11, 5, 5),    # never wider than the batch
            (1 << 11, 1, 1),
            (1 << 11, 0, 1),    # an empty batch still gets a valid step
        ],
    )
    def test_auto_width_rule(self, padded_vars, n_tasks, width):
        assert AUTO_LANE_BUDGET // AUTO_LANE_CAP == 1 << 13
        assert resolve_lane_width("auto", n_tasks, padded_vars) == width
        assert 1 <= width <= max(1, n_tasks)
        # Off the vectorised M61 path lanes run in lockstep: always 1.
        assert resolve_lane_width("auto", n_tasks, padded_vars, False) == 1

    def test_composed_auto_hardens_to_cap(self):
        pool = resolve_backend("lanes:auto:pool:2")
        assert pool.name == f"lanes:{AUTO_LANE_CAP}:pool:2"
        assert pool.lane_width == AUTO_LANE_CAP
        piped = resolve_backend("lanes:auto:pipelined:2")
        assert piped.name == f"lanes:{AUTO_LANE_CAP}:pipelined:2"
        assert piped.lane_width == AUTO_LANE_CAP
        spec, tasks = _make_spec_and_tasks(F, 24, 3)
        serial, _ = resolve_backend("serial").prove_tasks(spec, tasks)
        for backend in (pool, piped):
            proofs, _ = backend.prove_tasks(spec, tasks)
            assert _wire(F, proofs) == _wire(F, serial)
        # The pool's runtime carries one lane group per chunk.
        assert pool._runtimes.get(spec).chunk_size == AUTO_LANE_CAP

    def test_selector_resolves_named_variants(self):
        assert isinstance(resolve_backend("lanes"), LanedBackend)
        assert resolve_backend("lanes:auto").lane_width == "auto"
        assert resolve_backend("lanes:16").lane_width == 16
        assert resolve_backend("lanes:4").name == "lanes:4"
        assert resolve_backend("lanes:4:pipelined:2").name == "lanes:4:pipelined:2"

    def test_ragged_final_group_pads_and_matches_serial(self):
        spec, tasks = _make_spec_and_tasks(F, 24, 7)
        serial, _ = resolve_backend("serial").prove_tasks(spec, tasks)
        laned, stats = resolve_backend("lanes:4").prove_tasks(spec, tasks)
        assert _wire(F, laned) == _wire(F, serial)
        assert stats.proofs_generated == 7
        assert [r.task_id for r in stats.records] == list(range(7))
        assert all(r.attempts == 1 for r in stats.records)

    def test_ragged_final_group_is_proved_at_its_own_width(self):
        """No pad lanes: 7 tasks at width 4 are a 4-lane and a 3-lane
        dispatch, and a width wider than the batch is one short dispatch."""
        spec, tasks = _make_spec_and_tasks(F, 24, 7)
        serial, _ = resolve_backend("serial").prove_tasks(spec, tasks)
        prover = spec.build_prover()
        real, widths = prover.prove_lanes, []

        def spy(witnesses, publics):
            widths.append(len(witnesses))
            return real(witnesses, publics)

        prover.prove_lanes = spy
        for lane_width, want in ((4, [4, 3]), (16, [7])):
            backend = LanedBackend(lane_width)
            backend.adopt_prover(spec, prover)
            del widths[:]
            laned, stats = backend.prove_tasks(spec, tasks)
            assert widths == want
            assert _wire(F, laned) == _wire(F, serial)
            assert len(stats.records) == 7

    def test_width_one_groups_take_the_lane_machine(self):
        """A 1-task batch and a ragged tail of one are groups of one on
        ``prove_lanes``; nothing calls a per-proof ``prove``."""
        spec, tasks = _make_spec_and_tasks(F, 24, 5)
        serial, _ = resolve_backend("serial").prove_tasks(spec, tasks)
        prover = spec.build_prover()
        real_lanes, calls = prover.prove_lanes, []
        prover.prove_lanes = lambda ws, pvs: (
            calls.append(len(ws)), real_lanes(ws, pvs)
        )[1]
        prover.prove = lambda w, pv: pytest.fail("a group bypassed prove_lanes")
        for lane_width, batch, want in (
            (4, tasks, [4, 1]),
            ("auto", tasks[:1], [1]),
            (1, tasks[:3], [1] * 3),
        ):
            backend = LanedBackend(lane_width)
            backend.adopt_prover(spec, prover)
            del calls[:]
            laned, stats = backend.prove_tasks(spec, batch)
            assert calls == want
            assert _wire(F, laned) == _wire(F, serial)[: len(batch)]
            assert [r.task_id for r in stats.records] == [
                t.task_id for t in batch
            ]

    def test_begin_proof_is_a_group_of_one(self):
        spec, tasks = _make_spec_and_tasks(F, 24, 2)
        prover = spec.build_prover()
        staged = prover.begin_proof(tasks[0].witness, tasks[0].public_values)
        assert isinstance(staged, LanedProof) and staged.lanes == 1
        staged.run_all()
        assert staged.proofs == [staged.proof]
        pair = prover.begin_lanes(
            [t.witness for t in tasks], [t.public_values for t in tasks]
        )
        pair.run_all()
        with pytest.raises(ProofError):
            pair.proof

    def test_auto_width_matches_serial(self):
        spec, tasks = _make_spec_and_tasks(F, 24, 5)
        serial, _ = resolve_backend("serial").prove_tasks(spec, tasks)
        laned, _ = resolve_backend("lanes:auto").prove_tasks(spec, tasks)
        assert _wire(F, laned) == _wire(F, serial)

    def test_stage_seconds_keep_the_s27_invariant(self):
        """Amortized per-lane stages: Σ(exclusive) ≤ prove wall per task.

        ``encode`` and ``merkle`` nest inside ``commit``, so the
        exclusive sum leaves them out — the same accounting rule the
        S27 pipelined executor pins.
        """
        spec, tasks = _make_spec_and_tasks(F, 24, 6)
        _, stats = resolve_backend("lanes:4").prove_tasks(spec, tasks)
        assert len(stats.records) == 6
        for record in stats.records:
            assert record.stage_seconds, "laned records must carry stage timings"
            exclusive = sum(
                v
                for k, v in record.stage_seconds.items()
                if k not in ("encode", "merkle")
            )
            assert exclusive <= record.prove_seconds + 1e-6
            assert record.prove_seconds >= 0.0

    def test_group_wall_is_amortized_across_lanes(self):
        spec, tasks = _make_spec_and_tasks(F, 24, 4)
        _, stats = resolve_backend("lanes:4").prove_tasks(spec, tasks)
        walls = [r.prove_seconds for r in stats.records]
        # One fused group: every lane carries the same amortized share.
        assert max(walls) == pytest.approx(min(walls))
        assert sum(walls) <= stats.total_seconds + 1e-6


# -- the default batch path: lane groups unless the caller names a backend ----


class TestDefaultBatchPath:
    def test_the_private_serial_loop_is_gone(self):
        assert not hasattr(BatchProver, "_prove_all_serial")

    @pytest.mark.parametrize("count", [1, 2, 17, 64])
    def test_default_prove_all_equals_backend_serial(self, count):
        spec, tasks = _make_spec_and_tasks(F, 24, count)
        batch = BatchProver(spec.build_prover())
        serial, _ = batch.prove_all(tasks, backend="serial")
        proofs, stats = batch.prove_all(tasks)
        assert _wire(F, proofs) == _wire(F, serial)
        assert stats.proofs_generated == count
        assert len(stats.per_proof_seconds) == count
        assert sum(stats.per_proof_seconds) <= stats.total_seconds + 1e-6
        # One group's wall is shared evenly by its lanes.
        first_group = stats.per_proof_seconds[: min(count, AUTO_LANE_CAP)]
        assert max(first_group) == pytest.approx(min(first_group))
        assert batch.last_runtime_stats.proofs_generated == count

    def test_default_is_lane_groups_on_the_live_prover(self):
        spec, tasks = _make_spec_and_tasks(F, 24, AUTO_LANE_CAP + 1)
        prover = spec.build_prover()
        real_lanes, calls = prover.prove_lanes, []
        prover.prove_lanes = lambda ws, pvs: (
            calls.append(len(ws)), real_lanes(ws, pvs)
        )[1]
        batch = BatchProver(prover)
        batch.prove_all(tasks)
        assert calls == [AUTO_LANE_CAP, 1]
        del calls[:]
        batch.prove_all(tasks[:3], backend="serial")
        assert calls == [1] * 3

    def test_default_under_reference_kernels(self):
        spec, tasks = _make_spec_and_tasks(F, 24, 4)
        batch = BatchProver(spec.build_prover())
        fast, _ = batch.prove_all(tasks)
        with use_reference_kernels():
            serial, _ = batch.prove_all(tasks, backend="serial")
            proofs, stats = batch.prove_all(tasks)
        assert _wire(F, proofs) == _wire(F, serial) == _wire(F, fast)
        assert len(stats.per_proof_seconds) == 4

    def test_default_on_other_fields_is_scalar(self):
        """Off the M61 path ``lanes:auto`` proves one task per group."""
        field = FIELDS[1]
        spec, tasks = _make_spec_and_tasks(field, 24, 3)
        prover = spec.build_prover()
        real_lanes, widths = prover.prove_lanes, []
        prover.prove_lanes = lambda ws, pvs: (
            widths.append(len(ws)), real_lanes(ws, pvs)
        )[1]
        batch = BatchProver(prover)
        proofs, _ = batch.prove_all(tasks)
        assert widths == [1] * 3
        serial, _ = batch.prove_all(tasks, backend="serial")
        assert _wire(field, proofs) == _wire(field, serial)

    def test_empty_batch(self):
        spec, _ = _make_spec_and_tasks(F, 24, 1)
        proofs, stats = BatchProver(spec.build_prover()).prove_all([])
        assert proofs == [] and stats.proofs_generated == 0
