"""Regression tests for the BatchStats lifecycle (fresh per run, reset()).

``prove_all`` once rebound ``self.stats``, so previously-held references
went stale, and runs could report merged throughput.  The contract: one
stable stats object per prover, reset in place at the start of every
run, with ``prove_all`` returning an immutable-by-convention snapshot.
"""

import pytest

from repro.core import (
    BatchProver,
    BatchStats,
    ProofTask,
    SnarkProver,
    make_pcs,
    random_circuit,
)
from repro.field import DEFAULT_FIELD

F = DEFAULT_FIELD


@pytest.fixture(scope="module")
def batch():
    cc = random_circuit(F, 32, seed=2)
    pcs = make_pcs(F, cc.r1cs, num_col_checks=4)
    prover = SnarkProver(cc.r1cs, pcs, public_indices=cc.public_indices)
    tasks = [ProofTask(i, cc.witness, cc.public_values) for i in range(4)]
    return BatchProver(prover), tasks


class TestReset:
    def test_reset_zeroes_in_place(self):
        stats = BatchStats(
            proofs_generated=3, total_seconds=1.5, per_proof_seconds=[0.5] * 3
        )
        held = stats.per_proof_seconds
        stats.reset()
        assert stats.proofs_generated == 0
        assert stats.total_seconds == 0.0
        assert stats.per_proof_seconds == [] and stats.per_proof_seconds is held

    def test_snapshot_is_independent(self):
        stats = BatchStats(proofs_generated=2, total_seconds=1.0,
                           per_proof_seconds=[0.5, 0.5])
        snap = stats.snapshot()
        stats.reset()
        assert snap.proofs_generated == 2
        assert snap.per_proof_seconds == [0.5, 0.5]


class TestProveAllLifecycle:
    def test_stats_identity_is_stable(self, batch):
        prover, tasks = batch
        held = prover.stats
        prover.prove_all(tasks[:2])
        # Regression: prove_all used to rebind self.stats, orphaning refs.
        assert prover.stats is held
        assert held.proofs_generated == 2

    def test_returned_snapshot_survives_later_runs(self, batch):
        prover, tasks = batch
        _, first = prover.prove_all(tasks[:2])
        _, second = prover.prove_all(tasks[:4])
        assert first.proofs_generated == 2
        assert second.proofs_generated == 4
        assert first is not second

    def test_back_to_back_prove_all_not_merged(self, batch):
        prover, tasks = batch
        prover.prove_all(tasks)
        _, stats = prover.prove_all(tasks[:1])
        assert stats.proofs_generated == 1
        assert len(stats.per_proof_seconds) == 1
