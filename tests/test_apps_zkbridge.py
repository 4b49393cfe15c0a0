"""zkBridge application tests: real transaction proofs + economics."""

import pytest

from repro.apps import (
    BridgeProver,
    TX_CIRCUIT_SCALE,
    Transaction,
    random_transactions,
    revenue_report,
)
from repro.errors import ProofError
from repro.field import DEFAULT_FIELD

F = DEFAULT_FIELD


@pytest.fixture(scope="module")
def prover():
    return BridgeProver(rounds=4)


@pytest.fixture(scope="module")
def proven(prover):
    tx = random_transactions(1, seed=3)[0]
    compiled, proof = prover.prove(tx)
    return tx, compiled, proof


class TestTransactions:
    def test_commitment_deterministic(self, prover):
        tx = Transaction(sender=1, receiver=2, amount=3, nonce=4)
        assert tx.commitment(F, prover.perm) == tx.commitment(F, prover.perm)

    def test_commitment_binds_every_field(self, prover):
        base = Transaction(sender=1, receiver=2, amount=3, nonce=4)
        c0 = base.commitment(F, prover.perm)
        variants = [
            Transaction(sender=9, receiver=2, amount=3, nonce=4),
            Transaction(sender=1, receiver=9, amount=3, nonce=4),
            Transaction(sender=1, receiver=2, amount=9, nonce=4),
            Transaction(sender=1, receiver=2, amount=3, nonce=9),
        ]
        assert all(v.commitment(F, prover.perm) != c0 for v in variants)

    def test_random_transactions_unique_nonces(self):
        txs = random_transactions(10, seed=1)
        assert [t.nonce for t in txs] == list(range(10))


class TestBridgeProofs:
    def test_proof_verifies(self, prover, proven):
        tx, compiled, proof = proven
        commitment = tx.commitment(F, prover.perm)
        assert prover.verify(compiled, proof, commitment, tx.amount)

    def test_wrong_commitment_rejected(self, prover, proven):
        tx, compiled, proof = proven
        commitment = tx.commitment(F, prover.perm)
        assert not prover.verify(
            compiled, proof, (commitment + 1) % F.modulus, tx.amount
        )

    def test_wrong_amount_rejected(self, prover, proven):
        """A bridge that mints the wrong amount must be caught."""
        tx, compiled, proof = proven
        commitment = tx.commitment(F, prover.perm)
        assert not prover.verify(compiled, proof, commitment, tx.amount + 1)

    def test_zero_amount_refused(self, prover):
        with pytest.raises(ProofError):
            prover.prove(Transaction(sender=1, receiver=2, amount=0, nonce=0))

    def test_circuit_commitment_matches_native(self, prover, proven):
        tx, compiled, _ = proven
        assert compiled.public_values[0] == tx.commitment(F, prover.perm)
        assert compiled.public_values[1] == tx.amount


class TestRevenueEconomics:
    @pytest.fixture(scope="class")
    def report(self):
        return revenue_report(
            fee_per_proof=0.25,
            scale=TX_CIRCUIT_SCALE,
            devices=("GH200", "V100"),
            farm=("V100", "A100"),
        )

    def test_pipelining_earns_more(self, report):
        """The paper's motivation: throughput is income."""
        for dev in ("GH200", "V100"):
            pipe = report.rows[f"{dev}/pipelined"]["revenue_per_hour"]
            naive = report.rows[f"{dev}/kernel-per-task"]["revenue_per_hour"]
            assert pipe > naive

    def test_revenue_proportional_to_throughput(self, report):
        for row in report.rows.values():
            assert row["revenue_per_hour"] == pytest.approx(
                row["proofs_per_second"] * 3600 * 0.25
            )

    def test_farm_beats_its_single_devices(self, report):
        farm = report.rows["farm/V100+A100"]["proofs_per_second"]
        v100 = report.rows["V100/pipelined"]["proofs_per_second"]
        assert farm > v100

    def test_best_configuration(self, report):
        assert report.best_configuration() == "GH200/pipelined"


class TestBatchProving:
    """prove_batch shards transaction proofs across the S22 runtime."""

    @pytest.fixture(scope="class")
    def fast_prover(self):
        return BridgeProver(rounds=2)

    def test_batch_proofs_verify(self, fast_prover):
        txs = random_transactions(3, seed=7)
        pairs = fast_prover.prove_batch(txs, backend="pool:2")
        assert len(pairs) == len(txs)
        for (compiled, proof), tx in zip(pairs, txs):
            commitment = tx.commitment(F, fast_prover.perm)
            amount = tx.amount % F.modulus
            assert fast_prover.verify(compiled, proof, commitment, amount)
        assert fast_prover.last_runtime_stats.proofs_generated == len(txs)

    def test_batch_matches_individual_proofs(self, fast_prover):
        from repro.core.serialize import serialize_proof

        txs = random_transactions(2, seed=8)
        pairs = fast_prover.prove_batch(txs, backend="serial")
        for (_, batched), tx in zip(pairs, txs):
            _, single = fast_prover.prove(tx)
            assert serialize_proof(batched, F) == serialize_proof(single, F)

    def test_empty_batch(self, fast_prover):
        assert fast_prover.prove_batch([]) == []

    def test_string_selector_resolved_once(self, monkeypatch):
        """A repeated string selector reuses its backend, so stateful
        backends (node connections, pools) are not rebuilt per batch."""
        from repro.execution import registry

        resolved = []
        real = registry.resolve_backend

        def spy(selector):
            backend = real(selector)
            resolved.append(backend)
            return backend

        monkeypatch.setattr(registry, "resolve_backend", spy)
        bridge = BridgeProver(rounds=2)
        for seed in (9, 10):
            bridge.prove_batch(random_transactions(2, seed=seed), "lanes:2")
        assert len(resolved) == 1
        assert bridge._backends == {"lanes:2": resolved[0]}

    def test_zero_amount_rejected_up_front(self, fast_prover):
        bad = Transaction(sender=1, receiver=2, amount=F.modulus, nonce=0)
        with pytest.raises(ProofError):
            fast_prover.prove_batch([bad], backend="pool:2")
