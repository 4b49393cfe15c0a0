"""A zkBridge-style cross-chain proving service (paper §2.1).

"zkBridge service providers charge a handling fee for each transaction.
Thus, generating more proofs for transactions per unit time (throughput)
brings more income" — this module makes that economics concrete.

Two layers, mirroring the rest of the repository:

* **Functional** — :class:`BridgeProver` proves real (small) transaction
  statements: each transaction commits to ``(sender, receiver, amount,
  nonce)`` with the MiMC sponge, and the proof shows knowledge of fields
  hashing to the public commitment with a value-conservation constraint.
* **Economic simulation** — :func:`revenue_report` runs the batch pipeline
  at a realistic per-transaction circuit scale and prices throughput in
  fees/hour for pipelined vs kernel-per-task scheduling, on one device or
  a farm.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from ..core.batch import ProofTask
from ..core.circuit import CircuitBuilder, CompiledCircuit, compile_builder
from ..core.prover import SnarkProver, make_pcs
from ..core.verifier import SnarkVerifier
from ..errors import ProofError
from ..field.prime_field import DEFAULT_FIELD, PrimeField
from ..gpu.costs import GpuCostModel
from ..gpu.device import get_gpu
from ..gpu.simulator import run_naive
from ..hashing.mimc import MimcPermutation, mimc_circuit_encrypt
from ..pipeline.multigpu import MultiGpuBatchSystem
from ..pipeline.system import BatchZkpSystem, zkp_system_graph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.proof import SnarkProof
    from ..execution import ProvingBackend
    from ..runtime import ProverSpec, RuntimeStats

    BackendLike = Union[str, ProvingBackend]

#: Circuit scale of one cross-chain transaction proof.  zkBridge proves
#: block-header validity (signature batches); 2^18 gates is the order of
#: magnitude of its per-header circuits.
TX_CIRCUIT_SCALE = 1 << 18


@dataclass(frozen=True)
class Transaction:
    """One cross-chain transfer awaiting a validity proof."""

    sender: int
    receiver: int
    amount: int
    nonce: int

    def commitment(self, field: PrimeField, perm: MimcPermutation) -> int:
        """MiMC-sponge commitment the chain stores for this transfer."""
        from ..hashing.mimc import MimcSponge

        sponge = MimcSponge(field, rounds=perm.rounds)
        return sponge.hash([self.sender, self.receiver, self.amount, self.nonce])


def random_transactions(
    count: int, seed: int = 0, field: PrimeField = DEFAULT_FIELD
) -> List[Transaction]:
    """Deterministic pseudorandom transfers with sequential nonces."""
    rng = random.Random(f"zkbridge/{seed}")
    return [
        Transaction(
            sender=rng.randrange(field.modulus),
            receiver=rng.randrange(field.modulus),
            amount=rng.randrange(1, 1 << 32),
            nonce=i,
        )
        for i in range(count)
    ]


class BridgeProver:
    """Proves transaction validity statements with the real SNARK.

    The statement per transaction: "I know (sender, receiver, amount,
    nonce) whose MiMC commitment is C, with amount != 0" — amount is
    additionally exposed so the destination chain can mint it.
    """

    def __init__(self, field: PrimeField = DEFAULT_FIELD, rounds: int = 6):
        self.field = field
        self.perm = MimcPermutation(field, rounds=rounds)
        #: :class:`~repro.runtime.RuntimeStats` of the most recent
        #: :meth:`prove_batch` run (None before the first batch).
        self.last_runtime_stats: Optional["RuntimeStats"] = None
        # Cached per-circuit spec and per-selector execution backends
        # (every well-formed transaction shares one circuit structure).
        self._specs: Dict[bytes, "ProverSpec"] = {}
        self._backends: Dict[str, "ProvingBackend"] = {}

    def _build_circuit(self, tx: Transaction) -> CompiledCircuit:
        from ..hashing.mimc import MimcSponge

        cb = CircuitBuilder(self.field)
        sender = cb.private_input(tx.sender)
        receiver = cb.private_input(tx.receiver)
        amount = cb.private_input(tx.amount)
        nonce = cb.private_input(tx.nonce)

        # Recompute the sponge in-circuit: state = MP-compress chain.
        sponge = MimcSponge(self.field, rounds=self.perm.rounds)
        state_wire = cb.constant(sponge._iv)
        for value_wire in (cb.constant(4), sender, receiver, amount, nonce):
            enc = mimc_circuit_encrypt(cb, state_wire, value_wire, sponge.permutation)
            state_wire = cb.add(cb.add(enc, value_wire), state_wire)

        # amount != 0: expose a witness inverse with amount·inv = 1.
        inv = cb.private_input(self.field.inv(tx.amount))
        one = cb.mul(amount, inv)
        cb.assert_equal(one, cb.constant(1))

        cb.expose_public(state_wire)  # the commitment C
        cb.expose_public(amount)
        return compile_builder(cb)

    def prove(self, tx: Transaction):
        """Returns (compiled circuit, proof); the commitment and amount are
        the proof's public values."""
        if tx.amount % self.field.modulus == 0:
            raise ProofError("zero-amount transactions are invalid")
        compiled = self._build_circuit(tx)
        expected = tx.commitment(self.field, self.perm)
        if compiled.public_values[0] != expected:
            raise ProofError("in-circuit commitment diverged from native")
        pcs = make_pcs(self.field, compiled.r1cs, num_col_checks=8)
        prover = SnarkProver(
            compiled.r1cs, pcs, public_indices=compiled.public_indices
        )
        proof = prover.prove(compiled.witness, compiled.public_values)
        return compiled, proof

    def prove_batch(
        self,
        txs: Sequence[Transaction],
        backend: "BackendLike" = "serial",
    ) -> List[Tuple[CompiledCircuit, "SnarkProof"]]:
        """Prove a stream of transactions on one execution backend.

        Every transaction compiles to the same circuit *structure* (only
        the witness differs), so the batch shares one prover setup and
        routes through the unified backend layer (:mod:`repro.execution`)
        on ``backend``, a selector string (``"pool:4"``, ``"lanes:auto"``)
        or backend instance — the §2.1 economics in functional form: more
        proofs per unit time, more handling fees.  A string selector is
        resolved once per prover and reused by later calls.  A
        structurally divergent circuit (which a well-formed transaction
        cannot produce) degrades the batch to serial per-transaction
        proving.  The backend's report lands in :attr:`last_runtime_stats`.
        """
        from ..execution.registry import resolve_cached
        from ..runtime import ProverSpec

        for tx in txs:
            if tx.amount % self.field.modulus == 0:
                raise ProofError("zero-amount transactions are invalid")
        circuits = [self._build_circuit(tx) for tx in txs]
        if not circuits:
            return []
        for tx, compiled in zip(txs, circuits):
            if compiled.public_values[0] != tx.commitment(self.field, self.perm):
                raise ProofError("in-circuit commitment diverged from native")
        reference_digest = circuits[0].r1cs.digest()
        uniform = all(
            c.r1cs.digest() == reference_digest for c in circuits[1:]
        )
        if not uniform:
            return [self.prove(tx) for tx in txs]
        spec = self._specs.get(reference_digest)
        if spec is None:
            spec = ProverSpec(
                r1cs=circuits[0].r1cs,
                public_indices=tuple(circuits[0].public_indices),
                num_col_checks=8,
            )
            self._specs[reference_digest] = spec
        resolved = resolve_cached(backend, self._backends)
        tasks = [
            ProofTask(
                task_id=i,
                witness=compiled.witness,
                public_values=compiled.public_values,
            )
            for i, compiled in enumerate(circuits)
        ]
        proofs, stats = resolved.prove_tasks(spec, tasks)
        self.last_runtime_stats = stats
        return list(zip(circuits, proofs))

    def verify(self, compiled: CompiledCircuit, proof, commitment: int, amount: int) -> bool:
        pcs = make_pcs(self.field, compiled.r1cs, num_col_checks=8)
        verifier = SnarkVerifier(
            compiled.r1cs, pcs, public_indices=compiled.public_indices
        )
        return verifier.verify(proof, [commitment, amount])


@dataclass
class RevenueReport:
    """Fees earned per hour under different proving configurations."""

    fee_per_proof: float
    rows: Dict[str, Dict[str, float]]

    def best_configuration(self) -> str:
        return max(self.rows, key=lambda k: self.rows[k]["revenue_per_hour"])


def revenue_report(
    fee_per_proof: float = 0.50,
    scale: int = TX_CIRCUIT_SCALE,
    devices: Sequence[str] = ("GH200",),
    farm: Optional[Sequence[str]] = None,
    costs: Optional[GpuCostModel] = None,
) -> RevenueReport:
    """Price proof throughput in fees/hour (the paper's §2.1 economics).

    Compares the pipelined system against kernel-per-task scheduling on
    each device, plus an optional multi-GPU farm.
    """
    costs = costs or GpuCostModel()
    rows: Dict[str, Dict[str, float]] = {}
    for dev in devices:
        system = BatchZkpSystem(dev, scale=scale, costs=costs)
        pipelined = system.simulate(batch_size=512)
        thpt = pipelined.sim.steady_throughput_per_second
        rows[f"{dev}/pipelined"] = {
            "proofs_per_second": thpt,
            "revenue_per_hour": thpt * 3600 * fee_per_proof,
        }
        naive = run_naive(
            get_gpu(dev), zkp_system_graph(scale, costs), 512, costs=costs,
            compute_penalty=1.3,
        )
        nthpt = naive.steady_throughput_per_second
        rows[f"{dev}/kernel-per-task"] = {
            "proofs_per_second": nthpt,
            "revenue_per_hour": nthpt * 3600 * fee_per_proof,
        }
    if farm:
        result = MultiGpuBatchSystem(list(farm), scale=scale, costs=costs).simulate(
            batch_size=1024
        )
        rows["farm/" + "+".join(farm)] = {
            "proofs_per_second": result.throughput_per_second,
            "revenue_per_hour": result.throughput_per_second * 3600 * fee_per_proof,
        }
    return RevenueReport(fee_per_proof=fee_per_proof, rows=rows)
