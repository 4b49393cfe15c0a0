"""The MLaaS verifiable-inference service (paper §5, Figure 8).

Three components, exactly as the paper draws them:

* an **interface** — :class:`PredictionResponse` carries everything the
  customer sees (prediction, proof, model commitment);
* the **ML engine** — quantized inference with intermediate-activation
  traces;
* the **ZKP system** — the real SNARK for circuit-scale models, and the
  calibrated pipeline simulation for the VGG-16 workload of Table 11.

The preprocessing stage Merkle-commits the model parameters; the root is
the customer's anchor that the committed model — and not a substitute —
produced every prediction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from ..core.batch import ProofTask
from ..core.prover import SnarkProver, make_pcs
from ..core.verifier import SnarkVerifier
from ..core.proof import SnarkProof
from ..errors import ZkmlError
from ..field.prime_field import DEFAULT_FIELD
from ..hashing.hashers import get_hasher
from ..merkle.tree import MerkleTree
from ..pipeline.system import BatchZkpSystem, SystemResult
from .circuitize import circuitize
from .model import SequentialModel
from .tensor import QuantizedTensor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..execution import ProvingBackend
    from ..runtime import ProverSpec, RuntimeStats
    from ..service import ProofService

    BackendLike = Union[str, ProvingBackend]

#: Stage caps for the deep VGG pipeline: uncapped — the verifiable-CNN
#: pipeline dedicates kernels to every layer of its much deeper module
#: chain, which is why Table 11's latency (15.2 s) is ~145 beats while the
#: S = 2^20 system of Table 8 sits at ~28.
VGG_STAGE_CAPS = {"encoder": 10_000, "merkle": 10_000, "sumcheck": 10_000}

#: Hash of the model-parameter Merkle commitment (:attr:`MlaasService.model_root`).
MODEL_HASHER = "sha256-hw"


@dataclass
class PredictionResponse:
    """What the service returns to a customer for one input."""

    prediction: List[int]  # output logits (signed ints, quantized scale)
    proof: Optional[SnarkProof]
    model_root: bytes


class MlaasService:
    """A verifiable prediction service over a circuit-friendly model.

    >>> # See examples/verifiable_ml.py for an end-to-end run.
    """

    def __init__(self, model: SequentialModel, num_col_checks: int = 10):
        self.model = model
        self.field = DEFAULT_FIELD
        self.hasher = get_hasher(MODEL_HASHER)
        self.num_col_checks = num_col_checks
        # Preprocessing (Figure 8): commit the model parameters once.
        self._param_tree = MerkleTree.from_blocks(
            model.parameter_blocks(), self.hasher
        )
        #: :class:`~repro.runtime.RuntimeStats` of the most recent
        #: :meth:`prove_predictions` batch (None before the first batch).
        self.last_runtime_stats: Optional["RuntimeStats"] = None
        # Per-circuit specs and per-selector execution backends, both
        # cached so repeated batches of one shape reuse prover setups.
        self._specs: Dict[bytes, "ProverSpec"] = {}
        self._backends: Dict[str, "ProvingBackend"] = {}

    @property
    def model_root(self) -> bytes:
        """The Merkle commitment customers pin the model to."""
        return self._param_tree.root

    # -- plain prediction (the "ML engine") -----------------------------------

    def predict(self, x: QuantizedTensor) -> QuantizedTensor:
        return self.model.forward(x)

    # -- verifiable prediction --------------------------------------------------

    def prove_prediction(self, x: QuantizedTensor) -> PredictionResponse:
        """Predict and produce a real SNARK proof of the inference."""
        zk = circuitize(self.model, x, self.field)
        compiled = zk.compiled
        pcs = make_pcs(self.field, compiled.r1cs, num_col_checks=self.num_col_checks)
        prover = SnarkProver(
            compiled.r1cs, pcs, public_indices=compiled.public_indices
        )
        proof = prover.prove(compiled.witness, compiled.public_values)
        return PredictionResponse(
            prediction=zk.outputs, proof=proof, model_root=self.model_root
        )

    def prove_predictions(
        self,
        inputs: Sequence[QuantizedTensor],
        backend: "BackendLike" = "serial",
    ) -> List[PredictionResponse]:
        """Prove a *batch* of predictions on one execution backend.

        Same-shaped inputs to one model compile to the same circuit
        structure, so the batch shares a single prover setup; execution
        routes through the unified backend layer (:mod:`repro.execution`)
        on ``backend``, a selector string (``"pool:4"``, ``"lanes:auto"``)
        or backend instance — which is the MLaaS "flowing stream" setting
        of the paper's §5.  A string selector is resolved once per
        service and reused by later calls.  Should an input ever compile
        to a structurally different circuit, the batch degrades to
        per-input serial proving rather than producing invalid proofs.
        The backend's report lands in
        :attr:`last_runtime_stats`; calls that never reach a backend (an
        empty batch, or the non-uniform serial fallback) reset it to None
        so it always describes *this* call, never a previous one.
        """
        from ..execution.registry import resolve_cached
        from ..runtime import ProverSpec

        self.last_runtime_stats = None
        circuits = [circuitize(self.model, x, self.field) for x in inputs]
        if not circuits:
            return []
        first = circuits[0].compiled
        reference_digest = first.r1cs.digest()
        uniform = all(
            zk.compiled.r1cs.digest() == reference_digest for zk in circuits[1:]
        )
        if not uniform:
            return [self.prove_prediction(x) for x in inputs]
        spec = self._specs.get(reference_digest)
        if spec is None:
            spec = ProverSpec(
                r1cs=first.r1cs,
                public_indices=tuple(first.public_indices),
                num_col_checks=self.num_col_checks,
            )
            self._specs[reference_digest] = spec
        resolved = resolve_cached(backend, self._backends)
        tasks = [
            ProofTask(
                task_id=i,
                witness=zk.compiled.witness,
                public_values=zk.compiled.public_values,
            )
            for i, zk in enumerate(circuits)
        ]
        proofs, stats = resolved.prove_tasks(spec, tasks)
        self.last_runtime_stats = stats
        return [
            PredictionResponse(
                prediction=zk.outputs, proof=proof, model_root=self.model_root
            )
            for zk, proof in zip(circuits, proofs)
        ]

    def verify_prediction(
        self, x: QuantizedTensor, response: PredictionResponse
    ) -> bool:
        """Customer-side check: commitment matches, proof verifies.

        Re-deriving the circuit requires the model *structure* (public) but
        not its parameters in a real deployment; this reproduction's
        circuit carries the parameters as witness, so the customer check
        here recompiles with the service's model object and verifies the
        proof against the claimed public outputs.
        """
        if response.model_root != self.model_root:
            return False
        if response.proof is None:
            return False
        zk = circuitize(self.model, x, self.field)
        compiled = zk.compiled
        pcs = make_pcs(self.field, compiled.r1cs, num_col_checks=self.num_col_checks)
        verifier = SnarkVerifier(
            compiled.r1cs, pcs, public_indices=compiled.public_indices
        )
        p = self.field.modulus
        claimed = [v % p for v in response.prediction]
        return verifier.verify(response.proof, claimed)

    # -- streaming front door ---------------------------------------------------

    def request_keys(self, x: QuantizedTensor) -> Tuple[bytes, bytes]:
        """(circuit key, witness key) for one prediction request.

        Same-shaped inputs to one committed model compile to the same
        circuit structure, so the circuit key hashes (model root, input
        shape, scale); the witness key additionally hashes the input
        values, giving the cache identity "this exact question to this
        exact model".
        """
        import hashlib

        shape_tag = (
            f"{x.shape}|{x.frac_bits}".encode()
        )
        circuit_key = hashlib.sha256(
            b"mlaas|" + self.model_root + b"|" + shape_tag
        ).digest()
        witness_key = hashlib.sha256(
            circuit_key + b"|" + str(x.values.tolist()).encode()
        ).digest()
        return circuit_key, witness_key

    def serve(
        self,
        *,
        backend: "BackendLike" = "serial",
        policy=None,
    ) -> "ProofService":
        """Open a streaming front door over this model (Figure 8, online).

        Returns a started :class:`~repro.service.ProofService` whose
        payloads are input tensors and whose results are
        :class:`PredictionResponse` objects.  The service's keyer is
        :meth:`request_keys`, so callers submit bare tensors::

            with svc.serve(policy=BatchPolicy(max_batch_size=4)) as front:
                ticket = front.submit(x, priority=Priority.INTERACTIVE)
                response = ticket.result(timeout=60)

        Every dispatched batch is uniform by construction, so it rides
        the shared-:class:`~repro.runtime.ProverSpec` fast path of
        :meth:`prove_predictions` on ``backend`` — any selector,
        including ``cluster:…`` / ``resilient:cluster:…`` fleet
        selectors, which are resolved once so their node connections
        persist across the stream.
        """
        from ..service import ProofService

        return ProofService(
            _PredictionBackend(self, backend),
            policy=policy,
            keyer=self.request_keys,
        )


class _PredictionBackend:
    """Service backend: uniform tensor batches → :class:`PredictionResponse`s.

    The batcher guarantees every batch shares a circuit key, i.e. a
    shape-uniform input set, so :meth:`MlaasService.prove_predictions`
    takes its one-prover-setup fast path on every dispatch.

    A string ``backend`` selector is resolved *once* here, not per batch:
    stateful backends (``remote:``/``cluster:`` connections, process
    pools) must persist across the stream, not reconnect every dispatch.
    """

    def __init__(
        self,
        service: MlaasService,
        backend: "BackendLike" = "serial",
    ):
        from ..execution import resolve_backend

        self.service = service
        self.backend = resolve_backend(backend)

    def prove_batch(self, circuit_key, requests) -> List[PredictionResponse]:
        inputs = [request.payload for request in requests]
        return self.service.prove_predictions(inputs, backend=self.backend)


def simulate_vgg16_service(
    model: SequentialModel,
    device: str = "GH200",
    batch_size: int = 256,
) -> SystemResult:
    """Table 11: simulate batch proof generation for the VGG-16 circuit.

    The model's gate count (from the zkCNN-style per-layer accounting)
    drives the calibrated pipeline; the returned result carries the
    throughput (proofs/second) and latency the table reports.
    """
    gates = model.gate_count()
    if gates < 1 << 20:
        raise ZkmlError(
            f"simulate_vgg16_service expects a large model, got {gates} gates"
        )
    system = BatchZkpSystem(device, scale=gates, stage_caps=VGG_STAGE_CAPS)
    return system.simulate(batch_size=batch_size)
