"""Proving backends: what the service dispatches a formed batch to.

A backend is anything with ``prove_batch(circuit_key, requests) ->
results`` (one result per request, in order).  Because the batcher only
ever forms *uniform* batches (one circuit key per batch), a backend can
assume every request in the call shares a prover setup — the same
contract :meth:`MlaasService.prove_predictions` exploits.

:class:`RuntimeProofBackend` is the stock backend for raw
:class:`~repro.core.batch.ProofTask` payloads.  It holds one
:class:`~repro.runtime.ProverSpec` per circuit key and routes every
batch through the unified execution layer (:mod:`repro.execution`) on
the one substrate its ``backend`` selector names (default ``"serial"``:
in process, one prover cached per circuit).  Tasks are renumbered to
their request ids before dispatch, so the ``task`` spans in a shared
trace file carry the same ids the service's ``request`` spans do — the
join that lets :func:`repro.execution.request_lineage` walk one request
from submission to proof.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, List, Mapping, Optional, Sequence, Union

from ..core.batch import ProofTask
from ..core.verifier import SnarkVerifier
from ..errors import ServiceError
from ..execution import ProvingBackend, resolve_backend
from ..runtime import ProverSpec, RuntimeStats
from .request import ProofRequest


class RuntimeProofBackend:
    """Proves :class:`ProofTask` payloads on an execution backend.

    Args:
        specs:   ``{circuit key: ProverSpec}`` — the circuits this
                 backend can serve.  The natural key is
                 ``spec.r1cs.digest()`` (see :func:`spec_key`).
        backend: Execution substrate — a selector string (``"serial"``,
                 ``"pool:8"``, ``"cluster:pool:4,pool:4"``) or a
                 :class:`~repro.execution.ProvingBackend` instance.
                 The default proves inline on the batcher thread.
    """

    def __init__(
        self,
        specs: Mapping[bytes, ProverSpec],
        backend: Union[str, ProvingBackend] = "serial",
    ):
        if not specs:
            raise ServiceError("RuntimeProofBackend needs at least one spec")
        self.specs = dict(specs)
        self.backend: ProvingBackend = resolve_backend(backend)
        #: :class:`RuntimeStats` of the most recent batch (None before
        #: the first batch).
        self.last_runtime_stats: Optional[RuntimeStats] = None

    @classmethod
    def from_specs(
        cls,
        specs: Sequence[ProverSpec],
        backend: Union[str, ProvingBackend] = "serial",
    ) -> "RuntimeProofBackend":
        """Build with keys derived from each spec's R1CS digest."""
        return cls({spec_key(spec): spec for spec in specs}, backend)

    def _spec_for(self, circuit_key: bytes) -> ProverSpec:
        try:
            return self.specs[circuit_key]
        except KeyError:
            raise ServiceError(
                f"no ProverSpec registered for circuit key "
                f"{circuit_key.hex()[:16]}…"
            ) from None

    def prove_batch(
        self, circuit_key: bytes, requests: Sequence[ProofRequest]
    ) -> List[Any]:
        """Prove every request's :class:`ProofTask` payload.

        Tasks are renumbered to their request ids (``task_id`` is not
        part of proof content), so per-task trace spans and
        :class:`RuntimeStats` records correlate with service requests.
        """
        spec = self._spec_for(circuit_key)
        tasks: List[ProofTask] = [
            replace(request.payload, task_id=request.request_id)
            for request in requests
        ]
        proofs, stats = self.backend.prove_tasks(spec, tasks)
        self.last_runtime_stats = stats
        return proofs

    def verifier_for(self, circuit_key: bytes) -> SnarkVerifier:
        """The matching verifier for one registered circuit (for clients)."""
        return self._spec_for(circuit_key).build_verifier()


def spec_key(spec: ProverSpec) -> bytes:
    """The canonical circuit key for a spec: its R1CS digest."""
    return spec.r1cs.digest()


def task_witness_key(task: ProofTask) -> bytes:
    """A dedup key for a :class:`ProofTask`: digest of witness + publics."""
    import hashlib

    h = hashlib.sha256()
    h.update(",".join(str(int(v)) for v in task.witness).encode())
    h.update(b"|")
    h.update(",".join(str(int(v)) for v in task.public_values).encode())
    return h.digest()
