"""Batch proof generation (the system-level API of the paper's Figure 7).

The paper's headline setting is a *stream* of proof tasks: "service
providers need to continuously process customer inputs that come in like a
flowing stream" (§1).  :class:`BatchProver` is the functional counterpart
of that pipeline: it accepts tasks, generates proofs for all of them on a
fixed R1CS instance, and reports throughput statistics.  The GPU pipeline
*simulation* of the same workload lives in :mod:`repro.pipeline`; this
class produces the actual, verifiable proofs.

Statistics lifecycle: ``BatchProver.stats`` is created once and never
rebound, so references held by callers stay live; every
:meth:`~BatchProver.prove_all` run begins by resetting it in place, so
each run's numbers are fresh rather than merged with the previous
run's, and returns an immutable-by-convention *snapshot* that later
runs do not touch.

Execution is delegated to the unified backend layer
(:mod:`repro.execution`), chosen by one ``backend`` argument: a
:class:`~repro.execution.ProvingBackend` or a selector string
(``"serial"``, ``"pool:4"``, ``"cluster:pool:4,pool:4"``).  The default,
``"lanes:auto"``, proves same-circuit tasks in lockstep lane groups
sized by working set, byte-identical to one-at-a-time proving.
The per-run report (percentile latencies, retries, utilization) lands in
:attr:`BatchProver.last_runtime_stats`.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Union

from ..errors import ProofError
from .proof import SnarkProof
from .prover import SnarkProver
from .verifier import SnarkVerifier

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..execution import ProvingBackend
    from ..runtime.stats import RuntimeStats

    BackendLike = Union[str, ProvingBackend]


@dataclass(frozen=True)
class ProofTask:
    """One unit of the proof stream: a witness and its public outputs."""

    task_id: int
    witness: List[int]
    public_values: List[int]


@dataclass
class BatchStats:
    """Aggregate statistics over one batch run."""

    proofs_generated: int = 0
    total_seconds: float = 0.0
    #: A proof of a lane group is billed the group's wall time / lanes.
    per_proof_seconds: List[float] = dc_field(default_factory=list)

    @property
    def throughput_per_second(self) -> float:
        if self.total_seconds <= 0:
            return 0.0
        return self.proofs_generated / self.total_seconds

    @property
    def amortized_seconds(self) -> float:
        if not self.proofs_generated:
            return 0.0
        return self.total_seconds / self.proofs_generated

    def reset(self) -> None:
        """Zero every counter in place (start of a new run)."""
        self.proofs_generated = 0
        self.total_seconds = 0.0
        self.per_proof_seconds.clear()

    def snapshot(self) -> "BatchStats":
        """An independent copy, frozen at the current values."""
        return BatchStats(
            proofs_generated=self.proofs_generated,
            total_seconds=self.total_seconds,
            per_proof_seconds=list(self.per_proof_seconds),
        )


class BatchProver:
    """Generates proofs for a stream of tasks on one circuit.

    >>> # doctest-style sketch; see examples/quickstart.py for a real run
    >>> # batch = BatchProver(prover)
    >>> # proofs, stats = batch.prove_all(tasks)

    Args:
        prover:  The fixed-instance SNARK prover.
        backend: Default execution backend for :meth:`prove_all` — a
                 selector string (``"lanes:auto"``, ``"serial"``,
                 ``"pool:8"``, ``"cluster:pool:4,pool:4"``) or a
                 :class:`~repro.execution.ProvingBackend` instance.
    """

    def __init__(
        self,
        prover: SnarkProver,
        backend: "BackendLike" = "lanes:auto",
    ):
        self.prover = prover
        self.backend = backend
        self.stats = BatchStats()
        #: The :class:`~repro.runtime.RuntimeStats` of the most recent
        #: :meth:`prove_all` (None until one completes).
        self.last_runtime_stats: Optional["RuntimeStats"] = None
        self._spec = None  # lazy ProverSpec, derived once per prover

    def prove_all(
        self,
        tasks: Sequence[ProofTask],
        backend: Optional["BackendLike"] = None,
    ) -> Tuple[List[SnarkProof], BatchStats]:
        """Prove every task; returns the proofs and this run's statistics.

        ``backend`` overrides the constructor default for this call only.
        The returned stats object is a snapshot: later runs reset
        ``self.stats`` in place but never mutate a returned snapshot.
        """
        self.stats.reset()
        proofs = self._prove_all_backend(
            list(tasks), self.backend if backend is None else backend
        )
        return proofs, self.stats.snapshot()

    def _prove_all_backend(
        self, tasks: Sequence[ProofTask], backend: "BackendLike"
    ) -> List[SnarkProof]:
        from ..execution import resolve_backend
        from ..runtime import ProverSpec

        resolved = resolve_backend(backend)
        if self._spec is None:
            self._spec = ProverSpec.from_prover(self.prover)
        adopt = getattr(resolved, "adopt_prover", None)
        if adopt is not None:
            # Reuse the live prover instead of rebuilding it from the spec.
            adopt(self._spec, self.prover)
        proofs, runtime_stats = resolved.prove_tasks(self._spec, tasks)
        self.last_runtime_stats = runtime_stats
        self.stats.proofs_generated = len(proofs)
        self.stats.total_seconds = runtime_stats.total_seconds
        self.stats.per_proof_seconds.extend(
            record.prove_seconds for record in runtime_stats.records
        )
        return proofs


def verify_all(
    verifier: SnarkVerifier,
    proofs: Sequence[SnarkProof],
    tasks: Sequence[ProofTask],
) -> bool:
    """Verify a batch of proofs against their tasks' public values."""
    if len(proofs) != len(tasks):
        raise ProofError(f"{len(proofs)} proofs for {len(tasks)} tasks")
    return all(
        verifier.verify(proof, task.public_values)
        for proof, task in zip(proofs, tasks)
    )
