"""The unified proving-backend abstraction (S24).

Every proving entry point in the repository — ``BatchProver``, the MLaaS
service, the streaming ``ProofService``, the CLI —
reduces a workload to the same shape: *a picklable prover recipe plus a
list of independent tasks*.  A :class:`ProvingBackend` is anything that
executes that shape::

    proofs, stats = backend.prove_tasks(spec, tasks)

with proofs in task order and a :class:`~repro.runtime.RuntimeStats`
report.  Two concrete substrates ship here:

* :class:`SerialBackend` — in-process, one cached prover per spec; the
  zero-overhead floor every other backend must beat.  It is
  :class:`~repro.execution.LanedBackend` (``lanes``) at width 1.
* :class:`PoolBackend` — the process-pool
  :class:`~repro.runtime.ParallelProvingRuntime` (chunked dispatch,
  retries, timeouts), one cached runtime per spec.

One backend has children: :class:`~repro.cluster.ClusterBackend`
(``cluster:pool:4,serial``) splits a batch across member backends by
rate-proportional largest-remainder arithmetic, runs the shards
concurrently, fails over from dead members, and merges their reports.

The reference oracle is :meth:`~repro.core.prover.SnarkProver.prove`:
every backend's proofs are byte-identical to it, task for task.  Every
substrate attempts, retries and bills a task through one module,
:mod:`repro.runtime.lifecycle`, and stamps its trace events with the
shared correlated schema (``span`` / ``parent`` / ``kind``; see
:mod:`repro.runtime.trace`), so a backend dispatched from inside a
service batch appears as a ``backend`` span under that batch's span in
one JSONL file.
"""

from __future__ import annotations

import os
from typing import (
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from ..core.batch import ProofTask
from ..core.proof import SnarkProof
from ..errors import ExecutionError
from ..runtime.pool import ParallelProvingRuntime
from ..runtime.spec import ProverSpec, _PerSpecCache
from ..runtime.stats import RuntimeStats
from ..runtime.trace import JsonlTraceSink
from .laned import LanedBackend


@runtime_checkable
class ProvingBackend(Protocol):
    """Structural interface of an execution substrate for proof batches.

    ``name`` is the registry spelling (``"serial"``, ``"pool:8"``, …);
    ``parallelism`` is the nominal concurrent capacity, used as a
    cluster member's sharding weight.
    """

    name: str
    parallelism: int

    def prove_tasks(
        self,
        spec: ProverSpec,
        tasks: Sequence[ProofTask],
        *,
        trace: Optional[JsonlTraceSink] = None,
        parent: Optional[str] = None,
    ) -> Tuple[List[SnarkProof], RuntimeStats]:
        """Prove every task (proofs in task order) and report the run."""
        ...  # pragma: no cover - protocol stub


class SerialBackend(LanedBackend):
    """In-process serial execution: :class:`LanedBackend` at width 1.

    Each task is proved as a lane group of one — the floor every other
    backend must beat.  Retries default *off*, so a fault fails loudly.
    """

    def __init__(
        self, *, max_retries: int = 0, fault_injector=None,
    ) -> None:
        super().__init__(
            1, max_retries=max_retries, fault_injector=fault_injector,
        )
        self.name = "serial"


class PoolBackend:
    """Process-pool execution on :class:`ParallelProvingRuntime`.

    One runtime (and therefore one per-worker prover setup recipe) is
    cached per spec; retries, per-task timeouts, chunking, and the
    bounded in-flight window are the runtime's.  Two attributes reach
    it, and like ``fault_injector`` they must be set before the first
    ``prove_tasks`` for a spec: ``lane_width`` (set by the
    ``lanes:W:pool:N`` selector; chunks then carry one lane group each)
    and ``max_retries`` (raised by
    :func:`~repro.resilience.apply_fault_plan`).

    Args:
        workers:         Pool size; ``None`` → ``os.cpu_count()``.
        fault_injector:  Optional picklable ``(task_id, attempt)`` worker
                         hook (see :class:`ParallelProvingRuntime`);
                         a :class:`~repro.resilience.FaultInjector` also
                         gets its ``maybe_corrupt`` delivery hook applied
                         to returned proofs.  Must be set before the
                         first ``prove_tasks`` for a spec — the worker
                         initializer captures it when the runtime is
                         built.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        *,
        fault_injector=None,
    ):
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ExecutionError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.parallelism = workers
        self.name = f"pool:{workers}"
        self.fault_injector = fault_injector
        self.lane_width: Optional[int] = None
        self.max_retries = 2
        self._runtimes = _PerSpecCache()

    def prove_tasks(
        self,
        spec: ProverSpec,
        tasks: Sequence[ProofTask],
        *,
        trace: Optional[JsonlTraceSink] = None,
        parent: Optional[str] = None,
    ) -> Tuple[List[SnarkProof], RuntimeStats]:
        tasks = list(tasks)
        runtime: ParallelProvingRuntime = self._runtimes.get_or_build(
            spec,
            lambda s: ParallelProvingRuntime(
                s,
                workers=self.workers,
                max_retries=self.max_retries,
                fault_injector=self.fault_injector,
                lane_width=self.lane_width,
            ),
        )
        proofs, stats = runtime.prove_tasks(tasks, trace=trace, parent=parent)
        corrupt = getattr(self.fault_injector, "maybe_corrupt", None)
        if corrupt is not None:
            proofs = [
                corrupt(proof, task.task_id)
                for proof, task in zip(proofs, tasks)
            ]
        return proofs, stats
