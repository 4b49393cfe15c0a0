"""The task-discipline substrate: attribution, quarantine, re-prove.

:class:`ResilientBackend` implements the
:class:`~repro.execution.ProvingBackend` protocol around exactly one
child backend (``resilient:cluster:serial,serial``,
``resilient:pool:4``) and keeps one bad task from sinking a batch:

* A failed *group* call has an unknown culprit (one task may be
  poisoned), so its tasks are resubmitted as **singletons** — after
  which every failure names exactly one task.  When the child hands
  back the finished tasks' proofs with the failure
  (:class:`~repro.errors.PartialBatchError`, a cluster whose other
  shards finished), those proofs are kept and only the failed tasks
  are retried; a failed remainder of one task is already attributed.
* A task whose singleton calls fail :data:`QUARANTINE_THRESHOLD` times
  is **quarantined**: its result slot carries a typed
  :class:`~repro.errors.QuarantinedTaskError` instead of sinking the
  other tasks' proofs — the per-task blast-radius discipline the
  chunk-splitting retry in :mod:`repro.runtime.pool` applies one level
  down.
* With ``verify_on_return=True`` every proof is verified before it is
  returned; a corrupted proof is **re-proved** (bounded by
  :data:`MAX_REPROVES` per task, then counted as a singleton failure).

Node availability is not this module's concern (DESIGN decision 28): a
:class:`~repro.errors.BackendUnavailableError` from the child
propagates.  Breakers, failover and the wait for an admissible node
live in :class:`~repro.cluster.ClusterBackend`, the one backend with
children.

Every decision is traced on the shared span schema: ``child_failure``,
``reprove`` and ``quarantine`` events hang off this backend's span, and
the child's own span (a cluster's ``node_failure`` and
``ring_rebalance`` included) nests under it.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..core.batch import ProofTask
from ..core.proof import SnarkProof
from ..errors import (
    BackendUnavailableError,
    ExecutionError,
    PartialBatchError,
    QuarantinedTaskError,
)
from ..execution.backend import ProvingBackend
from ..runtime.spec import ProverSpec, _PerSpecCache
from ..runtime.stats import RuntimeStats, merge_runtime_stats
from ..runtime.trace import JsonlTraceSink, backend_span
from .faults import FaultInjector
from .stats import ResilienceStats

#: A result slot: the proof, or the typed quarantine verdict.
TaskResult = Union[SnarkProof, QuarantinedTaskError]

#: Failed singleton calls of one task before it is quarantined.
QUARANTINE_THRESHOLD = 2

#: Re-prove budget per task before a proof that failed verification
#: counts as a singleton failure.
MAX_REPROVES = 1


class ResilientBackend:
    """Singleton attribution + quarantine + re-prove around one child.

    Args:
        child: The backend to protect; ``cluster:`` when the batch
            should survive node failures as well as task failures.
        verify_on_return: Verify every proof before returning; failed
            verification triggers a re-prove.
        fault_injector: The run's :class:`FaultInjector`, read to count
            the faults injected (the hooks themselves sit on the child
            backends, where :func:`~repro.resilience.apply_fault_plan`
            installs them).
    """

    def __init__(
        self,
        child: ProvingBackend,
        *,
        verify_on_return: bool = False,
        fault_injector: Optional[FaultInjector] = None,
    ):
        if not isinstance(child, ProvingBackend):
            raise ExecutionError(
                f"ResilientBackend wraps one ProvingBackend, got "
                f"{type(child).__name__}"
            )
        self.child = child
        self.name = f"resilient:{child.name}"
        self.parallelism = max(1, int(getattr(child, "parallelism", 1)))
        self.verify_on_return = verify_on_return
        self.fault_injector = fault_injector
        self._verifiers = _PerSpecCache()
        #: Lifetime accumulation across runs.
        self.resilience_stats = ResilienceStats()
        #: The most recent run's report (None before the first run).
        self.last_resilience_stats: Optional[ResilienceStats] = None

    def prove_tasks(
        self,
        spec: ProverSpec,
        tasks: Sequence[ProofTask],
        *,
        trace: Optional[JsonlTraceSink] = None,
        parent: Optional[str] = None,
    ) -> Tuple[List[TaskResult], RuntimeStats]:
        """Prove every task, surviving task failures.

        The result list is in task order; a slot holds the task's
        :class:`SnarkProof`, or a :class:`QuarantinedTaskError` when the
        task's singleton calls failed :data:`QUARANTINE_THRESHOLD`
        times.  A :class:`BackendUnavailableError` from the child
        propagates.
        """
        tasks = list(tasks)
        ctx = backend_span(trace, parent)
        rstats = ResilienceStats()
        injector = self.fault_injector
        injected_before = (
            injector.injected_snapshot() if injector is not None else {}
        )
        start = time.perf_counter()
        ctx.emit(
            "resilient_start", backend=self.name, tasks=len(tasks),
            child=self.child.name,
        )
        results: List[Optional[TaskResult]] = [None] * len(tasks)
        part_stats: List[RuntimeStats] = []
        failures: Dict[int, int] = {}
        reproves: Dict[int, int] = {}

        def fail(index: int, reason: str) -> bool:
            """Count a singleton failure; True while the task may retry."""
            failures[index] = failures.get(index, 0) + 1
            if failures[index] < QUARANTINE_THRESHOLD:
                return True
            results[index] = QuarantinedTaskError(
                tasks[index].task_id,
                [self.child.name] * failures[index],
                last_error=reason,
            )
            rstats.quarantined += 1
            ctx.emit(
                "quarantine", task_id=tasks[index].task_id,
                attempts=failures[index], reason=reason,
            )
            return False

        groups: List[List[int]] = [list(range(len(tasks)))] if tasks else []
        while groups:
            rstats.rounds += 1
            retry: List[List[int]] = []
            for group in groups:
                try:
                    proofs, child_stats = self.child.prove_tasks(
                        spec, [tasks[i] for i in group],
                        trace=ctx.sink, parent=ctx.span,
                    )
                except BackendUnavailableError:
                    raise
                except Exception as exc:  # noqa: BLE001 - failure domain seam
                    reason = repr(exc)
                    proofs, child_stats = [None] * len(group), None
                    if isinstance(exc, PartialBatchError):
                        reason = repr(exc.__cause__)
                        proofs, child_stats = exc.results, exc.stats
                    failed = [i for i, p in zip(group, proofs) if p is None]
                    rstats.child_failures += 1
                    ctx.emit(
                        "child_failure", child=self.child.name,
                        tasks=[tasks[i].task_id for i in failed],
                        reason=reason, attributable=len(failed) == 1,
                    )
                    if len(failed) > 1:
                        retry.extend([index] for index in failed)
                    elif fail(failed[0], reason):
                        retry.append(failed)
                if child_stats is not None:
                    part_stats.append(child_stats)
                for index, proof in zip(group, proofs):
                    if proof is None:
                        continue
                    if self._verified(spec, tasks[index], proof):
                        results[index] = proof
                        continue
                    used = reproves.get(index, 0)
                    if used < MAX_REPROVES:
                        reproves[index] = used + 1
                        rstats.re_proves += 1
                        ctx.emit(
                            "reprove", task_id=tasks[index].task_id,
                            attempt=used + 1,
                        )
                        retry.append([index])
                    elif fail(
                        index, "proof failed verification after re-proves"
                    ):
                        retry.append([index])
            groups = retry

        stats = merge_runtime_stats(
            part_stats, total_seconds=time.perf_counter() - start
        )
        stats.workers = max(stats.workers, 1)
        if injector is not None:
            after = injector.injected_snapshot()
            for fault_kind, count in after.items():
                delta = count - injected_before.get(fault_kind, 0)
                if delta > 0:
                    rstats.record_fault(fault_kind, delta)
        ctx.emit(
            "resilient_end",
            proofs=sum(1 for r in results if isinstance(r, SnarkProof)),
            quarantined=rstats.quarantined,
            re_proves=rstats.re_proves,
            child_failures=rstats.child_failures,
            seconds=stats.total_seconds,
        )
        if ctx.sink is not None:
            ctx.sink.flush()
        self.last_resilience_stats = rstats
        self.resilience_stats.merge(rstats)
        return results, stats  # type: ignore[return-value]

    def _verified(self, spec, task: ProofTask, proof: SnarkProof) -> bool:
        """True unless ``verify_on_return`` is on and the proof fails."""
        if not self.verify_on_return:
            return True
        verifier = self._verifiers.get_or_build(
            spec, lambda s: s.build_verifier()
        )
        try:
            return bool(verifier.verify(proof, task.public_values))
        except Exception:  # structurally broken proof
            return False


def split_results(
    results: Sequence[TaskResult],
) -> Tuple[List[Tuple[int, SnarkProof]], List[QuarantinedTaskError]]:
    """Partition a resilient result list into proofs and quarantines.

    Returns ``([(task index, proof), ...], [QuarantinedTaskError, ...])``
    so callers can verify the proofs against the right tasks and report
    the quarantines separately.
    """
    proofs: List[Tuple[int, SnarkProof]] = []
    quarantined: List[QuarantinedTaskError] = []
    for index, result in enumerate(results):
        if isinstance(result, QuarantinedTaskError):
            quarantined.append(result)
        else:
            proofs.append((index, result))
    return proofs, quarantined
