"""One task lifecycle for every execution substrate.

Wherever a proof task runs — inline, in a lane group, in a pool worker,
in a stage pipeline, on a remote node — it goes through the same steps:
the fault hook fires, the prover runs under one stage-profiling window,
a failed attempt is retried with backoff, and the success is billed as a
:class:`~repro.runtime.stats.TaskRecord` plus ``complete`` /
``stage_timing`` events on the task span.  The steps live here once:
:func:`prove_group` (one lane-group machine at every width), the retry loop
:func:`prove_with_retries` over :func:`fire_faults` and
:func:`backoff_or_raise` (which the asynchronous schedulers share), and
:func:`record`.

A retry ``policy`` is any object with the standard chaos hooks:
``fault_injector`` (``(task_id, attempt)`` callable or None) and
``max_retries``.  Attempts count from 1; a task has spent its budget
after ``1 + max_retries``.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..core.batch import ProofTask
from ..core.proof import SnarkProof
from ..errors import ProofError
from ..kernels.profile import collect_stages
from .stats import RuntimeStats, TaskRecord
from .trace import SpanContext

#: Base delay before a retry, doubling per attempt (0.05 → 0.1 → 0.2 …);
#: every substrate retries on this one schedule.
RETRY_BACKOFF_SECONDS = 0.05

#: ``(proofs, wall_seconds, stage_seconds)`` of one proved group.
GroupResult = Tuple[List[SnarkProof], float, Dict[str, float]]


def prove_group(prover, tasks: Sequence[ProofTask]) -> GroupResult:
    """Prove ``tasks`` as one ``prove_lanes`` dispatch under one
    :func:`collect_stages` window — a task alone is a group of one."""
    t0 = time.perf_counter()
    with collect_stages() as profile:
        proofs = prover.prove_lanes(
            [task.witness for task in tasks],
            [task.public_values for task in tasks],
        )
    return proofs, time.perf_counter() - t0, profile.as_dict()


def fire_faults(injector, tasks: Sequence[ProofTask], attempt: int) -> None:
    """Fire the fault hook for ``attempt`` of every task in a group.

    The hook fires for each task even after one raised, then the first
    fault is re-raised: a failed group attempt is ``attempt`` for all of
    its tasks, so each continues at ``attempt + 1``.
    """
    if injector is None:
        return
    faults = []
    for task in tasks:
        try:
            injector(task.task_id, attempt)
        except Exception as exc:
            faults.append(exc)
    if faults:
        raise faults[0]


def backoff_or_raise(
    policy, ctx: SpanContext, stats: RuntimeStats, task_id: int,
    attempt: int, error: Union[BaseException, str],
) -> float:
    """Account one failed attempt and return the backoff before the next.

    Raises :class:`~repro.errors.ProofError` once ``attempt`` spent the
    budget; otherwise counts the retry and emits ``retry`` on the task
    span.  The backoff is ``RETRY_BACKOFF_SECONDS · 2^(attempt-1)``.
    """
    if attempt > policy.max_retries:
        raise ProofError(
            f"task {task_id} failed after {attempt} attempts: {error}"
        ) from (error if isinstance(error, BaseException) else None)
    stats.retries += 1
    reason = error if isinstance(error, str) else repr(error)
    ctx.for_task(task_id).emit(
        "retry", task_id=task_id, attempt=attempt, reason=reason
    )
    return RETRY_BACKOFF_SECONDS * (2 ** (attempt - 1))


def prove_with_retries(
    run: Callable[[ProofTask, int], GroupResult], task: ProofTask,
    first_attempt: int, policy, ctx: SpanContext, stats: RuntimeStats,
) -> Tuple[SnarkProof, float, Dict[str, float], int]:
    """Attempt ``task`` until it proves: ``(proof, seconds, stages, attempt)``.

    ``run(task, attempt)`` proves the task in the :func:`prove_group`
    shape; the fault hook fires before every attempt.
    """
    attempt = first_attempt
    while True:
        try:
            fire_faults(policy.fault_injector, [task], attempt)
            (proof,), seconds, stages = run(task, attempt)
            return proof, seconds, stages, attempt
        except Exception as exc:
            time.sleep(backoff_or_raise(
                policy, ctx, stats, task.task_id, attempt, exc
            ))
            attempt += 1


def record(
    stats: RuntimeStats, ctx: SpanContext, task_ids: Sequence[int],
    seconds: float, stages: Optional[Dict[str, float]], attempt: int,
    latency: float, *, worker: Optional[int] = None,
    node: Optional[str] = None,
) -> None:
    """Bill one proved group: a record and completion events per task.

    Each task owns an equal slice of the group's ``seconds`` and of every
    stage bucket; division is linear, so the S27 invariant
    ``Σ exclusive(stages) <= prove_seconds`` carries over.  ``worker`` /
    ``node`` are stamped on the events when given.
    """
    per_task = seconds / len(task_ids)
    per_stages = {k: v / len(task_ids) for k, v in (stages or {}).items()}
    where = {
        k: v for k, v in (("worker", worker), ("node", node)) if v is not None
    }
    stats.busy_seconds += seconds
    for task_id in task_ids:
        stats.records.append(TaskRecord(
            task_id=task_id, attempts=attempt, prove_seconds=per_task,
            latency_seconds=latency, worker=worker,
            stage_seconds=per_stages or None,
        ))
        task_ctx = ctx.for_task(task_id)
        task_ctx.emit(
            "complete", task_id=task_id, attempt=attempt, seconds=per_task,
            **where,
        )
        if per_stages:
            task_ctx.emit(
                "stage_timing", task_id=task_id, seconds=per_task,
                stages=per_stages, **where,
            )
