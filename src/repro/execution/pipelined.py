"""Stage-pipelined execution backend (S27).

The paper's Figure 4 contrast: task-granular parallelism (one worker =
one whole proof, Figure 4b) leaves every per-stage unit idle while the
other stages of *its* proof run; the pipelined design (Figure 4a)
streams each stage's kernel across many proofs so proof *i* is in
sum-check while proof *i+1* is in Merkle and *i+2* is encoding.
:class:`PipelinedBackend` is that discipline on the S24 backend seam,
driving the :class:`~repro.core.LanedProof` checkpoints
(``encode → merkle → sumcheck → open``) through per-stage worker queues.

Sizing follows the paper's measured-cost methodology: a warmup slice of
the first batch is proved inline under stage profiling, the measured
fractions go through :func:`~repro.kernels.profile.stage_cost_fractions`
(its residue arithmetic *is* the exclusive
:meth:`~repro.kernels.profile.StageProfile.exclusive` view — ``commit``
never double-counts its ``encode``/``merkle`` children), and
:func:`plan_stage_workers` turns the fractions into a worker-per-stage
plan: with fewer workers than stages, adjacent stages merge into
contiguous groups balancing the bottleneck; with more, the heaviest
stages get the extra workers.

Every hand-off is on the correlated span schema — ``stage_enqueue`` /
``stage_start`` / ``stage_done`` events under the task span — so one
JSONL trace replays the pipeline's interleaving exactly.  Proofs are
byte-identical to :class:`~repro.execution.SerialBackend` (the staged
machine runs the same code split at checkpoints), and the backend
carries the standard chaos hooks (``fault_injector``, ``max_retries``)
so ``apply_fault_plan`` walks it and ``resilient:pipelined:4`` composes.
"""

from __future__ import annotations

import os
import queue
import threading
import time
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.batch import ProofTask
from ..core.proof import SnarkProof
from ..core.prover import PIPELINE_STAGES
from ..errors import ExecutionError, ProofError
from ..kernels.profile import StageProfile, collect_into, stage_cost_fractions
from ..kernels.spec_cache import default_spec_cache
from ..runtime.lifecycle import (
    backoff_or_raise,
    fire_faults,
    prove_with_retries,
    record,
)
from ..runtime.spec import ProverSpec, _PerSpecCache
from ..runtime.stats import RuntimeStats
from ..runtime.trace import JsonlTraceSink, backend_span

__all__ = ["PipelinedBackend", "StageGroup", "plan_stage_workers"]

#: Proofs of a spec's first batch proved inline under stage profiling;
#: their measured stage split sizes the plan cached for the spec.
WARMUP_TASKS = 2

#: Which :func:`stage_cost_fractions` key weighs each pipeline stage.
#: ``open`` maps to ``other`` (commit residue + opening — the opening
#: dominates that bucket in practice).
_STAGE_WEIGHT_KEYS: Dict[str, str] = {
    "encode": "encoder",
    "merkle": "merkle",
    "sumcheck": "sumcheck",
    "open": "other",
}


@dataclass(frozen=True)
class StageGroup:
    """One pipeline station: contiguous stages served by one queue."""

    stages: Tuple[str, ...]
    workers: int


def plan_stage_workers(
    fractions: Mapping[str, float], workers: int
) -> List[StageGroup]:
    """Partition the pipeline stages across ``workers`` worker threads.

    ``fractions`` is a :func:`~repro.kernels.profile.stage_cost_fractions`
    mapping (``merkle`` / ``sumcheck`` / ``encoder`` / ``other``) —
    exclusive shares of proving time.  With ``workers < 4`` the stages
    are merged into that many *contiguous* groups minimizing the
    heaviest group (the pipeline's bottleneck station); with
    ``workers >= 4`` every stage gets its own queue and the surplus
    workers go to the heaviest stages by largest remainder.

    >>> plan_stage_workers({}, 2)  # no measurements → balanced halves
    [StageGroup(stages=('encode', 'merkle'), workers=1), \
StageGroup(stages=('sumcheck', 'open'), workers=1)]
    """
    from .sharding import largest_remainder_shares

    if workers < 1:
        raise ExecutionError(f"workers must be >= 1, got {workers}")
    stages = list(PIPELINE_STAGES)
    weights = [
        max(1e-9, float(fractions.get(_STAGE_WEIGHT_KEYS[s], 0.0)))
        for s in stages
    ]
    if workers >= len(stages):
        extra = workers - len(stages)
        bonus = (
            largest_remainder_shares(extra, weights)
            if extra > 0
            else [0] * len(stages)
        )
        return [
            StageGroup(stages=(s,), workers=1 + b)
            for s, b in zip(stages, bonus)
        ]
    # Fewer workers than stages: choose the contiguous partition into
    # `workers` groups whose heaviest group is lightest.  Only C(3, k-1)
    # split-point sets exist for 4 stages — enumerate them.
    from itertools import combinations

    best: Optional[List[StageGroup]] = None
    best_cost = float("inf")
    for cuts in combinations(range(1, len(stages)), workers - 1):
        bounds = [0, *cuts, len(stages)]
        cost = max(
            sum(weights[lo:hi]) for lo, hi in zip(bounds, bounds[1:])
        )
        if cost < best_cost:
            best_cost = cost
            best = [
                StageGroup(stages=tuple(stages[lo:hi]), workers=1)
                for lo, hi in zip(bounds, bounds[1:])
            ]
    assert best is not None
    return best


class _Unit:
    """One pipeline traveller: a lane group of tasks (S31), one task
    being a group of one.

    A unit owns a staged machine (:class:`~repro.core.lanes.LanedProof`)
    plus retry/profiling bookkeeping.  Stage events are emitted on the
    *lead* task's span; completion records fan out per lane.
    """

    __slots__ = (
        "indices", "tasks", "staged", "attempt", "profile", "prove_seconds",
    )

    def __init__(self, indices: List[int], tasks: List[ProofTask], prover):
        self.indices = indices
        self.tasks = tasks
        self.attempt = 1
        self.restart(prover)

    def restart(self, prover) -> None:
        """A fresh staged machine and profile, back at ``encode``."""
        self.staged = prover.begin_lanes(
            [t.witness for t in self.tasks], [t.public_values for t in self.tasks]
        )
        self.profile = StageProfile()
        self.prove_seconds = 0.0

    @property
    def task(self) -> ProofTask:
        """The lead task — the span stage events hang off."""
        return self.tasks[0]

    def run_stage(self, task_ctx) -> None:
        """Run the next stage, timed and profiled, between its events."""
        name = self.staged.next_stage
        task_ctx.emit(
            "stage_start", task_id=self.task.task_id, stage=name,
            attempt=self.attempt,
        )
        t0 = time.perf_counter()
        with collect_into(self.profile):
            self.staged.run_next()
        dt = time.perf_counter() - t0
        self.prove_seconds += dt
        task_ctx.emit(
            "stage_done", task_id=self.task.task_id, stage=name,
            seconds=dt, attempt=self.attempt,
        )


_SENTINEL = object()


class PipelinedBackend:
    """Stage-pipelined in-process execution on the backend seam.

    ``workers`` is the total thread count (``"auto"`` sizes from the
    host CPU count, clamped to the stage count); the first
    :data:`WARMUP_TASKS` proofs of a spec's first batch are proved inline
    under profiling to measure the stage split, after which the plan is
    cached per spec and batches stream straight into the queues.

    Retry semantics mirror :class:`~repro.execution.SerialBackend`: a
    failed attempt restarts the whole staged proof from ``encode``
    (never mid-pipeline — a half-run transcript is unusable), and an
    exhausted task raises :class:`~repro.errors.ProofError` so the
    resilience layer can attribute and quarantine.
    """

    def __init__(
        self,
        workers: "int | str | None" = "auto",
        *,
        max_retries: int = 0,
        fault_injector=None,
        lane_width: Optional[int] = None,
    ) -> None:
        auto = workers in (None, "auto")
        if auto:
            resolved = max(2, min(len(PIPELINE_STAGES), os.cpu_count() or 1))
        else:
            resolved = int(workers)  # type: ignore[arg-type]
            if resolved < 1:
                raise ExecutionError(
                    f"workers must be >= 1, got {resolved}"
                )
        if max_retries < 0:
            raise ExecutionError(
                f"max_retries must be >= 0, got {max_retries}"
            )
        if lane_width is not None and lane_width < 1:
            raise ExecutionError(
                f"lane_width must be >= 1, got {lane_width}"
            )
        self.lane_width = lane_width
        self.workers = resolved
        self.parallelism = resolved
        self.name = "pipelined:auto" if auto else f"pipelined:{resolved}"
        self.max_retries = max_retries
        self.fault_injector = fault_injector
        self._provers = _PerSpecCache()
        self._plans = _PerSpecCache()

    def adopt_prover(self, spec: ProverSpec, prover) -> None:
        """Seed the prover cache (same contract as ``LanedBackend``)."""
        self._provers.put(spec, prover)

    # -- proving --------------------------------------------------------------

    def prove_tasks(
        self,
        spec: ProverSpec,
        tasks: Sequence[ProofTask],
        *,
        trace: Optional[JsonlTraceSink] = None,
        parent: Optional[str] = None,
    ) -> Tuple[List[SnarkProof], RuntimeStats]:
        tasks = list(tasks)
        ctx = backend_span(trace, parent)
        prover = self._provers.get_or_build(
            spec, lambda s: default_spec_cache().get_prover(s)
        )
        stats = RuntimeStats(workers=self.workers)
        start = time.perf_counter()
        ctx.emit(
            "run_start", backend=self.name, tasks=len(tasks),
            workers=self.workers,
        )
        proofs: List[Optional[SnarkProof]] = [None] * len(tasks)
        corrupt = getattr(self.fault_injector, "maybe_corrupt", None)

        # Calibration: prove a warmup slice inline (still staged, still
        # emitting stage events) and size the stage groups from its
        # measured fractions.  Cached per spec — later batches skip it.
        warmed = 0
        plan: Optional[List[StageGroup]] = self._plans.get(spec)
        if plan is None and tasks:
            warm_profile = StageProfile()
            run = partial(self._prove_inline, prover, ctx)
            warmed = min(WARMUP_TASKS, len(tasks))
            for index, task in enumerate(tasks[:warmed]):
                proof, seconds, stages, attempt = prove_with_retries(
                    run, task, 1, self, ctx, stats
                )
                warm_profile.merge(stages)
                record(
                    stats, ctx, [task.task_id], seconds, stages, attempt,
                    time.perf_counter() - start,
                )
                if corrupt is not None:
                    proof = corrupt(proof, task.task_id)
                proofs[index] = proof
            # stage_cost_fractions consumes the raw inclusive profile;
            # its commit-residue arithmetic is exactly the exclusive
            # view, so no stage is double-weighted.
            fractions = stage_cost_fractions(warm_profile.as_dict())
            plan = plan_stage_workers(fractions, self.workers)
            self._plans.put(spec, plan)
            ctx.emit(
                "pipeline_plan",
                fractions=fractions,
                groups=[
                    {"stages": list(g.stages), "workers": g.workers}
                    for g in plan
                ],
            )

        pending = len(tasks) - warmed
        if pending > 0:
            assert plan is not None
            error = self._run_pipeline(
                plan, prover, tasks, warmed, proofs, stats, ctx, corrupt,
                start,
            )
            if error is not None:
                raise error

        stats.total_seconds = time.perf_counter() - start
        ctx.emit(
            "run_end", proofs=len(tasks), retries=stats.retries,
            seconds=stats.total_seconds,
        )
        if ctx.sink is not None:
            ctx.sink.flush()
        return proofs, stats  # type: ignore[return-value]

    # -- warmup (inline, serial) ----------------------------------------------

    @staticmethod
    def _prove_inline(prover, ctx, task: ProofTask, attempt: int):
        """One staged proof on this thread, emitting per-stage events.

        The warmup's runner; attempts, retries and billing are the shared
        lifecycle's (:func:`~repro.runtime.lifecycle.prove_with_retries`).
        """
        unit = _Unit([], [task], prover)
        unit.attempt = attempt
        task_ctx = ctx.for_task(task.task_id)
        while not unit.staged.done:
            unit.run_stage(task_ctx)
        return unit.staged.proofs, unit.prove_seconds, unit.profile.as_dict()

    # -- the pipeline proper ---------------------------------------------------

    def _run_pipeline(
        self,
        plan: List[StageGroup],
        prover,
        tasks: List[ProofTask],
        warmed: int,
        proofs: List[Optional[SnarkProof]],
        stats: RuntimeStats,
        ctx,
        corrupt,
        start: float,
    ) -> Optional[ProofError]:
        injector = self.fault_injector
        queues: List["queue.Queue"] = [queue.Queue() for _ in plan]
        lock = threading.Lock()
        done = threading.Event()
        failures: List[ProofError] = []
        pending = [len(tasks) - warmed]

        def finalize(unit: _Unit) -> None:
            unit_proofs = list(unit.staged.proofs)
            if corrupt is not None:
                unit_proofs = [
                    corrupt(proof, task.task_id)
                    for proof, task in zip(unit_proofs, unit.tasks)
                ]
            with lock:
                record(
                    stats, ctx, [task.task_id for task in unit.tasks],
                    unit.prove_seconds, unit.profile.as_dict(), unit.attempt,
                    time.perf_counter() - start,
                )
                for index, proof in zip(unit.indices, unit_proofs):
                    proofs[index] = proof
                pending[0] -= len(unit.tasks)
                finished = pending[0] == 0
            if finished:
                done.set()

        def fail_or_retry(unit: _Unit, exc: Exception) -> None:
            try:
                with lock:
                    backoff = backoff_or_raise(
                        self, ctx, stats, unit.task.task_id, unit.attempt, exc
                    )
            except ProofError as error:
                with lock:
                    failures.append(error)
                done.set()
                return
            time.sleep(backoff)
            # A retry restarts the whole proof: fresh staged machine,
            # fresh profile, back to the head of the pipeline.
            unit.attempt += 1
            unit.restart(prover)
            ctx.for_task(unit.task.task_id).emit(
                "stage_enqueue", task_id=unit.task.task_id,
                stage=PIPELINE_STAGES[0], attempt=unit.attempt,
            )
            queues[0].put(unit)

        def worker(group_index: int) -> None:
            group = plan[group_index]
            q = queues[group_index]
            while True:
                unit = q.get()
                if unit is _SENTINEL:
                    break
                if failures or (done.is_set() and pending[0] <= 0):
                    continue  # draining after abort/completion
                tctx = ctx.for_task(unit.task.task_id)
                try:
                    for name in group.stages:
                        if unit.staged.next_stage != name:
                            # Retried units restart at encode; skip the
                            # stages this group doesn't own this pass.
                            continue
                        if name == PIPELINE_STAGES[0]:
                            fire_faults(injector, unit.tasks, unit.attempt)
                        unit.run_stage(tctx)
                except Exception as exc:
                    fail_or_retry(unit, exc)
                    continue
                if unit.staged.done:
                    finalize(unit)
                else:
                    next_stage = unit.staged.next_stage
                    target = next(
                        gi for gi, g in enumerate(plan)
                        if next_stage in g.stages
                    )
                    tctx.emit(
                        "stage_enqueue", task_id=unit.task.task_id,
                        stage=next_stage, attempt=unit.attempt,
                    )
                    queues[target].put(unit)

        threads: List[threading.Thread] = []
        for gi, group in enumerate(plan):
            for _ in range(group.workers):
                t = threading.Thread(
                    target=worker, args=(gi,), daemon=True,
                    name=f"pipelined-{'+'.join(group.stages)}",
                )
                t.start()
                threads.append(t)

        width = self.lane_width or 1
        for lo in range(warmed, len(tasks), width):
            indices = list(range(lo, min(lo + width, len(tasks))))
            group = [tasks[i] for i in indices]
            unit = _Unit(indices, group, prover)
            ctx.for_task(group[0].task_id).emit(
                "stage_enqueue", task_id=group[0].task_id,
                stage=PIPELINE_STAGES[0], attempt=1,
            )
            with lock:
                stats.queue_depth_samples.append(queues[0].qsize())
            queues[0].put(unit)

        done.wait()
        for gi, group in enumerate(plan):
            for _ in range(group.workers):
                queues[gi].put(_SENTINEL)
        for t in threads:
            t.join()
        return failures[0] if failures else None
