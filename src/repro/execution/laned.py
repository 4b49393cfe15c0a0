"""Lane-vectorized execution backend (S31).

The paper's batch setting hands the prover many instances of *one*
circuit (§2.1 — an MLaaS service proving the same model for many
clients).  At small gate counts the per-proof cost here is dominated by
per-dispatch kernel overhead, not arithmetic; :class:`LanedBackend`
amortizes it by proving ``lane_width`` same-circuit tasks in lockstep
through :meth:`~repro.core.prover.SnarkProver.begin_lanes` — every hot
kernel sees one ``[lanes, n]`` array instead of ``lanes`` separate
vectors.

Grouping and parity:

* One :class:`~repro.runtime.spec.ProverSpec` per ``prove_tasks`` call
  means every task in a batch shares a circuit digest by construction —
  the S24 seam already groups per spec, so lane groups are just
  contiguous ``lane_width``-sized windows of the task list.
* The ragged final group is proved at its own width — numpy has no
  fixed launch geometry, so a short group costs a short dispatch — and
  a group of one by the scalar ``prove``.  ``lanes:auto``, which is also
  ``BatchProver.prove_all``'s default, sizes groups by working set.
* Proofs are byte-identical to :class:`~repro.execution.SerialBackend`
  lane for lane — each lane keeps its own transcript; only the array
  arithmetic is shared (see :mod:`repro.core.lanes`).

Stage accounting: one :func:`~repro.kernels.profile.collect_stages`
window wraps each group, and the group's wall time and stage dict are
amortized uniformly over its lanes, so per-task
``stage_seconds`` still satisfy the S27 invariant
``Σ exclusive(stages) <= prove_seconds`` (division is linear).

Chaos hooks (``fault_injector``, ``max_retries``) follow the standard
contract so ``apply_fault_plan`` walks this backend and
``resilient:lanes:8`` composes: the injector fires once per task
per attempt, and a failed group attempt falls back to per-task serial
proving — byte-identical by the parity property — so one poisoned lane
cannot sink its group-mates.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Tuple

from ..core.batch import ProofTask
from ..core.proof import SnarkProof
from ..errors import ExecutionError, ProofError
from ..kernels.field_kernels import vectorised
from ..kernels.profile import collect_stages
from ..kernels.spec_cache import default_spec_cache
from ..runtime.spec import ProverSpec
from ..runtime.stats import RuntimeStats, TaskRecord
from ..runtime.trace import JsonlTraceSink
from .backend import _PerSpecCache, _span_for

__all__ = [
    "LanedBackend",
    "AUTO_LANE_CAP",
    "AUTO_LANE_BUDGET",
    "lane_selector",
    "resolve_lane_width",
]

#: ``lanes:auto`` sizing (measured in docs/PERFORMANCE.md §9).  A group's
#: stacked witness table holds at most ``AUTO_LANE_BUDGET`` field
#: elements — past that the ``[lanes, n]`` operands leave the cache and
#: lanes stop beating the scalar prover — and no group is wider than
#: ``AUTO_LANE_CAP``: wider still gains a little speed at small circuits
#: but costs ≈ 0.24 MiB of peak memory per lane.
AUTO_LANE_CAP = 16
AUTO_LANE_BUDGET = 1 << 17


def resolve_lane_width(
    width, n_tasks: int, padded_vars: int, fast_path: bool = True
) -> int:
    """Concrete lane count for a batch of ``n_tasks`` over one circuit.

    ``width`` is an integer lane count, taken as given, or ``"auto"``:
    ``min(AUTO_LANE_CAP, AUTO_LANE_BUDGET // padded_vars, n_tasks)``, at
    least 1 — sized by the working set and never wider than the batch.
    Off the vectorised Mersenne-61 ``fast_path`` lanes only run in
    lockstep, so ``auto`` is 1 there; a width-1 group is proved by the
    scalar prover.
    """
    if width == "auto":
        budget = AUTO_LANE_BUDGET // padded_vars if fast_path else 1
        return max(1, min(AUTO_LANE_CAP, budget, n_tasks))
    width = int(width)
    if width < 1:
        raise ExecutionError(f"lane width must be >= 1, got {width}")
    return width


def lane_selector(lanes, workers: int = 1) -> str:
    """Selector string for lane proving, pooled when ``workers > 1``.

    ``lanes`` is an integer width or ``"auto"``; the pooled composition
    needs a concrete chunk size, so ``"auto"`` hardens to
    :data:`AUTO_LANE_CAP` there.  This is the one place the CLI and
    the services translate a ``--lanes`` request into grammar, so they
    all spell the composition identically.
    """
    if workers > 1:
        width = AUTO_LANE_CAP if lanes == "auto" else int(lanes)
        return f"lanes:{width}:pool:{workers}"
    return f"lanes:{lanes}"


class LanedBackend:
    """Prove same-circuit tasks in lockstep lanes (S31).

    ``lane_width`` is the group size (``"auto"`` sizes it from the batch
    and the circuit, see :func:`resolve_lane_width`).  Execution is
    in-process and serial across groups — parallel substrates compose
    around it (``lanes:8:pool:4`` gives each pool worker a lane-group
    per dispatch) or outside it (``resilient:lanes:8``).
    """

    def __init__(
        self,
        lane_width: "int | str" = "auto",
        *,
        max_retries: int = 0,
        retry_backoff_seconds: float = 0.05,
        fault_injector=None,
    ) -> None:
        if lane_width != "auto":
            lane_width = int(lane_width)
            if lane_width < 1:
                raise ExecutionError(
                    f"lane_width must be >= 1 or 'auto', got {lane_width}"
                )
        if max_retries < 0:
            raise ExecutionError(
                f"max_retries must be >= 0, got {max_retries}"
            )
        self.lane_width = lane_width
        self.name = f"lanes:{lane_width}"
        self.parallelism = 1
        self.max_retries = max_retries
        self.retry_backoff_seconds = retry_backoff_seconds
        self.fault_injector = fault_injector
        self._provers = _PerSpecCache()

    def adopt_prover(self, spec: ProverSpec, prover) -> None:
        """Seed the prover cache (same contract as ``SerialBackend``)."""
        self._provers._entries[id(spec)] = (spec, prover)

    def prove_tasks(
        self,
        spec: ProverSpec,
        tasks: Sequence[ProofTask],
        *,
        trace: Optional[JsonlTraceSink] = None,
        parent: Optional[str] = None,
    ) -> Tuple[List[SnarkProof], RuntimeStats]:
        tasks = list(tasks)
        ctx = _span_for(trace, parent)
        prover = self._provers.get_or_build(
            spec, lambda s: default_spec_cache().get_prover(s)
        )
        width = resolve_lane_width(
            self.lane_width, len(tasks), prover.r1cs.padded_vars,
            vectorised(prover.field),
        )
        stats = RuntimeStats(workers=1)
        start = time.perf_counter()
        ctx.emit(
            "run_start", backend=self.name, tasks=len(tasks), workers=1,
            lane_width=width,
        )
        corrupt = getattr(self.fault_injector, "maybe_corrupt", None)
        proofs: List[SnarkProof] = []
        for lo in range(0, len(tasks), width):
            group = tasks[lo : lo + width]
            group_proofs, group_seconds, stages, attempts = (
                self._prove_group(prover, group, ctx, stats)
            )
            # Uniform amortization over the lanes: the group ran as one
            # fused dispatch, so each lane owns an equal slice of the
            # wall time and of every stage bucket.
            per_task = group_seconds / len(group)
            per_stages = {k: v / len(group) for k, v in stages.items()}
            now = time.perf_counter()
            for task, proof, attempt in zip(group, group_proofs, attempts):
                if corrupt is not None:
                    proof = corrupt(proof, task.task_id)
                stats.records.append(
                    TaskRecord(
                        task_id=task.task_id,
                        attempts=attempt,
                        prove_seconds=per_task,
                        latency_seconds=now - start,
                        worker=None,
                        stage_seconds=per_stages or None,
                    )
                )
                task_ctx = ctx.child(
                    "task", span=f"{ctx.span}/t{task.task_id}"
                )
                task_ctx.emit(
                    "complete", task_id=task.task_id, attempt=attempt,
                    seconds=per_task,
                )
                if per_stages:
                    task_ctx.emit(
                        "stage_timing", task_id=task.task_id,
                        seconds=per_task, stages=per_stages,
                    )
                proofs.append(proof)
            stats.busy_seconds += group_seconds
        stats.total_seconds = time.perf_counter() - start
        ctx.emit(
            "run_end", proofs=len(proofs), retries=stats.retries,
            seconds=stats.total_seconds,
        )
        if ctx.sink is not None:
            ctx.sink.flush()
        return proofs, stats

    # -- group proving ---------------------------------------------------------

    def _prove_group(
        self, prover, group: List[ProofTask], ctx, stats
    ) -> Tuple[List[SnarkProof], float, dict, List[int]]:
        """One fused lane dispatch; falls back to per-task on failure.

        A group of one (a 1-task batch, a ragged tail, a circuit too
        large for two lanes) goes to the scalar ``prove``: same bytes,
        without the 1.05-1.4x cost of ``[1, n]`` lane arrays.  Returns
        ``(proofs, wall_seconds, stage_dict, attempts)`` with one
        proof/attempt per task.
        """
        injector = self.fault_injector
        try:
            if injector is not None:
                for task in group:
                    injector(task.task_id, 1)
            t0 = time.perf_counter()
            with collect_stages() as profile:
                if len(group) == 1:
                    (task,) = group
                    lane_proofs = [prover.prove(task.witness, task.public_values)]
                else:
                    lane_proofs = prover.prove_lanes(
                        [task.witness for task in group],
                        [task.public_values for task in group],
                    )
            wall = time.perf_counter() - t0
            return lane_proofs, wall, profile.as_dict(), [1] * len(group)
        except Exception as exc:
            if self.max_retries == 0:
                raise ProofError(
                    f"lane group of {len(group)} task(s) starting at task "
                    f"{group[0].task_id} failed: {exc}"
                ) from exc
            stats.retries += 1
            ctx.emit(
                "lane_group_retry",
                tasks=[task.task_id for task in group],
                reason=repr(exc),
            )
            time.sleep(self.retry_backoff_seconds)
            return self._prove_group_serial(prover, group, ctx, stats)

    def _prove_group_serial(
        self, prover, group: List[ProofTask], ctx, stats
    ) -> Tuple[List[SnarkProof], float, dict, List[int]]:
        """Per-task fallback after a failed fused attempt.

        Byte-identical to the fused path (the lane parity property), so
        a group that hit one injected fault still delivers the same
        proofs — only slower.  Each task gets its own retry budget, the
        same semantics as ``SerialBackend``.
        """
        injector = self.fault_injector
        proofs: List[SnarkProof] = []
        attempts: List[int] = []
        total = 0.0
        merged: dict = {}
        for task in group:
            attempt = 1
            while True:
                try:
                    if injector is not None:
                        injector(task.task_id, attempt)
                    t0 = time.perf_counter()
                    with collect_stages() as profile:
                        proof = prover.prove(task.witness, task.public_values)
                    total += time.perf_counter() - t0
                    break
                except Exception as exc:
                    if attempt > self.max_retries:
                        raise ProofError(
                            f"task {task.task_id} failed after {attempt} "
                            f"attempts: {exc}"
                        ) from exc
                    stats.retries += 1
                    ctx.child(
                        "task", span=f"{ctx.span}/t{task.task_id}"
                    ).emit(
                        "retry", task_id=task.task_id, attempt=attempt,
                        reason=repr(exc),
                    )
                    time.sleep(
                        self.retry_backoff_seconds * (2 ** (attempt - 1))
                    )
                    attempt += 1
            for key, value in profile.as_dict().items():
                merged[key] = merged.get(key, 0.0) + value
            proofs.append(proof)
            attempts.append(attempt + 1)  # the fused attempt counts
        return proofs, total, merged, attempts
