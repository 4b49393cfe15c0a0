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
  a group of one on the same machine (DESIGN decision 24).
  ``lanes:auto``, which is also ``BatchProver.prove_all``'s default,
  sizes groups by working set.
* Every lane's proof is byte-identical to its proof in a group of one,
  :meth:`~repro.core.prover.SnarkProver.prove` — each lane keeps its own
  transcript; only the array arithmetic is shared (see
  :mod:`repro.core.lanes`).  ``serial``
  (:class:`~repro.execution.SerialBackend`) is this backend at width 1.

Stage accounting: one :func:`~repro.runtime.lifecycle.prove_group`
window wraps each group, and :func:`~repro.runtime.lifecycle.record`
amortizes the group's wall time and stage dict uniformly over its lanes.

Chaos hooks (``fault_injector``, ``max_retries``) follow the standard
contract so ``apply_fault_plan`` walks this backend and
``resilient:lanes:8`` composes: the injector fires once per task per
attempt.  A failed fused attempt counts as attempt 1 of every lane, and
each lane then continues alone from attempt 2 through the shared retry
loop — byte-identical by the parity property — so one poisoned lane
cannot sink its group-mates.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Tuple

from ..core.batch import ProofTask
from ..core.proof import SnarkProof
from ..errors import ExecutionError, ProofError
from ..kernels.field_kernels import vectorised
from ..kernels.spec_cache import default_spec_cache
from ..runtime.lifecycle import (
    RETRY_BACKOFF_SECONDS,
    fire_faults,
    prove_group,
    prove_with_retries,
    record,
)
from ..runtime.spec import ProverSpec, _PerSpecCache
from ..runtime.stats import RuntimeStats
from ..runtime.trace import JsonlTraceSink, backend_span

__all__ = [
    "LanedBackend",
    "AUTO_LANE_CAP",
    "AUTO_LANE_BUDGET",
    "resolve_lane_width",
]

#: ``lanes:auto`` sizing (measured in docs/PERFORMANCE.md §9).  A group's
#: stacked witness table holds at most ``AUTO_LANE_BUDGET`` field
#: elements — past that the ``[lanes, n]`` operands leave the cache and
#: wider groups stop beating narrower ones — and no group is wider than
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
    Off the vectorised Mersenne-61 ``fast_path`` a lane group is per-lane
    int lists, which share no dispatch, so ``auto`` is 1 there.
    """
    if width == "auto":
        budget = AUTO_LANE_BUDGET // padded_vars if fast_path else 1
        return max(1, min(AUTO_LANE_CAP, budget, n_tasks))
    width = int(width)
    if width < 1:
        raise ExecutionError(f"lane width must be >= 1, got {width}")
    return width


class LanedBackend:
    """Prove same-circuit tasks in lockstep lanes (S31).

    ``lane_width`` is the group size (``"auto"`` sizes it from the batch
    and the circuit, see :func:`resolve_lane_width`); every group, one
    task included, is one ``prove_lanes`` dispatch.  Execution is
    in-process and serial across groups — parallel substrates compose
    around it (``lanes:8:pool:4`` gives each pool worker a lane-group
    per dispatch) or outside it (``resilient:lanes:8``).
    """

    def __init__(
        self,
        lane_width: "int | str" = "auto",
        *,
        max_retries: int = 0,
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
        self.fault_injector = fault_injector
        self._provers = _PerSpecCache()

    def adopt_prover(self, spec: ProverSpec, prover) -> None:
        """Seed the prover cache with an already-built prover for ``spec``.

        Lets a caller that owns a live prover (e.g. ``BatchProver``)
        route through the backend seam without paying a rebuild.
        """
        self._provers.put(spec, prover)

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
        # Identity cache first (adopted provers win), then the process-wide
        # value-keyed SpecCache, so two backends over the same circuit
        # share one derivation.
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
            group_proofs = self._prove_group(prover, group, ctx, stats, start)
            for task, proof in zip(group, group_proofs):
                if corrupt is not None:
                    proof = corrupt(proof, task.task_id)
                proofs.append(proof)
        stats.total_seconds = time.perf_counter() - start
        ctx.emit(
            "run_end", proofs=len(proofs), retries=stats.retries,
            seconds=stats.total_seconds,
        )
        if ctx.sink is not None:
            ctx.sink.flush()
        return proofs, stats

    def _prove_group(
        self, prover, group: List[ProofTask], ctx, stats: RuntimeStats,
        start: float,
    ) -> List[SnarkProof]:
        """Prove and bill one group; returns its proofs in task order.

        A wider group gets one fused attempt, which is attempt 1 of every
        lane: the fault hook fires for each lane before the dispatch.  If
        it fails, each lane continues alone from attempt 2.  A group of
        one goes straight to the retry loop.
        """
        first_attempt = 1
        if len(group) > 1:
            try:
                fire_faults(self.fault_injector, group, 1)
                proofs, seconds, stages = prove_group(prover, group)
            except Exception as exc:
                if self.max_retries == 0:
                    raise ProofError(
                        f"lane group of {len(group)} task(s) starting at "
                        f"task {group[0].task_id} failed: {exc}"
                    ) from exc
                stats.retries += 1
                ctx.emit(
                    "lane_group_retry",
                    tasks=[task.task_id for task in group],
                    reason=repr(exc),
                )
                time.sleep(RETRY_BACKOFF_SECONDS)
                first_attempt = 2
            else:
                record(
                    stats, ctx, [task.task_id for task in group], seconds,
                    stages, 1, time.perf_counter() - start,
                )
                return proofs

        def run(task: ProofTask, attempt: int):
            return prove_group(prover, [task])

        proofs = []
        for task in group:
            proof, seconds, stages, attempt = prove_with_retries(
                run, task, first_attempt, self, ctx, stats
            )
            record(
                stats, ctx, [task.task_id], seconds, stages, attempt,
                time.perf_counter() - start,
            )
            proofs.append(proof)
        return proofs
