"""The unified proving-backend abstraction (S24).

Every proving entry point in the repository — ``BatchProver``, the MLaaS
service, the zkBridge prover, the streaming ``ProofService``, the CLI —
reduces a workload to the same shape: *a picklable prover recipe plus a
list of independent tasks*.  A :class:`ProvingBackend` is anything that
executes that shape::

    proofs, stats = backend.prove_tasks(spec, tasks)

with proofs in task order and a :class:`~repro.runtime.RuntimeStats`
report.  Three concrete substrates ship here:

* :class:`SerialBackend` — in-process, one cached prover per spec; the
  zero-overhead floor every other backend must beat.  It is
  :class:`~repro.execution.LanedBackend` (``lanes``) at width 1.
* :class:`PoolBackend` — the process-pool
  :class:`~repro.runtime.ParallelProvingRuntime` (chunked dispatch,
  retries, timeouts), one cached runtime per spec.
* :class:`ShardedBackend` — splits a batch across child backends by
  rate-proportional largest-remainder arithmetic, runs the shards
  concurrently, and merges their reports.  Backends compose: a shard's
  child may itself be sharded.

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
import time
from concurrent.futures import ThreadPoolExecutor
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
from ..runtime.stats import RuntimeStats, merge_runtime_stats
from ..runtime.trace import JsonlTraceSink, backend_span
from .laned import LanedBackend


@runtime_checkable
class ProvingBackend(Protocol):
    """Structural interface of an execution substrate for proof batches.

    ``name`` is the registry spelling (``"serial"``, ``"pool:8"``, …);
    ``parallelism`` is the nominal concurrent capacity, used as the
    default sharding weight when backends compose.
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


class ShardedBackend:
    """Composite execution: split one batch across child backends.

    The shard sizes are proportional to each child's ``parallelism`` via
    largest-remainder rounding
    (:func:`~repro.execution.sharding.largest_remainder_shares`), so a
    ``sharded:pool:4,pool:4`` backend splits a batch evenly.  Shards run
    concurrently on threads (each child does its own
    process-level parallelism; the threads only wait), proofs come back
    in input order, and the merged :class:`RuntimeStats` reports the
    combined worker count against the sharded wall-clock envelope.
    """

    def __init__(self, children: Sequence[ProvingBackend]):
        children = list(children)
        if not children:
            raise ExecutionError("ShardedBackend needs at least one child")
        self.children = children
        self.weights = [
            float(max(1, getattr(child, "parallelism", 1)))
            for child in children
        ]
        self.parallelism = int(sum(self.weights))
        self.name = "sharded:" + ",".join(child.name for child in children)

    def shard(self, n_tasks: int) -> List[int]:
        """Per-child task counts for a batch of ``n_tasks``."""
        from .sharding import largest_remainder_shares

        if n_tasks == 0:
            return [0] * len(self.children)
        return largest_remainder_shares(n_tasks, self.weights)

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
        shares = self.shard(len(tasks))
        bounds: List[Tuple[int, int]] = []
        lo = 0
        for share in shares:
            bounds.append((lo, lo + share))
            lo += share
        start = time.perf_counter()
        ctx.emit(
            "shard_start", backend=self.name, tasks=len(tasks), shares=shares,
        )
        proofs: List[Optional[SnarkProof]] = [None] * len(tasks)
        part_stats: List[RuntimeStats] = []
        active = [
            (index, self.children[index], span)
            for index, span in enumerate(bounds)
            if span[1] > span[0]
        ]

        def run_shard(child: ProvingBackend, lo: int, hi: int):
            # Children receive the sink and parent explicitly — ambient
            # context is thread-local and does not cross into the pool.
            return child.prove_tasks(
                spec, tasks[lo:hi], trace=ctx.sink, parent=ctx.span
            )

        if not active:
            outcomes: List[Tuple[List[SnarkProof], RuntimeStats]] = []
        elif len(active) == 1:
            _, child, (s_lo, s_hi) = active[0]
            outcomes = [run_shard(child, s_lo, s_hi)]
        else:
            with ThreadPoolExecutor(max_workers=len(active)) as pool:
                futures = [
                    pool.submit(run_shard, child, s_lo, s_hi)
                    for _, child, (s_lo, s_hi) in active
                ]
                outcomes = [future.result() for future in futures]
        for (_, _, (s_lo, s_hi)), (shard_proofs, shard_stats) in zip(
            active, outcomes
        ):
            proofs[s_lo:s_hi] = shard_proofs
            part_stats.append(shard_stats)
        stats = merge_runtime_stats(
            part_stats, total_seconds=time.perf_counter() - start
        )
        ctx.emit(
            "shard_end", proofs=len(tasks), seconds=stats.total_seconds,
        )
        if ctx.sink is not None:
            ctx.sink.flush()
        return proofs, stats  # type: ignore[return-value]
