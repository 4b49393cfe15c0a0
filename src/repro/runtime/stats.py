"""Observability for the parallel proving runtime (S22).

The paper frames batch proving as a *service*: "service providers need to
continuously process customer inputs that come in like a flowing stream"
(§1).  A service needs more than a proofs/second scalar — operators watch
tail latency, queue depth, and worker utilization.  :class:`RuntimeStats`
collects a :class:`TaskRecord` per proof and derives those aggregates,
mirroring what :mod:`repro.pipeline`'s simulator reports for the GPU half
(throughput, latency, utilization traces) for the *functional* half.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional

from ..stats import percentile

__all__ = ["RuntimeStats", "TaskRecord", "merge_runtime_stats"]


@dataclass(frozen=True)
class TaskRecord:
    """Timing record for one successfully proved task."""

    task_id: int
    #: Total attempts consumed (1 = succeeded on the first try).
    attempts: int
    #: In-worker proving time of the winning attempt.
    prove_seconds: float
    #: Submission → completion as seen by the dispatcher (includes queueing,
    #: pickling, and any failed attempts).
    latency_seconds: float
    #: OS pid of the worker that produced the proof (None = proved inline).
    worker: Optional[int] = None
    #: Per-stage proving seconds of the winning attempt (commit ⊃ encode +
    #: merkle, sumcheck1, sumcheck2, open), when stage profiling captured
    #: them; None for records from pre-profiling producers.
    stage_seconds: Optional[Dict[str, float]] = None


@dataclass
class RuntimeStats:
    """Aggregate report of one :meth:`ParallelProvingRuntime.prove_tasks` run."""

    workers: int = 1
    records: List[TaskRecord] = dc_field(default_factory=list)
    #: Wall-clock time of the whole run.
    total_seconds: float = 0.0
    #: Resubmissions after a failed attempt (exceptions and timeouts).
    retries: int = 0
    #: Attempts abandoned because they outlived the per-task timeout.
    timeouts: int = 0
    #: Dispatcher-side samples of how many tasks were waiting for a worker.
    queue_depth_samples: List[int] = dc_field(default_factory=list)
    #: Summed in-worker proving seconds across all *successful* attempts.
    busy_seconds: float = 0.0
    #: True when the process pool could not be used and the run completed
    #: on the dispatching process instead.
    fell_back_to_serial: bool = False

    # -- aggregates -----------------------------------------------------------

    @property
    def proofs_generated(self) -> int:
        return len(self.records)

    @property
    def throughput_per_second(self) -> float:
        if self.total_seconds <= 0:
            return 0.0
        return self.proofs_generated / self.total_seconds

    @property
    def latencies(self) -> List[float]:
        """Per-task submission→completion latencies, in record order."""
        return [r.latency_seconds for r in self.records]

    def latency_percentile(self, q: float) -> float:
        """The q-th percentile of task latency (seconds)."""
        return percentile(self.latencies, q)

    @property
    def p50_latency_seconds(self) -> float:
        return self.latency_percentile(50)

    @property
    def p95_latency_seconds(self) -> float:
        return self.latency_percentile(95)

    @property
    def p99_latency_seconds(self) -> float:
        return self.latency_percentile(99)

    @property
    def worker_utilization(self) -> float:
        """Fraction of worker·wall capacity spent proving (≤ 1)."""
        if self.total_seconds <= 0 or self.workers <= 0:
            return 0.0
        return min(1.0, self.busy_seconds / (self.workers * self.total_seconds))

    @property
    def max_queue_depth(self) -> int:
        return max(self.queue_depth_samples, default=0)

    @property
    def mean_queue_depth(self) -> float:
        if not self.queue_depth_samples:
            return 0.0
        return sum(self.queue_depth_samples) / len(self.queue_depth_samples)

    @property
    def total_attempts(self) -> int:
        return sum(r.attempts for r in self.records)

    def stage_totals(self, *, exclusive: bool = True) -> Dict[str, float]:
        """Summed per-stage proving seconds across every task record.

        Stage order follows :data:`repro.kernels.profile.STAGE_NAMES`
        with unknown stages appended; empty when no record carried a
        stage profile.  By default this is the *exclusive* view —
        ``commit`` is its residue after subtracting its children
        ``encode``/``merkle``, so the values partition proving time and
        are safe to sum (an earlier version returned the raw nested dict
        here, which made every summing consumer double-count the commit
        phase).  Pass ``exclusive=False`` for the raw inclusive
        (as-measured) dict in which ``commit ⊇ encode + merkle``.
        """
        from ..kernels.profile import StageProfile

        totals = StageProfile()
        for record in self.records:
            if record.stage_seconds:
                totals.merge(record.stage_seconds)
        return totals.exclusive() if exclusive else totals.inclusive()

    # -- presentation ---------------------------------------------------------

    def report(self) -> str:
        """A human-readable multi-line summary (the operator's dashboard)."""
        lines = [
            f"proofs          : {self.proofs_generated}",
            f"workers         : {self.workers}"
            + (" (serial fallback)" if self.fell_back_to_serial else ""),
            f"wall time       : {self.total_seconds:.3f} s",
            f"throughput      : {self.throughput_per_second:.2f} proofs/s",
            f"latency p50     : {self.p50_latency_seconds * 1e3:.1f} ms",
            f"latency p95     : {self.p95_latency_seconds * 1e3:.1f} ms",
            f"latency p99     : {self.p99_latency_seconds * 1e3:.1f} ms",
            f"utilization     : {self.worker_utilization * 100:.0f}%",
            f"retries         : {self.retries} ({self.timeouts} timeouts)",
            f"queue depth     : max {self.max_queue_depth}, "
            f"mean {self.mean_queue_depth:.1f}",
        ]
        # Exclusive view: disjoint shares, so the displayed split sums to
        # at most proving wall time (commit is its residue, not the
        # container that also holds encode + merkle).
        stages = self.stage_totals(exclusive=True)
        if stages:
            split = "  ".join(
                f"{name} {seconds * 1e3:.1f}ms" for name, seconds in stages.items()
            )
            lines.append(f"stage split     : {split}")
        return "\n".join(lines)


def merge_runtime_stats(
    parts: List["RuntimeStats"], *, total_seconds: Optional[float] = None
) -> RuntimeStats:
    """Combine per-shard reports into one aggregate run report.

    Used by :class:`~repro.cluster.ClusterBackend` when a batch is
    split across members, and by
    :class:`~repro.resilience.ResilientBackend` over its child calls:
    records, retries, and busy time are summed; ``workers`` is the
    combined worker count of every shard; the
    wall time is the caller-measured envelope (shards run concurrently,
    so summing shard wall times would overcount) and defaults to the
    slowest shard when not given.
    """
    merged = RuntimeStats(workers=0)
    for part in parts:
        merged.workers += part.workers
        merged.records.extend(part.records)
        merged.retries += part.retries
        merged.timeouts += part.timeouts
        merged.queue_depth_samples.extend(part.queue_depth_samples)
        merged.busy_seconds += part.busy_seconds
        merged.fell_back_to_serial = (
            merged.fell_back_to_serial or part.fell_back_to_serial
        )
    merged.workers = max(1, merged.workers)
    if total_seconds is not None:
        merged.total_seconds = total_seconds
    else:
        merged.total_seconds = max(
            (part.total_seconds for part in parts), default=0.0
        )
    return merged
