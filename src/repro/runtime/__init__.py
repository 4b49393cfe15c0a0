"""Parallel proving runtime (system S22 in DESIGN.md).

The functional counterpart of the paper's throughput story for multicore
CPUs: where :mod:`repro.pipeline` *simulates* a pipelined GPU filling
every SM, this package actually fills every core of the host with real
proof generation.  A picklable :class:`ProverSpec` rebuilds the prover
once per worker process, :class:`ParallelProvingRuntime` shards the task
stream across the pool with bounded in-flight backpressure, retries, and
per-task timeouts, and :class:`RuntimeStats` reports the service-level
numbers (p50/p95/p99 latency, throughput, utilization) an operator of
the paper's §2.1 proving business would watch.
"""

__apidoc__ = """
Timeout semantics differ by mode, deliberately: in pooled mode an
attempt that outlives its budget is killed and retried (the late result,
if any, is discarded); in serial mode (``workers=1`` or the pool-death
fallback) a running prove cannot be preempted, so an overrun is
*recorded, not preempted* — the proof still lands, ``stats.timeouts``
counts the violation, and a run-level ``timeout`` trace event is emitted
with the same ``{"event": "timeout", "tasks": [...], "seconds": ...}``
shape as the pooled path, so trace consumers need one parser for either
mode.
"""

from .pool import ParallelProvingRuntime
from .spec import ProverSpec
from .stats import RuntimeStats, TaskRecord, merge_runtime_stats
from .trace import (
    JsonlTraceSink,
    SpanContext,
    ambient_span,
    new_span_id,
    use_span,
)

__all__ = [
    "ParallelProvingRuntime",
    "ProverSpec",
    "RuntimeStats",
    "SpanContext",
    "TaskRecord",
    "ambient_span",
    "merge_runtime_stats",
    "new_span_id",
    "use_span",
    "JsonlTraceSink",
]
