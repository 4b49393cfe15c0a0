"""Process-pool batch proving engine (S22).

:class:`ParallelProvingRuntime` shards independent :class:`ProofTask`s
across N worker processes.  Design points, each motivated by the paper's
service setting (§1, §2.1 — a proving farm billing per proof):

* **Per-worker prover construction** — the picklable
  :class:`~repro.runtime.spec.ProverSpec` crosses the pipe once per
  worker; the R1CS/PCS setup (expander generation, digesting) is paid
  once per worker, not once per task.
* **Chunked dispatch with a bounded in-flight queue** — tasks travel in
  chunks of ``chunk_size`` to amortize IPC, and at most
  :data:`IN_FLIGHT_CHUNKS_PER_WORKER` chunks per worker are outstanding
  at any moment, giving backpressure instead of unbounded pickling of a
  million-task stream.
* **Robustness** — a failed attempt (worker exception or per-task
  timeout) is retried with backoff, failed multi-task chunks are split
  into singleton resubmissions so one poisoned task cannot sink its
  chunk-mates, and a dead pool degrades gracefully to in-process serial
  execution.  Retries exhausted surface as a clean
  :class:`~repro.errors.ProofError`.
* **Observability** — per-task :class:`TaskRecord`s, queue-depth and
  utilization counters in :class:`RuntimeStats`, and an optional JSONL
  trace-event sink.

One task lifecycle: workers prove through
:func:`~repro.runtime.lifecycle.prove_group`, the inline path runs the
shared retry loop, and the dispatcher bills results with
:func:`~repro.runtime.lifecycle.record` — the same code every in-process
backend uses.  The reference oracle is
:meth:`~repro.core.prover.SnarkProver.prove`; the inline path is the
``serial`` backend's loop (``lanes`` at width 1), so pooled proofs are
byte-identical to it.

Fault injection for tests and chaos drills: pass ``fault_injector``, a
*module-level* (picklable) callable ``(task_id, attempt) -> None`` that
raises to simulate a worker failure.  It runs in the worker before
proving, so the retry path is exercised end to end.
"""

from __future__ import annotations

import os
import time
from collections import deque
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.batch import ProofTask
from ..core.proof import SnarkProof
from ..core.prover import SnarkProver
from ..errors import ProofError
from ..kernels.spec_cache import default_spec_cache
from .lifecycle import (
    backoff_or_raise,
    fire_faults,
    prove_group,
    prove_with_retries,
    record,
)
from .spec import ProverSpec
from .stats import RuntimeStats
from .trace import JsonlTraceSink, SpanContext, backend_span

FaultInjector = Callable[[int, int], None]

#: Outstanding chunks per worker: one proving, one queued behind it, so
#: a worker never idles waiting for the dispatcher to pickle its next
#: chunk, and the queue never holds more than two chunks per worker.
IN_FLIGHT_CHUNKS_PER_WORKER = 2

#: Dispatcher sleep when a poll pass found nothing to submit or collect.
POLL_INTERVAL_SECONDS = 0.002

#: Process-global worker state, populated once by :func:`_init_worker`.
_WORKER_STATE: dict = {}


def _init_worker(
    spec: ProverSpec,
    fault_injector: Optional[FaultInjector],
    lane_width: Optional[int] = None,
) -> None:
    """Pool initializer: resolve this worker's prover through the spec cache.

    The cache is process-global, so a worker that survives across runs of
    the same circuit (one pool, many batches) derives setup exactly once.
    ``lane_width`` switches the worker body to fused lane proving (S31).
    """
    _WORKER_STATE["prover"] = default_spec_cache().get_prover(spec)
    _WORKER_STATE["fault"] = fault_injector
    _WORKER_STATE["lane_width"] = lane_width


def _prove_chunk(
    chunk: Sequence[Tuple[int, ProofTask, int]]
) -> List[Tuple[List[int], List[SnarkProof], float, int, Dict[str, float]]]:
    """Worker body: prove every (index, task, attempt) in the chunk.

    Returns ``(indices, proofs, prove_seconds, worker_pid,
    stage_seconds)`` per proved group, for the dispatcher to bill with
    :func:`~repro.runtime.lifecycle.record`.  Any exception (including an
    injected fault) propagates to the dispatcher, which retries; a chunk
    fails as a unit and is split on retry.

    Without ``lane_width`` every task is its own group.  With it the
    whole chunk is one :func:`~repro.runtime.lifecycle.prove_group` —
    one fused lane dispatch, byte-identical to the per-task path — and
    the injector fires for every task of it.  Retried singletons are
    groups of one.
    """
    prover: SnarkProver = _WORKER_STATE["prover"]
    fault: Optional[FaultInjector] = _WORKER_STATE.get("fault")
    if _WORKER_STATE.get("lane_width") is not None:
        groups = [list(chunk)]
    else:
        groups = [[item] for item in chunk]
    out = []
    for group in groups:
        indices, group_tasks, attempts = zip(*group)
        # Only singletons are resubmitted, so a group shares its attempt.
        fire_faults(fault, group_tasks, attempts[0])
        proofs, seconds, stages = prove_group(prover, group_tasks)
        out.append((list(indices), proofs, seconds, os.getpid(), stages))
    return out


class _WorkItem:
    """A pending chunk: input indices plus per-item attempt counts."""

    __slots__ = ("items", "not_before")

    def __init__(self, items: List[Tuple[int, int]], not_before: float = 0.0):
        self.items = items  # [(task_index, attempt), ...]
        self.not_before = not_before

    def __len__(self) -> int:
        return len(self.items)


class ParallelProvingRuntime:
    """Shards a batch of proof tasks across a pool of worker processes.

    >>> # sketch; see examples/parallel_proving.py for a real run
    >>> # runtime = ParallelProvingRuntime(ProverSpec.from_prover(prover), workers=4)
    >>> # proofs, stats = runtime.prove_tasks(tasks)

    Args:
        spec:                  Picklable prover recipe (built per worker).
        workers:               Pool size; ``None`` → ``os.cpu_count()``;
                               ``1`` proves inline with no pool at all.
        chunk_size:            Tasks per dispatched chunk (IPC amortization).
        max_retries:           Extra attempts per task after the first
                               (so a task runs at most ``1 + max_retries``
                               times before :class:`ProofError`); the
                               backoff between attempts is
                               :data:`~repro.runtime.lifecycle.RETRY_BACKOFF_SECONDS`,
                               doubling per attempt.
        task_timeout_seconds:  Per-task attempt budget.  In pooled mode an
                               attempt that outlives ``timeout × chunk_len``
                               is abandoned and resubmitted (the stale
                               worker result, if it ever lands, is
                               discarded).  In serial mode a mid-call
                               preemption is impossible, so overruns are
                               only *recorded* in ``stats.timeouts``.
        fault_injector:        Optional picklable ``(task_id, attempt)``
                               callable that raises to simulate failures.
        lane_width:            When set, each multi-task chunk is proved
                               as one fused lane dispatch (S31);
                               ``chunk_size`` defaults to the lane width
                               so a chunk *is* a lane group.  Proofs stay
                               byte-identical to the per-task path; the
                               ``workers=1``/fallback serial path and
                               retried singletons prove per task.
    """

    def __init__(
        self,
        spec: ProverSpec,
        workers: Optional[int] = None,
        *,
        chunk_size: int = 1,
        max_retries: int = 2,
        task_timeout_seconds: Optional[float] = None,
        fault_injector: Optional[FaultInjector] = None,
        lane_width: Optional[int] = None,
    ):
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ProofError(f"workers must be >= 1, got {workers}")
        if chunk_size < 1:
            raise ProofError(f"chunk_size must be >= 1, got {chunk_size}")
        if max_retries < 0:
            raise ProofError(f"max_retries must be >= 0, got {max_retries}")
        if lane_width is not None:
            if lane_width < 1:
                raise ProofError(
                    f"lane_width must be >= 1, got {lane_width}"
                )
            if chunk_size == 1:
                # A lane group rides in one chunk; size the chunks to the
                # lanes unless the caller tuned chunking explicitly.
                chunk_size = lane_width
        self.lane_width = lane_width
        self.spec = spec
        self.workers = workers
        self.chunk_size = chunk_size
        self.max_retries = max_retries
        self.task_timeout_seconds = task_timeout_seconds
        self.fault_injector = fault_injector
        #: Lazily built prover for the serial path, reused across runs so
        #: a long-lived ``workers=1`` runtime pays the R1CS/PCS setup once.
        self._serial_prover: Optional[SnarkProver] = None
        #: Span context of the run in progress (one run at a time).
        self._ctx = SpanContext(None, "backend")

    # -- public API -----------------------------------------------------------

    def prove_tasks(
        self,
        tasks: Sequence[ProofTask],
        *,
        trace: Optional[JsonlTraceSink] = None,
        parent: Optional[str] = None,
    ) -> Tuple[List[SnarkProof], RuntimeStats]:
        """Prove every task; proofs are returned in input order.

        Raises :class:`ProofError` once any task exhausts its retry
        budget (``1 + max_retries`` attempts, counting timeouts).

        ``trace`` is this run's sink; ``parent`` is the enclosing span id
        for correlated telemetry.  Both default to the ambient span (see
        :func:`~repro.runtime.trace.use_span`) when one is set, so a
        service dispatching through intermediate layers still produces
        one connected span tree.
        """
        tasks = list(tasks)
        self._ctx = backend_span(trace, parent)
        stats = RuntimeStats(workers=self.workers)
        start = time.perf_counter()
        self._ctx.emit(
            "run_start",
            backend=f"pool:{self.workers}",
            tasks=len(tasks),
            workers=self.workers,
        )
        try:
            proofs = None
            if self.workers > 1 and len(tasks) > 1:
                proofs = self._prove_pooled(tasks, stats)
            if proofs is None:
                stats.workers = 1
                proofs = self._prove_inline(tasks, stats, start)
        finally:
            stats.total_seconds = time.perf_counter() - start
            self._ctx.emit(
                "run_end",
                proofs=stats.proofs_generated,
                retries=stats.retries,
                seconds=stats.total_seconds,
            )
            if self._ctx.sink is not None:
                self._ctx.sink.flush()
        return proofs, stats

    # -- inline path ----------------------------------------------------------

    def _prove_inline(
        self, tasks: Sequence[ProofTask], stats: RuntimeStats, start: float
    ) -> List[SnarkProof]:
        """In-process execution: ``workers=1``, one task, or no usable pool.

        Runs the shared retry loop, so a flaky dependency injected under
        test behaves identically at either worker count.  A running prove
        cannot be preempted here, so a timeout overrun is only recorded.
        """
        if self._serial_prover is None:
            self._serial_prover = default_spec_cache().get_prover(self.spec)
        prover = self._serial_prover

        def run(task: ProofTask, attempt: int):
            return prove_group(prover, [task])

        proofs: List[SnarkProof] = []
        for task in tasks:
            proof, seconds, stages, attempt = prove_with_retries(
                run, task, 1, self, self._ctx, stats
            )
            if (
                self.task_timeout_seconds is not None
                and seconds > self.task_timeout_seconds
            ):
                # Same run-level event shape as the pooled path, so trace
                # consumers need one "timeout" parser for either mode.
                stats.timeouts += 1
                self._ctx.emit(
                    "timeout", tasks=[task.task_id], seconds=seconds
                )
            record(
                stats, self._ctx, [task.task_id], seconds, stages, attempt,
                time.perf_counter() - start,
            )
            proofs.append(proof)
        return proofs

    # -- pooled path ----------------------------------------------------------

    def _prove_pooled(
        self,
        tasks: Sequence[ProofTask],
        stats: RuntimeStats,
    ) -> Optional[List[SnarkProof]]:
        """The pool run; None when no pool could finish it (prove inline)."""
        import multiprocessing

        try:
            ctx = multiprocessing.get_context()
            pool = ctx.Pool(
                processes=self.workers,
                initializer=_init_worker,
                initargs=(self.spec, self.fault_injector, self.lane_width),
            )
        except (OSError, ValueError) as exc:
            # Pool could not even start (fd exhaustion, sandboxed env…):
            # degrade to serial rather than failing the batch.
            stats.fell_back_to_serial = True
            self._ctx.emit("fallback_serial", reason=repr(exc))
            return None

        try:
            return self._dispatch(pool, tasks, stats)
        except ProofError:
            raise
        except (OSError, EOFError, BrokenPipeError) as exc:
            # The pool died underneath us mid-run.  Proofs completed before
            # the crash lived in the dispatcher's local state, so restart
            # the batch inline with fresh records — the run still completes
            # and the stats describe the authoritative (serial) attempts.
            stats.fell_back_to_serial = True
            stats.records.clear()
            stats.busy_seconds = 0.0
            self._ctx.emit("fallback_serial", reason=repr(exc))
            return None
        finally:
            pool.terminate()
            pool.join()

    def _dispatch(
        self, pool, tasks: Sequence[ProofTask], stats: RuntimeStats
    ) -> List[SnarkProof]:
        """The bounded-in-flight dispatch loop."""
        ready: deque = deque(
            _WorkItem(
                [(i, 1) for i in range(lo, min(lo + self.chunk_size, len(tasks)))]
            )
            for lo in range(0, len(tasks), self.chunk_size)
        )
        delayed: List[_WorkItem] = []  # backoff parking lot
        in_flight: Dict[int, Tuple[object, float, _WorkItem, Optional[float]]] = {}
        submitted_at: Dict[int, float] = {}  # first submission per index
        results: Dict[int, SnarkProof] = {}
        next_handle = 0
        max_in_flight = IN_FLIGHT_CHUNKS_PER_WORKER * self.workers

        def fail_item(item: _WorkItem, reason: str) -> None:
            """Retry a failed chunk; multi-task chunks split into singles."""
            now_ts = time.perf_counter()
            for index, attempt in item.items:
                if index in results:
                    continue
                backoff = backoff_or_raise(
                    self, self._ctx, stats, tasks[index].task_id, attempt,
                    reason,
                )
                delayed.append(
                    _WorkItem(
                        [(index, attempt + 1)], not_before=now_ts + backoff
                    )
                )

        while len(results) < len(tasks):
            now = time.perf_counter()
            # Backoff expiry: move parked retries back into the ready queue.
            still_delayed = [w for w in delayed if w.not_before > now]
            for w in delayed:
                if w.not_before <= now:
                    ready.append(w)
            delayed[:] = still_delayed

            # Submit while the in-flight window has room.
            progressed = False
            while ready and len(in_flight) < max_in_flight:
                item = ready.popleft()
                payload = [
                    (index, tasks[index], attempt)
                    for index, attempt in item.items
                ]
                handle = next_handle
                next_handle += 1
                for index, _ in item.items:
                    submitted_at.setdefault(index, now)
                deadline = (
                    now + self.task_timeout_seconds * len(item)
                    if self.task_timeout_seconds is not None
                    else None
                )
                async_result = pool.apply_async(_prove_chunk, (payload,))
                in_flight[handle] = (async_result, now, item, deadline)
                stats.queue_depth_samples.append(len(ready) + len(delayed))
                self._ctx.emit(
                    "submit",
                    tasks=[tasks[i].task_id for i, _ in item.items],
                    attempts=[a for _, a in item.items],
                )
                progressed = True

            # Poll outstanding chunks.
            for handle in list(in_flight):
                async_result, sub_time, item, deadline = in_flight[handle]
                if async_result.ready():
                    del in_flight[handle]
                    progressed = True
                    try:
                        chunk_out = async_result.get()
                    except Exception as exc:  # worker raised (or died)
                        if isinstance(exc, (OSError, EOFError)):
                            raise  # pool infrastructure failure
                        fail_item(item, repr(exc))
                        continue
                    attempts = dict(item.items)
                    for indices, proofs, seconds, pid, stages in chunk_out:
                        if any(index in results for index in indices):
                            # Stale duplicate of a timed-out chunk: every
                            # unfinished index has its own resubmission.
                            continue
                        # A group's tasks share their first submission
                        # and attempt (only singletons are resubmitted).
                        record(
                            stats, self._ctx,
                            [tasks[index].task_id for index in indices],
                            seconds, stages, attempts[indices[0]],
                            time.perf_counter() - submitted_at[indices[0]],
                            worker=pid,
                        )
                        results.update(zip(indices, proofs))
                elif deadline is not None and now > deadline:
                    # Abandon the attempt; the occupied worker will finish
                    # eventually and its late result is discarded above.
                    del in_flight[handle]
                    progressed = True
                    stats.timeouts += 1
                    self._ctx.emit(
                        "timeout",
                        tasks=[tasks[i].task_id for i, _ in item.items],
                        seconds=now - sub_time,
                    )
                    fail_item(item, "per-task timeout exceeded")

            if not progressed:
                time.sleep(POLL_INTERVAL_SECONDS)

        return [results[i] for i in range(len(tasks))]
