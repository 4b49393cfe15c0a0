"""The streaming proof service: admission, batching, caching, dispatch.

:class:`ProofService` is the front door the paper's §1 scenario needs —
"customer inputs that come in like a flowing stream" — in front of the
batch-oriented proving machinery this repository already has.  The life
of a request:

1. :meth:`submit` runs **admission control**: a closed service or a full
   queue rejects immediately with a typed
   :class:`~repro.errors.AdmissionError` (never blocks), and between the
   high and low watermarks BULK traffic is shed while INTERACTIVE
   requests still board (hysteresis, so shedding doesn't flap).
2. The **result cache** is consulted: a finished identical request
   resolves the ticket instantly; an in-flight identical request parks
   the ticket on the leader (single-flight).
3. Otherwise the request joins the pending queue and the
   :class:`~repro.service.batcher.DynamicBatcher` thread forms uniform,
   deadline-aware batches and dispatches them to the backend.
4. The ticket resolves with the result; :class:`ServiceStats` records
   the end-to-end latency, deadline misses, batch shapes, and cache
   behavior, and every lifecycle step can be traced through a (shared,
   thread-safe) :class:`~repro.runtime.JsonlTraceSink`.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, List, Optional, Tuple

from ..errors import (
    AdmissionError,
    ProofError,
    QuarantinedTaskError,
    ServiceError,
)
from ..runtime.trace import JsonlTraceSink, SpanContext, use_span
from .batcher import BatchPolicy, DynamicBatcher
from .cache import ResultCache
from .request import Priority, ProofRequest, Ticket
from .stats import ServiceStats

#: Maps a payload to its (circuit key, witness key) routing identity.
Keyer = Callable[[Any], Tuple[bytes, Optional[bytes]]]

#: Finished-result LRU size.  Single-flight dedup of in-flight requests
#: does not depend on it.
CACHE_CAPACITY = 1024


class ProofService:
    """Accepts a request stream, serves proof results through tickets.

    >>> # sketch; see examples/streaming_service.py for a real run
    >>> # service = ProofService(backend, policy=BatchPolicy(max_batch_size=8))
    >>> # ticket = service.submit(task, circuit_key=key, witness_key=wkey)
    >>> # proof = ticket.result(timeout=30)

    Args:
        backend:        Object with ``prove_batch(circuit_key, requests)``
                        (see :mod:`repro.service.backends`).
        policy:         Batch-formation knobs (:class:`BatchPolicy`).
        max_queue:      Hard queue bound; a submit beyond it raises
                        :class:`AdmissionError` ("queue_full").  BULK
                        admission stops ("bulk_shed") at the high
                        watermark, ``3/4 × max_queue``, and resumes at
                        the low watermark, ``1/2 × max_queue``.
        keyer:          Optional payload → (circuit_key, witness_key)
                        function so callers can omit explicit keys.
        trace:          Optional shared :class:`JsonlTraceSink`.
        fault_injector: Optional chaos hook (a
                        :class:`~repro.resilience.FaultInjector`); its
                        ``on_batch_dispatch(seq)`` runs before each batch
                        reaches the backend, so injected batch faults
                        exercise the service's own failure path.
        start:          Start the batcher thread immediately (tests may
                        pass False and drive :meth:`_dispatch` directly).
    """

    def __init__(
        self,
        backend,
        *,
        policy: Optional[BatchPolicy] = None,
        max_queue: int = 256,
        keyer: Optional[Keyer] = None,
        trace: Optional[JsonlTraceSink] = None,
        fault_injector=None,
        start: bool = True,
    ):
        if max_queue < 1:
            raise ServiceError(f"max_queue must be >= 1, got {max_queue}")
        self.backend = backend
        self.policy = policy or BatchPolicy()
        self.max_queue = max_queue
        self.high_watermark = (3 * max_queue) // 4
        self.low_watermark = max_queue // 2
        self.cache = ResultCache(capacity=CACHE_CAPACITY)
        self.keyer = keyer
        self.trace = trace
        self.fault_injector = fault_injector
        #: Root span of this service instance; every request and batch
        #: span the service emits hangs off it, so one shared sink can
        #: reconstruct any request's lifecycle (see
        #: :func:`repro.execution.request_lineage`).
        self._span = SpanContext(trace, "service")
        self._batch_seq = 0
        #: Wall time of the most recent successful batch; the unit of
        #: :meth:`retry_after_hint`.
        self._last_batch_seconds = 0.0
        self.stats = ServiceStats()
        self._clock = time.monotonic
        self._cond = threading.Condition()
        self._pending: List[ProofRequest] = []
        self._active_batches = 0
        self._closing = False
        self._shedding = False
        #: Supervisor hint: the fleet is adding capacity right now (see
        #: :meth:`note_scaling` and :mod:`repro.service.fleet`).
        self._scaling = False
        self._next_id = 0
        self._batcher = DynamicBatcher(self, self.policy)
        self._span.emit(
            "svc_start", max_queue=max_queue,
            high_watermark=self.high_watermark,
            low_watermark=self.low_watermark,
        )
        if start:
            self._batcher.start()

    # -- submission -----------------------------------------------------------

    def submit(
        self,
        payload: Any,
        *,
        circuit_key: Optional[bytes] = None,
        witness_key: Optional[bytes] = None,
        priority: Priority = Priority.BULK,
        deadline_seconds: Optional[float] = None,
    ) -> Ticket:
        """Admit one request; returns its :class:`Ticket` or raises.

        ``deadline_seconds`` is relative to now; a completion after it
        counts as a deadline miss (the request is still served — the
        deadline shapes scheduling, it is not a drop-dead abort).
        Raises :class:`AdmissionError` when the service is closed, the
        queue is full, or BULK traffic is being shed.
        """
        now = self._clock()
        self.stats.record_submit(now)
        if circuit_key is None:
            if self.keyer is None:
                raise ServiceError(
                    "submit() needs circuit_key= (no keyer configured)"
                )
            circuit_key, witness_key = self.keyer(payload)
        deadline = None if deadline_seconds is None else now + deadline_seconds
        ticket = Ticket(
            self._allocate_id(),
            priority=priority,
            submitted_at=now,
            deadline=deadline,
        )

        with self._cond:
            if self._closing:
                self.stats.record_rejection("service_closed")
                raise AdmissionError("service_closed")
            depth = len(self._pending)
            self.stats.sample_queue_depth(depth)

            # Cache / single-flight first: a duplicate consumes no queue
            # slot, so overload never penalizes repeat queries.
            cache_key = (
                (circuit_key, witness_key) if witness_key is not None else None
            )
            if cache_key is not None:
                outcome, value = self.cache.claim(cache_key, ticket)
                if outcome == "hit":
                    self.stats.record_cache_hit()
                    self.stats.record_completion(
                        self._clock() - now, missed_deadline=False
                    )
                    ticket._resolve(value, source="cache")
                    self._request_ctx(ticket.request_id).emit(
                        "svc_cache_hit", request_id=ticket.request_id
                    )
                    return ticket
                if outcome == "joined":
                    self.stats.record_coalesced()
                    self._request_ctx(ticket.request_id).emit(
                        "svc_coalesce", request_id=ticket.request_id
                    )
                    return ticket
                self.stats.record_cache_miss()

            try:
                self._admit(depth, priority)
            except AdmissionError:
                if cache_key is not None:
                    # Release the single-flight claim this leader took.
                    self.cache.abandon(cache_key)
                raise

            request = ProofRequest(
                request_id=ticket.request_id,
                payload=payload,
                circuit_key=circuit_key,
                witness_key=witness_key,
                priority=priority,
                submitted_at=now,
                deadline=deadline,
                ticket=ticket,
            )
            self._pending.append(request)
            self.stats.record_accept()
            self._cond.notify_all()
        self._request_ctx(ticket.request_id).emit(
            "svc_submit",
            request_id=ticket.request_id,
            priority=priority.name,
            queue_depth=depth + 1,
        )
        return ticket

    def _admit(self, depth: int, priority: Priority) -> None:
        """Watermark admission control; raises :class:`AdmissionError`."""
        if depth >= self.max_queue:
            self._set_degradation_locked("shedding")
            hint = self.retry_after_hint("shedding")
            self.stats.record_rejection("queue_full", retry_after=hint)
            self._span.emit(
                "svc_reject", reason="queue_full", queue_depth=depth,
                retry_after_seconds=hint,
            )
            raise AdmissionError(
                "queue_full", f"depth {depth} >= max_queue {self.max_queue}",
                retry_after_seconds=hint,
            )
        if self._shedding and depth <= self.low_watermark:
            self._shedding = False
        elif not self._shedding and depth >= self.high_watermark:
            self._shedding = True
        state = self._derive_degradation_locked(depth)
        self._set_degradation_locked(state)
        if self._shedding and priority == Priority.BULK:
            hint = self.retry_after_hint(state)
            self.stats.record_rejection("bulk_shed", retry_after=hint)
            self._span.emit(
                "svc_reject", reason="bulk_shed", queue_depth=depth,
                retry_after_seconds=hint,
            )
            raise AdmissionError(
                "bulk_shed",
                f"depth {depth} >= high watermark {self.high_watermark}",
                retry_after_seconds=hint,
            )

    # -- degradation ladder ----------------------------------------------------

    def _derive_degradation_locked(self, depth: int) -> str:
        """Current ladder rung, most degraded condition first."""
        if depth >= self.max_queue:
            return "shedding"
        if self._shedding:
            return "brownout"
        if self._scaling:
            return "scaling"
        return "healthy"

    def _set_degradation_locked(self, state: str) -> None:
        previous = self.stats.record_degradation(state)
        if previous is not None:
            self._span.emit(
                "degradation",
                **{"from": previous, "to": state,
                   "queue_depth": len(self._pending)},
            )

    def note_scaling(self, active: bool) -> None:
        """Supervisor hook: capacity is (or is no longer) being added.

        While active, an otherwise-healthy service reports the
        ``scaling`` rung — callers seeing a rejection get a short
        :attr:`~repro.errors.AdmissionError.retry_after_seconds` because
        the fleet is already growing to absorb them.
        """
        with self._cond:
            self._scaling = bool(active)
            self._set_degradation_locked(
                self._derive_degradation_locked(len(self._pending))
            )

    @property
    def degradation_state(self) -> str:
        """Where the service sits on the ladder right now."""
        return self.stats.degradation_state

    def retry_after_hint(self, state: Optional[str] = None) -> float:
        """Backoff to suggest with a rejection, scaled by ladder rung.

        The unit is the wall time of the last batch, floored at 10 ms:
        the batcher is work-conserving, so under load one batch drains
        per batch wall time.  *scaling* doubles it because capacity is
        coming, *brownout* quadruples, *shedding* — the queue is
        hard-full — pushes callers out eight batches.
        """
        state = state or self.stats.degradation_state
        unit = max(self._last_batch_seconds, 0.01)
        multiplier = {
            "healthy": 1.0, "scaling": 2.0, "brownout": 4.0, "shedding": 8.0,
        }.get(state, 4.0)
        return multiplier * unit

    def _allocate_id(self) -> int:
        with self._cond:
            self._next_id += 1
            return self._next_id - 1

    # -- dispatch (runs on the batcher thread) --------------------------------

    def _dispatch(self, batch: List[ProofRequest]) -> None:
        """Prove one uniform batch and resolve every ticket it covers."""
        circuit_key = batch[0].circuit_key
        self.stats.record_batch(len(batch))
        with self._cond:
            self.stats.sample_queue_depth(len(self._pending))
            self._batch_seq += 1
            seq = self._batch_seq
        bctx = self._span.child("batch", span=f"{self._span.span}/b{seq}")
        bctx.emit(
            "batch_form",
            size=len(batch),
            circuit=circuit_key.hex()[:12],
            request_ids=[r.request_id for r in batch],
        )
        started = self._clock()
        try:
            if self.fault_injector is not None:
                self.fault_injector.on_batch_dispatch(seq)
            # The ambient span hands the sink and this batch's span id to
            # whatever execution backend the proof backend dispatches to,
            # so the backend run appears *under* this batch in the trace.
            with use_span(bctx):
                results = self.backend.prove_batch(circuit_key, batch)
            if len(results) != len(batch):
                raise ProofError(
                    f"backend returned {len(results)} results for a batch "
                    f"of {len(batch)}"
                )
        except Exception as exc:
            self._fail_batch(batch, exc, bctx)
            return
        now = self._clock()
        self._last_batch_seconds = now - started
        for request, result in zip(batch, results):
            if isinstance(result, QuarantinedTaskError):
                # A resilient backend quarantined this one task; the
                # rest of the batch still resolves with proofs.
                followers = (
                    self.cache.abandon(request.cache_key)
                    if request.cache_key is not None
                    else []
                )
                for ticket in [request.ticket] + followers:
                    ticket._fail(result)
                self.stats.record_failure(1 + len(followers))
                bctx.emit(
                    "quarantined",
                    request_id=request.request_id,
                    task_id=result.task_id,
                    tried_on=result.tried_on,
                )
                continue
            followers = (
                self.cache.fulfill(request.cache_key, result)
                if request.cache_key is not None
                else []
            )
            for resolved in [request.ticket] + followers:
                missed = (
                    resolved.deadline is not None and now > resolved.deadline
                )
                self.stats.record_completion(
                    now - resolved.submitted_at, missed_deadline=missed
                )
                if missed:
                    bctx.emit(
                        "deadline_miss",
                        request_id=resolved.request_id,
                        late_seconds=now - resolved.deadline,
                    )
                source = "proved" if resolved is request.ticket else "coalesced"
                resolved._resolve(result, source=source)
        bctx.emit(
            "batch_done", size=len(batch), seconds=now - started
        )

    def _fail_batch(
        self,
        batch: List[ProofRequest],
        exc: Exception,
        bctx: SpanContext,
    ) -> None:
        """Fail a batch's leaders; give single-flight followers one retry.

        A follower coalesced onto a leader whose batch then failed never
        had its *own* attempt — failing it would convert one transient
        backend error into N client-visible errors.  Instead the first
        follower is promoted to a fresh leader request (``attempt=2``)
        and re-enqueued once; remaining followers park on it.  A batch
        that fails on attempt 2 fails everyone — one independent retry,
        not a loop.
        """
        error = ProofError(f"batch of {len(batch)} failed: {exc}")
        error.__cause__ = exc
        count = 0
        for request in batch:
            followers = (
                self.cache.abandon(request.cache_key)
                if request.cache_key is not None
                else []
            )
            request.ticket._fail(error)
            count += 1
            if followers and request.attempt < 2:
                self._requeue_followers(request, followers, bctx)
            else:
                for ticket in followers:
                    ticket._fail(error)
                    count += 1
        self.stats.record_failure(count)
        bctx.emit("batch_failed", size=len(batch), reason=repr(exc))

    def _requeue_followers(
        self,
        request: ProofRequest,
        followers: List[Ticket],
        bctx: SpanContext,
    ) -> None:
        """Promote the first follower to a retry leader; park the rest."""
        leader, rest = followers[0], followers[1:]
        outcome, value = self.cache.claim(request.cache_key, leader)
        if outcome == "hit":
            # Someone fulfilled the key between abandon and re-claim.
            for ticket in followers:
                ticket._resolve(value, source="cache")
            return
        for ticket in rest:
            self.cache.claim(request.cache_key, ticket)
        if outcome == "joined":
            return  # an independent submitter already leads a fresh attempt
        retry = ProofRequest(
            request_id=leader.request_id,
            payload=request.payload,
            circuit_key=request.circuit_key,
            witness_key=request.witness_key,
            priority=leader.priority,
            submitted_at=leader.submitted_at,
            deadline=leader.deadline,
            ticket=leader,
            attempt=request.attempt + 1,
        )
        with self._cond:
            self._pending.append(retry)
            self._cond.notify_all()
        self.stats.record_follower_retry(1 + len(rest))
        bctx.emit(
            "follower_retry",
            request_id=leader.request_id,
            failed_leader=request.request_id,
            parked=len(rest),
            attempt=retry.attempt,
        )

    def _batcher_error(self, batch: List[ProofRequest], exc: Exception) -> None:
        """Last-resort guard for exceptions that escape :meth:`_dispatch`.

        Fails only the in-flight batch's unresolved tickets (and their
        single-flight followers); the batcher thread survives to serve
        the rest of the queue.
        """
        self.stats.record_batcher_error()
        error = ServiceError(f"batch dispatch crashed: {exc}")
        error.__cause__ = exc
        count = 0
        for request in batch:
            followers = (
                self.cache.abandon(request.cache_key)
                if request.cache_key is not None
                else []
            )
            for ticket in [request.ticket] + followers:
                if not ticket.done():
                    ticket._fail(error)
                    count += 1
        self.stats.record_failure(count)
        self._span.emit(
            "batcher_error",
            size=len(batch),
            request_ids=[r.request_id for r in batch],
            reason=repr(exc),
        )

    # -- lifecycle ------------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        """Requests currently waiting for a batch."""
        with self._cond:
            return len(self._pending)

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until the queue is empty and no batch is in flight."""
        deadline = None if timeout is None else self._clock() + timeout
        with self._cond:
            while self._pending or self._active_batches:
                remaining = (
                    None if deadline is None else deadline - self._clock()
                )
                if remaining is not None and remaining <= 0:
                    return False
                self._cond.wait(remaining)
        return True

    def close(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop admission; by default flush the queue before returning.

        With ``drain=False`` still-pending tickets fail with
        :class:`ServiceError` instead of being proved.  With ``drain=True``
        and a ``timeout``, the drain is *bounded*: requests still queued
        when it expires fail with :class:`ServiceError` and a
        ``drain_timeout`` trace event names them — but any batch already
        in flight keeps running and resolves its tickets normally, so
        the timeout fails only work that never started.
        """
        with self._cond:
            if self._closing:
                return
            abandoned: List[ProofRequest] = []
            if not drain:
                abandoned = list(self._pending)
                self._pending.clear()
            self._closing = True
            self._cond.notify_all()
        self._fail_undispatched(
            abandoned, ServiceError("service closed before dispatch")
        )
        drained = True
        if drain and timeout is not None:
            drained = self.drain(timeout)
            if not drained:
                with self._cond:
                    expired = list(self._pending)
                    self._pending.clear()
                    self._cond.notify_all()
                failed = self._fail_undispatched(
                    expired,
                    ServiceError(
                        f"drain timed out after {timeout:.2f}s "
                        "before dispatch"
                    ),
                )
                self._span.emit(
                    "drain_timeout",
                    timeout_seconds=timeout,
                    failed=failed,
                    request_ids=[r.request_id for r in expired],
                )
        if self._batcher.is_alive():
            self._batcher.join(timeout)
        self._span.emit("svc_close", drained=drain and drained)
        if self.trace is not None:
            self.trace.flush()

    def _fail_undispatched(
        self, requests: List[ProofRequest], error: ServiceError
    ) -> int:
        """Fail requests (and their followers) that never reached a batch."""
        count = 0
        for request in requests:
            followers = (
                self.cache.abandon(request.cache_key)
                if request.cache_key is not None
                else []
            )
            for ticket in [request.ticket] + followers:
                if not ticket.done():
                    ticket._fail(error)
                    count += 1
        if count:
            self.stats.record_failure(count)
        return count

    def __enter__(self) -> "ProofService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- helpers --------------------------------------------------------------

    def _request_ctx(self, request_id: int) -> SpanContext:
        """The deterministic span for one request, under the service span."""
        return self._span.child(
            "request", span=f"{self._span.span}/r{request_id}"
        )
