"""JSONL trace-event sink and correlated span identity for proving traces.

One JSON object per line, append-only, cheap enough to leave on in
production: the dispatcher emits lifecycle events (``run_start``,
``submit``, ``complete``, ``retry``, ``timeout``, ``fallback_serial``,
``run_end``) that can be replayed into a timeline, much as the GPU
simulator's utilization traces back Figure 9.

Every layer that writes into a shared sink does so through a
:class:`SpanContext`, which stamps each event with the correlated-trace
schema shared by the whole system:

* ``span``   — the id of the span this event belongs to;
* ``parent`` — the id of the enclosing span (None for a root);
* ``kind``   — what the span represents: ``"service"``, ``"request"``,
  ``"batch"``, ``"backend"``, or ``"task"``.

A service run therefore writes one JSONL file from which the complete
service → batch → backend → task lifecycle of any request can be
reconstructed (see :mod:`repro.execution.trace` for the replay side).
Propagation across layers that do not share a call signature uses the
ambient span (:func:`use_span` / :func:`ambient_span`), a
:class:`contextvars.ContextVar` the dispatching layer sets around the
downstream call.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import IO, Iterator, Optional, Union


class JsonlTraceSink:
    """Writes runtime trace events as JSON lines.

    >>> sink = JsonlTraceSink("/tmp/trace.jsonl")   # doctest: +SKIP
    >>> sink.emit("submit", task_id=3, attempt=1)   # doctest: +SKIP
    >>> sink.close()                                # doctest: +SKIP

    Accepts a path or an already-open text handle (handy for tests and
    in-memory buffers); only handles the sink opened itself are closed by
    :meth:`close`.

    :meth:`emit` is thread-safe: one sink may be shared by the proving
    dispatcher, the service's batcher thread, and any number of
    submitting threads — lines never interleave and the event counter
    never drops an increment.
    """

    def __init__(self, target: Union[str, IO[str]]):
        if isinstance(target, str):
            self._handle: IO[str] = open(target, "a", encoding="utf-8")
            self._owns_handle = True
        else:
            self._handle = target
            self._owns_handle = False
        self._lock = threading.Lock()
        self.events_emitted = 0

    def emit(self, event: str, **fields) -> None:
        """Append one event line; ``t`` is the wall-clock timestamp."""
        record = {"t": time.time(), "event": event}
        record.update(fields)
        line = json.dumps(record, sort_keys=True) + "\n"
        with self._lock:
            self._handle.write(line)
            self.events_emitted += 1

    def flush(self) -> None:
        """Flush the underlying handle (called at run end)."""
        with self._lock:
            self._handle.flush()

    def close(self) -> None:
        """Flush, and close the handle if this sink opened it."""
        self.flush()
        if self._owns_handle:
            self._handle.close()

    def __enter__(self) -> "JsonlTraceSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# -- correlated spans ----------------------------------------------------------

#: Process-global span-id counter.  ``itertools.count`` increments
#: atomically under the GIL, so ids are unique across threads; worker
#: processes never allocate spans (all trace events are emitted by the
#: dispatching process).
_span_counter = itertools.count(1)


def new_span_id(kind: str) -> str:
    """A fresh process-unique span id, prefixed with the span's kind."""
    return f"{kind}-{next(_span_counter):04d}"


class SpanContext:
    """One node of a correlated trace tree, bound to a (possibly absent) sink.

    Stamps every emitted event with ``span``, ``parent``, and ``kind`` so
    one JSONL file reconstructs the full cross-layer lifecycle.  A
    context with ``sink=None`` swallows emits, which lets tracing stay a
    single code path for callers that run untraced.
    """

    __slots__ = ("sink", "kind", "span", "parent")

    def __init__(
        self,
        sink: Optional[JsonlTraceSink],
        kind: str,
        *,
        parent: Optional[str] = None,
        span: Optional[str] = None,
    ):
        self.sink = sink
        self.kind = kind
        self.parent = parent
        self.span = span if span is not None else new_span_id(kind)

    def emit(self, event: str, **fields) -> None:
        """Emit one event stamped with this span's identity (no-op unsinked)."""
        if self.sink is not None:
            self.sink.emit(
                event, span=self.span, parent=self.parent, kind=self.kind,
                **fields,
            )

    def child(self, kind: str, span: Optional[str] = None) -> "SpanContext":
        """A sub-span parented to this one, sharing the sink."""
        return SpanContext(self.sink, kind, parent=self.span, span=span)

    def for_task(self, task_id: int) -> "SpanContext":
        """The ``task`` span of ``task_id`` under this run span.

        The id is deterministic — ``<run span>/t<task id>`` — so every
        attempt of one task lands on one span without bookkeeping.
        """
        return self.child("task", span=f"{self.span}/t{task_id}")


#: The ambient span a dispatching layer sets around a downstream call
#: whose signature it does not control (e.g. the proof service around
#: ``backend.prove_batch``).  Context-local, so concurrent shard threads
#: each see their own parent.
_AMBIENT: ContextVar[Optional[SpanContext]] = ContextVar(
    "repro_ambient_span", default=None
)


def ambient_span() -> Optional[SpanContext]:
    """The innermost ambient :class:`SpanContext`, or None."""
    return _AMBIENT.get()


@contextmanager
def use_span(ctx: SpanContext) -> Iterator[SpanContext]:
    """Make ``ctx`` the ambient span for the duration of the block."""
    token = _AMBIENT.set(ctx)
    try:
        yield ctx
    finally:
        _AMBIENT.reset(token)


def backend_span(
    trace: Optional[JsonlTraceSink], parent: Optional[str]
) -> SpanContext:
    """The backend span for one run, falling back to the ambient span.

    Explicit arguments win; when the caller passed neither, the ambient
    span set by an enclosing layer (e.g. the proof service around a
    batch dispatch) supplies the sink and the parent id.
    """
    ambient = ambient_span()
    if ambient is not None:
        if trace is None:
            trace = ambient.sink
        if parent is None:
            parent = ambient.span
    return SpanContext(trace, "backend", parent=parent)
