"""Replay side of the correlated trace schema: one JSONL file in, span
trees out.

The emitting side (:mod:`repro.runtime.trace`) stamps every event with
``span`` / ``parent`` / ``kind``; this module reconstructs lifecycles
from those stamps.  :func:`request_lineage` answers the operator's
question — "what happened to request N?" — by walking one file from the
request's submission through the batch it rode, the backend run (or
runs, under a cluster) that proved it, down to the per-task
span, without any other data source.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from typing import Dict, Iterable, List, Optional, Union

from ..errors import ExecutionError


def load_trace(source: Union[str, Iterable[str]]) -> List[dict]:
    """Parse trace events from a JSONL path (or an iterable of lines)."""
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    else:
        lines = list(source)
    return [json.loads(line) for line in lines if line.strip()]


@dataclass
class SpanNode:
    """One reconstructed span: its identity, events, and children."""

    span: str
    kind: str
    parent: Optional[str]
    events: List[dict] = dc_field(default_factory=list)
    children: List[str] = dc_field(default_factory=list)


def span_index(events: Iterable[dict]) -> Dict[str, SpanNode]:
    """``{span id: SpanNode}`` over every span-stamped event.

    Events without a ``span`` field (pre-schema traces, foreign lines)
    are ignored.  Child lists preserve first-appearance order.
    """
    nodes: Dict[str, SpanNode] = {}
    for event in events:
        span = event.get("span")
        if span is None:
            continue
        node = nodes.get(span)
        if node is None:
            node = nodes[span] = SpanNode(
                span=span,
                kind=event.get("kind", "unknown"),
                parent=event.get("parent"),
            )
        node.events.append(event)
    for node in nodes.values():
        if node.parent is not None and node.parent in nodes:
            parent = nodes[node.parent]
            if node.span not in parent.children:
                parent.children.append(node.span)
    return nodes


def _descendants_of_kind(
    nodes: Dict[str, SpanNode], root: str, kind: str
) -> List[str]:
    """Spans of ``kind`` in the subtree under ``root`` (preorder)."""
    found: List[str] = []
    stack = [root]
    while stack:
        span = stack.pop()
        node = nodes[span]
        if node.kind == kind and span != root:
            found.append(span)
        stack.extend(reversed(node.children))
    return found


@dataclass
class RequestLineage:
    """The full span chain one request travelled, service → … → task."""

    request_id: int
    service: str
    request: str
    batch: Optional[str]
    backends: List[str]
    tasks: List[str]
    #: How the request resolved: "proved", "cache", or "coalesced" —
    #: inferred from which lifecycle events its spans carry.
    resolution: str


def request_lineage(
    events: Iterable[dict], request_id: int
) -> RequestLineage:
    """Reconstruct one request's lifecycle from a shared trace file.

    Raises :class:`~repro.errors.ExecutionError` when the request never
    appears in the trace.  Cache hits and coalesced requests legitimately
    have no batch/backend/task spans; a proved request has all three.
    """
    events = list(events)
    nodes = span_index(events)

    request_span: Optional[str] = None
    resolution = "unknown"
    for event in events:
        if (
            event.get("kind") == "request"
            and event.get("request_id") == request_id
        ):
            request_span = event["span"]
            if event.get("event") == "svc_cache_hit":
                resolution = "cache"
            elif event.get("event") == "svc_coalesce":
                resolution = "coalesced"
            elif event.get("event") == "svc_submit":
                resolution = "proved"
            break
    if request_span is None:
        raise ExecutionError(
            f"request {request_id} does not appear in the trace"
        )
    service_span = nodes[request_span].parent
    if service_span is None:
        raise ExecutionError(
            f"request {request_id} has no parent service span"
        )

    batch_span: Optional[str] = None
    for event in events:
        if (
            event.get("kind") == "batch"
            and event.get("event") == "batch_form"
            and request_id in event.get("request_ids", [])
        ):
            batch_span = event["span"]
            break

    backends: List[str] = []
    tasks: List[str] = []
    if batch_span is not None and batch_span in nodes:
        backends = _descendants_of_kind(nodes, batch_span, "backend")
        tasks = [
            span
            for span in _descendants_of_kind(nodes, batch_span, "task")
            if any(
                e.get("task_id") == request_id for e in nodes[span].events
            )
        ]
    return RequestLineage(
        request_id=request_id,
        service=service_span,
        request=request_span,
        batch=batch_span,
        backends=backends,
        tasks=tasks,
        resolution=resolution,
    )


def format_lineage(lineage: RequestLineage) -> str:
    """A one-request flamegraph line for terminals and bug reports."""
    chain: List[str] = [lineage.service, lineage.request]
    if lineage.batch is not None:
        chain.append(lineage.batch)
    chain.extend(lineage.backends)
    chain.extend(lineage.tasks)
    arrow = " → ".join(chain)
    return f"request {lineage.request_id} [{lineage.resolution}]: {arrow}"


def lineage_of(path: str, request_id: int) -> RequestLineage:
    """Convenience: :func:`load_trace` + :func:`request_lineage`."""
    return request_lineage(load_trace(path), request_id)


def stage_breakdown(
    events: Iterable[dict],
    task_id: Optional[int] = None,
    *,
    exclusive: bool = True,
) -> Dict[str, float]:
    """Per-stage proving seconds replayed from ``stage_timing`` events.

    Answers the paper's §4 question — where does a proof's time go? —
    from one JSONL trace file: each ``stage_timing`` event carries a
    ``stages`` mapping (commit ⊃ encode + merkle, sumcheck1, sumcheck2,
    open); this sums them across the trace, or for a single proof when
    ``task_id`` is given.  By default the result is the *exclusive* view
    (``commit`` replaced by its residue, values disjoint and summable);
    ``exclusive=False`` returns the raw nested totals.  Raises
    :class:`~repro.errors.ExecutionError` when a requested task has no
    stage events (e.g. a pre-profiling trace).
    """
    from ..kernels.profile import StageProfile

    totals = StageProfile()
    matched = False
    for event in events:
        if event.get("event") != "stage_timing":
            continue
        if task_id is not None and event.get("task_id") != task_id:
            continue
        matched = True
        totals.merge(event.get("stages") or {})
    if task_id is not None and not matched:
        raise ExecutionError(
            f"task {task_id} has no stage_timing events in the trace"
        )
    return totals.exclusive() if exclusive else totals.inclusive()


def stage_breakdown_of(
    path: str, task_id: Optional[int] = None, *, exclusive: bool = True
) -> Dict[str, float]:
    """Convenience: :func:`load_trace` + :func:`stage_breakdown`."""
    return stage_breakdown(load_trace(path), task_id, exclusive=exclusive)
