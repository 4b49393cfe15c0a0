"""Streaming proof service (system S23 in DESIGN.md).

The paper's opening scenario — "service providers need to continuously
process customer inputs that come in like a flowing stream" (§1) — needs
more than a fast batch prover: it needs the layer that turns an online
request *stream* into the well-formed uniform *batches* the proving
machinery is fast at.  This package is that layer:

* :class:`ProofService` — submit/ticket front door with watermark
  admission control (typed :class:`~repro.errors.AdmissionError`
  rejections, BULK shedding with hysteresis);
* :class:`DynamicBatcher` / :class:`BatchPolicy` — work-conserving
  dispatch of circuit-key groups, priority-first and deadline-aware
  ordering, batch size capped at ``max_batch_size``;
* :class:`ResultCache` — LRU result reuse plus single-flight
  deduplication of identical in-flight requests;
* :class:`ServiceStats` — arrival rate, queue depth, batch-size
  histogram, deadline misses, cache hit rate, p50/p95/p99 end-to-end
  latency;
* :class:`RuntimeProofBackend` — the stock bridge onto
  :class:`~repro.runtime.ParallelProvingRuntime`, one shared prover
  setup per circuit key;
* :mod:`~repro.service.workload` — Poisson and bursty arrival traces
  with priorities, deadlines, and duplicates, plus a real-time
  :func:`replay` driver;
* :mod:`~repro.service.fleet` (S30) — the shed-or-scale layer: a
  :class:`FleetSupervisor` feeding live arrival rates into the cluster
  :class:`~repro.cluster.Autoscaler`, a :class:`FleetActuator` keeping
  pool and hash ring in lockstep with drain-then-terminate shrink, and
  the ``healthy → scaling → brownout → shedding`` degradation ladder
  surfaced through :class:`ServiceStats` and retry-after hints.

``python -m repro serve`` replays a synthetic trace end to end (add
``--fleet`` to serve it over a supervised local node fleet);
``python -m repro experiment run bench_service`` sweeps the arrival rate.
"""

from .backends import (
    ProofBackend,
    RuntimeProofBackend,
    spec_key,
    task_witness_key,
)
from .batcher import BatchPolicy, DynamicBatcher
from .cache import ResultCache
from .fleet import (
    Fleet,
    FleetActuator,
    FleetSupervisor,
    find_cluster_backend,
    launch_fleet,
)
from .request import Priority, ProofRequest, Ticket
from .service import ProofService
from .stats import DEGRADATION_LADDER, ServiceStats
from .workload import (
    ArrivalEvent,
    bursty_trace,
    poisson_trace,
    replay,
)

__apidoc__ = """\
**Submit/ticket lifecycle.** `ProofService.submit(payload, circuit_key=…,
witness_key=…, priority=…, deadline_seconds=…)` never blocks: it either
returns a `Ticket` or raises a typed `AdmissionError` whose `reason` is
`"queue_full"` (hard bound `max_queue` hit), `"bulk_shed"` (queue above
`high_watermark`; BULK rejected until depth falls below `low_watermark` —
INTERACTIVE still boards), or `"service_closed"`. The ticket resolves
once — `ticket.result(timeout)` blocks for the value, `ticket.source`
says whether it was `"proved"`, served from `"cache"`, or `"coalesced"`
onto an identical in-flight request. Deadlines shape scheduling and are
*recorded* when missed (`ServiceStats.deadline_misses`); they never drop
a request. `close(drain=True)` flushes the queue; `close(drain=False)`
fails pending tickets with `ServiceError`; `close(drain=True,
timeout=…)` bounds the flush — still-queued requests fail with a
`drain_timeout` trace event naming them, while batches already in
flight resolve normally.

**Degradation ladder (S30).** The service reports one of
`DEGRADATION_LADDER = ("healthy", "scaling", "brownout", "shedding")`
in `ServiceStats.degradation_state`: *brownout* while the watermark
hysteresis sheds BULK, *shedding* when the queue is hard-full, and
*scaling* when an attached `FleetSupervisor` reports the fleet is
growing. Every `AdmissionError` carries `retry_after_seconds` derived
from the rung (scaling = retry soon, shedding = back off hard), and
every rung change emits a `degradation` trace event.

**Fleet serving (S30).** `launch_fleet("serial", initial_nodes=2)`
spawns a local `NodePool`, builds a (resilient-wrapped)
`ClusterBackend` over it, and returns a `Fleet` whose
`supervise(service, model, min_nodes=…, max_nodes=…)` starts the
shed-or-scale loop: live `arrival_rate_per_second` → `Autoscaler` →
`FleetActuator`, which grows pool + hash ring together and shrinks via
unroute → `DRAIN` → terminate so no in-flight proof is lost.
`find_cluster_backend(backend)` locates the cluster inside any composed
backend (e.g. what `resolve_backend("resilient:cluster:…")` built).

**Batching knobs (`BatchPolicy`).** The batcher is work-conserving:
whenever no batch is proving it dispatches at once, so requests pile up
only while a batch proves and the batch size follows the load. Requests
group by `circuit_key` so every batch is uniform (one prover setup per
batch). The group holding the most urgent request wins — priority
class, then earliest deadline, then arrival — and the batch is ordered
the same way and capped at `max_batch_size`, the policy's one knob.

**Cache semantics.** Results are keyed by `(circuit_key, witness_key)`.
A finished key resolves new submissions instantly (LRU, `cache_capacity`
entries); an in-flight key parks the new ticket on the leader
(single-flight: N identical concurrent requests cost one proof). Pass
`witness_key=None` to opt a request out of caching entirely. A failed
batch releases its claims so a retry can re-prove.
"""

__all__ = [
    "ArrivalEvent",
    "BatchPolicy",
    "DEGRADATION_LADDER",
    "DynamicBatcher",
    "Fleet",
    "FleetActuator",
    "FleetSupervisor",
    "Priority",
    "ProofBackend",
    "ProofRequest",
    "ProofService",
    "ResultCache",
    "RuntimeProofBackend",
    "ServiceStats",
    "Ticket",
    "bursty_trace",
    "find_cluster_backend",
    "launch_fleet",
    "poisson_trace",
    "replay",
    "spec_key",
    "task_witness_key",
]
