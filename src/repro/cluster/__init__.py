"""Distributed proving cluster (system S28 in DESIGN.md): scale out.

BatchZK scales *up* one machine with a pipelined GPU; a proving service
eventually scales *out* to many.  This package turns any local
:class:`~repro.execution.ProvingBackend` into a fleet member and any
client into a coordinator:

* :class:`NodeServer` — ``python -m repro node --listen HOST:PORT
  --backend pool:4`` serves the framed, versioned wire protocol of
  :mod:`repro.cluster.protocol` over TCP, streaming each batch's proofs
  back chunk by chunk and reporting its cache gauges in ``STATS``.
* :class:`RemoteBackend` / :class:`ClusterBackend` — ``remote:host:port``
  proxies one node; ``cluster:remote:a,remote:b,...`` routes batches by
  circuit digest over a consistent-hash :class:`HashRing`, so the same
  circuit always lands on the same nodes (their
  :class:`~repro.kernels.SpecCache` stays hot) and a dead node's arc
  fails over to its ring successors behind the S25 circuit breakers —
  ``resilient:cluster:...`` composes for task-level quarantine on top.
  The cluster is the only backend with children: ``cluster:serial,serial``
  splits a batch over in-process members, one call per member at a
  time.
* :class:`LoadModel` / :class:`Autoscaler` / :class:`NodePool` — sizes
  the fleet from measured per-proof cost × live arrival rate
  (:func:`~repro.kernels.profile.proof_cost_seconds`), actuating local
  node subprocesses and tracing every ``scale_decision``.

Proof bytes are invariant across all of it: a cluster proof is
byte-identical to a serial one, including after mid-batch node deaths.
"""

from .autoscale import Autoscaler, LoadModel, NodePool, drain_address
from .coordinator import ClusterBackend
from .hedging import LatencyTracker, TokenBucket
from .node import NodeServer
from .protocol import PROTOCOL_VERSION
from .remote import RemoteBackend
from .ring import HashRing, key_point

__apidoc__ = """\
**The wire.** One frame = a 12-byte header (magic ``RPCL``, protocol
version, kind, payload length) + a pickled dict.  Every compatibility
check runs *before* unpickling: wrong magic, wrong frame revision, or a
`HELLO`/`PROVE` from a different `repro.__version__` raises a typed
`ProtocolMismatchError` naming both versions.  `PROVE` carries the
circuit digest next to the pickled spec and the node recomputes it, so
the routing key can never drift from the payload.  Nodes stream
`RESULT` frames per chunk — the coordinator deserializes early proofs
while late ones are still proving — then close the batch with `DONE`
(the run report).

**Routing.** `HashRing` places each node at 64 virtual SHA-256 points;
a batch's circuit digest hashes to a ring position and
`nodes_for(digest, k)` yields the clockwise succession: the owner, then
the failover order.  Affinity (same circuit → same nodes, hot caches)
and minimal remap (a join/leave moves ≈ 1/N of circuits) follow from
the construction; `ClusterBackend.cluster_stats()["cache_affinity"]`
measures the payoff as Σ hits / Σ lookups across the fleet's `STATS`.

**Hedged dispatch.** A node that is *slow* (not dead) never trips a
breaker; the coordinator covers that gap with hedging.  Every shard's
client-observed latency feeds a sliding `LatencyTracker`; once a shard
outlives `HEDGE_DELAY_FACTOR` (1.5) × the window's p95 (floored at
`min_hedge_delay_seconds`, default 50 ms), the same task indices are
re-issued to the first idle member in ring order (a member runs one
call at a time, so a hedge waits until one is idle) and the first successful
result wins — safe because both attempts produce byte-identical proofs.  A
global `TokenBucket` (`hedge_budget_per_second`/`hedge_budget_burst`)
caps hedge issues so fleet-wide slowness cannot amplify into a retry
storm; hedges are budget-gated, failover retries never are.  `hedge` /
`hedge_won` / `hedge_denied` trace events and
`cluster_stats()["hedging"]` expose the behavior.

**Graceful drain (protocol v2).** `DRAIN` flips a node into draining
mode: new `PROVE` batches are refused as *unavailable* (breakers route
around), in-flight batches stream their results to completion, then
`DRAIN_OK` acknowledges.  `RemoteBackend.drain(timeout)` /
`drain_address("host:port")` drive it client-side, and
`NodePool.retire(drain_timeout=…)` turns a scale-down into
unroute → drain → SIGTERM → (timeout) → SIGKILL.  `NodePool.close()`
terminates all children concurrently against one
`NODE_TERMINATE_TIMEOUT_SECONDS` deadline and kills stragglers, so one
wedged subprocess cannot hang shutdown.

**Failure model.** Transport loss anywhere becomes
`BackendUnavailableError`, so per-node `CircuitBreaker`s open on a dead
peer, the orphaned share re-runs on ring successors (`ring_rebalance`
events name the tasks and the nodes they moved to), and a batch with no
admissible node for `MAX_UNAVAILABLE_SECONDS` (5 s) fails typed.  This
is the one failover loop (DESIGN decision 28): `resilient:cluster:...`
adds task-level quarantine above it and lets an unavailable cluster's
error propagate.  A fault plan's `outage:` and `down=C@FxN` faults fire
here, before each attempt on member `C` (join order).  Version
skew and digest disagreement are *not* retried: they are configuration
errors, and the fleet fails loudly.

**Autoscaling.** `LoadModel.from_stage_profile(stages,
node_parallelism=4)` calibrates per-proof busy-seconds from measured
stage timings; `target_nodes(rate)` is `ceil(rate × cost /
(parallelism × headroom))`.  `Autoscaler` grows immediately, shrinks
only after `shrink_patience` consecutive low readings (retiring a node
discards warm caches), and actuates a `NodePool` of local
`python -m repro node` subprocesses, emitting `scale_decision` /
`node_join` / `node_leave` on the shared span schema.
"""

__all__ = [
    "Autoscaler",
    "ClusterBackend",
    "HashRing",
    "LatencyTracker",
    "LoadModel",
    "NodePool",
    "NodeServer",
    "PROTOCOL_VERSION",
    "RemoteBackend",
    "TokenBucket",
    "drain_address",
    "key_point",
]
