"""The cluster coordinator: ring-routed dispatch across proving nodes.

``resolve_backend("cluster:remote:a:1,remote:b:2")`` builds a
:class:`ClusterBackend` whose children are (usually) remote nodes;
``cluster:serial,serial`` clusters in-process backends the same way.  One
batch flows through three decisions:

1. **Affinity order** — the batch's circuit digest is looked up on a
   consistent-hash :class:`~repro.cluster.HashRing`; the resulting node
   order is deterministic per circuit, so the same circuit always lands
   on the same ordered subset of the fleet and every node's
   :class:`~repro.kernels.SpecCache` working set stays small and hot.
2. **Admission** — each candidate passes through its own
   :class:`~repro.resilience.CircuitBreaker` (the S25 state machine,
   reused verbatim): a node that just died is skipped without a connect
   attempt until its cooldown admits a probe.
3. **Sharding** — admitted nodes split the batch proportionally to
   their advertised ``parallelism`` with largest-remainder rounding,
   and shards run concurrently on threads.

A shard that fails with :class:`~repro.errors.BackendUnavailableError`
(the remote backend's translation of any transport loss) is *failed
over*: the coordinator emits a ``ring_rebalance`` event and re-runs the
orphaned tasks on the ring successors, round after round, until they
finish or no node is admissible.  Because every node proves
deterministically from the same canonical spec, a failover changes
*where* a proof is produced but never its bytes — the chaos drill in the
cluster tests pins that down.  Any other shard failure (a poisoned task,
a proving bug, :class:`~repro.errors.ProtocolMismatchError`) is never
retried and never counts against the member's breaker — the member
answered.  It fails the batch once the other shards finish, as a
:class:`~repro.errors.PartialBatchError` carrying their proofs when
any finished, so a caller that attributes failures re-runs only the
failed shard's tasks.

**Hedged dispatch** covers the failure mode breakers can't see: a node
that is *slow* rather than dead.  Each shard's client-observed latency
feeds a sliding :class:`~repro.cluster.hedging.LatencyTracker`; once a
shard has run longer than :data:`HEDGE_DELAY_FACTOR` × the window's p95
(floored at ``min_hedge_delay_seconds``), the coordinator re-issues the
same task indices to the first idle member in ring order and takes
whichever attempt succeeds first.  Determinism makes this free of
coordination: both attempts produce byte-identical proofs, so "first
result wins" is safe by construction.  A global :class:`~repro.cluster.hedging.TokenBucket`
budget caps hedge issues per second — during fleet-wide slowness every
shard looks hedge-worthy, and doubling the load then is how retry
storms start.  Hedges are an *optimization* and are budget-gated;
failover retries are *correctness recovery* and never are.

This module is the one home of node availability (DESIGN decision 28):
breakers, failover, the wait for an admissible node, hedging and ring
order live here and nowhere else.  Task discipline — singleton
attribution, quarantine, verify-and-re-prove — is
:class:`~repro.resilience.ResilientBackend`'s, one layer up.  Members
may be in-process backends, which are not re-entrant, so the
coordinator sends at most one call at a time to each member: a member
runs one shard or one hedge, and the next claim waits until it is idle.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.batch import ProofTask
from ..core.proof import SnarkProof
from ..errors import (
    BackendUnavailableError,
    ClusterError,
    ExecutionError,
    PartialBatchError,
)
from ..execution.backend import ProvingBackend
from ..execution.sharding import largest_remainder_shares
from ..resilience.health import OPEN, CLOSED, CircuitBreaker, HealthTracker
from ..runtime.spec import ProverSpec
from ..runtime.stats import RuntimeStats, merge_runtime_stats
from ..runtime.trace import JsonlTraceSink, backend_span
from .hedging import LatencyTracker, TokenBucket
from .ring import HashRing

#: Per-node :class:`CircuitBreaker` tuning.  One failure opens a node's
#: breaker (a dead TCP peer should stop receiving work immediately); the
#: breaker admits a probe after the cooldown.
BREAKER_FAILURE_THRESHOLD = 1
BREAKER_COOLDOWN_SECONDS = 0.25

#: How long one batch keeps waiting for *any* admissible node before it
#: fails with :class:`~repro.errors.BackendUnavailableError`.
MAX_UNAVAILABLE_SECONDS = 5.0

#: Hedge once a shard exceeds this multiple of the latency window's p95.
HEDGE_DELAY_FACTOR = 1.5


class _Member:
    """One fleet slot: a child backend plus its health machinery.

    ``index`` is the member's position in join order (the ``C`` of a
    ``down=C@FxN`` fault plan); ``busy`` is set while one call runs on
    it, guarded by the coordinator's idle condition.
    """

    def __init__(
        self,
        index: int,
        backend: ProvingBackend,
        breaker: CircuitBreaker,
    ):
        self.index = index
        self.id = f"{index}:{backend.name}"
        self.backend = backend
        self.breaker = breaker
        self.health = HealthTracker(self.id)
        self.busy = False

    @property
    def weight(self) -> float:
        return float(max(1, getattr(self.backend, "parallelism", 1)))


class _ShardRun:
    """In-flight state for one shard: primary attempt plus, maybe, a hedge.

    ``outcome`` stays ``None`` while any attempt for the shard is still
    outstanding; it becomes either a ``(results, stats)`` pair (first
    success wins) or the exception of the last attempt to fail, once
    every attempt has failed.
    """

    __slots__ = (
        "member", "indices", "start", "outcome", "attempts_out",
        "hedge_state",
    )

    def __init__(self, member: _Member, indices: List[int]):
        self.member = member
        self.indices = indices
        self.start = 0.0
        self.outcome = None
        self.attempts_out = 0
        self.hedge_state: Optional[str] = None  # None | issued | skipped


class ClusterBackend:
    """Composite backend routing batches over a node fleet by digest.

    Every batch uses every admitted node, in affinity order.  The
    cluster is the only backend with children: ``cluster:serial,serial``
    splits a batch over two in-process members the same way
    ``cluster:remote:a,remote:b`` splits it over two hosts.

    Args:
        children:           Child backends (``RemoteBackend`` instances
                            or any in-process ``ProvingBackend``).
        hedge:              Enable hedged dispatch (tail-latency
                            mitigation; needs ≥ 2 ring members to act).
        min_hedge_delay_seconds:  Floor on the hedge delay, so
                            microsecond-fast in-process fleets don't
                            hedge on scheduler jitter.
        hedge_min_samples:  Hedging stays off until this many shard
                            completions are in the latency window.
        hedge_budget_per_second / hedge_budget_burst:  Global token
                            bucket bounding hedge issues (the
                            anti-retry-storm valve).

    ``fault_injector`` (set by :func:`~repro.resilience.apply_fault_plan`)
    fires ``outage`` and ``down=C@FxN`` faults before each member
    attempt, for member ``C`` in join order.
    """

    def __init__(
        self,
        children: Sequence[ProvingBackend],
        *,
        hedge: bool = True,
        min_hedge_delay_seconds: float = 0.05,
        hedge_min_samples: int = 8,
        hedge_budget_per_second: float = 4.0,
        hedge_budget_burst: float = 8.0,
    ):
        children = list(children)
        if not children:
            raise ClusterError("ClusterBackend needs at least one node")
        self.hedge = hedge
        self.min_hedge_delay_seconds = min_hedge_delay_seconds
        self._latency = LatencyTracker(min_samples=hedge_min_samples)
        self._hedge_budget = TokenBucket(
            hedge_budget_per_second, hedge_budget_burst
        )
        self.hedges_issued = 0
        self.hedges_won = 0
        self.hedges_denied = 0
        self.fault_injector = None
        self._lock = threading.Lock()
        #: Signalled whenever a member goes idle.
        self._idle = threading.Condition()
        self._members: Dict[str, _Member] = {}
        self._joined = 0
        self.ring = HashRing()
        #: (event, fields) pairs emitted by breaker transitions between
        #: runs; flushed onto the next run's span.
        self._pending_events: List[Tuple[str, dict]] = []
        for child in children:
            self._admit_member(child, announce=False)
        self.name = "cluster:" + ",".join(
            member.backend.name for member in self._members.values()
        )

    # -- membership ------------------------------------------------------------

    @property
    def parallelism(self) -> int:
        with self._lock:
            return max(
                1,
                sum(int(m.weight) for m in self._members.values()),
            )

    @property
    def members(self) -> List[_Member]:
        with self._lock:
            return list(self._members.values())

    def _admit_member(
        self, backend: ProvingBackend, *, announce: bool
    ) -> _Member:
        with self._lock:
            index = self._joined
            self._joined += 1
        member_id = f"{index}:{backend.name}"

        def on_transition(from_state: str, to_state: str) -> None:
            fields = {"node": member_id, "from": from_state, "to": to_state}
            with self._lock:
                self._pending_events.append(("breaker", dict(fields)))
                if to_state == OPEN:
                    self._pending_events.append(
                        ("node_leave", {"node": member_id,
                                        "reason": "breaker_open"})
                    )
                elif to_state == CLOSED and from_state != CLOSED:
                    self._pending_events.append(
                        ("node_join", {"node": member_id,
                                       "reason": "breaker_closed"})
                    )

        breaker = CircuitBreaker(
            failure_threshold=BREAKER_FAILURE_THRESHOLD,
            cooldown_seconds=BREAKER_COOLDOWN_SECONDS,
            on_transition=on_transition,
        )
        member = _Member(index, backend, breaker)
        with self._lock:
            self._members[member_id] = member
            if announce:
                self._pending_events.append(
                    ("node_join", {"node": member_id, "reason": "added"})
                )
                self._pending_events.append(
                    ("ring_rebalance",
                     {"node": member_id, "nodes": len(self._members)})
                )
        self.ring.add(member_id)
        return member

    def add_node(self, backend: ProvingBackend) -> str:
        """Join a node mid-flight; only ≈1/N of circuits re-home to it."""
        return self._admit_member(backend, announce=True).id

    def remove_node(self, member_id: str) -> None:
        """Retire a node; its ring arcs fall to the clockwise successors."""
        with self._lock:
            member = self._members.pop(member_id, None)
            if member is None:
                raise ClusterError(f"no cluster member {member_id!r}")
            self._pending_events.append(
                ("node_leave", {"node": member_id, "reason": "removed"})
            )
            self._pending_events.append(
                ("ring_rebalance",
                 {"node": member_id, "nodes": len(self._members)})
            )
        self.ring.remove(member_id)
        close = getattr(member.backend, "close", None)
        if callable(close):
            try:
                close()
            except Exception:
                pass

    def close(self) -> None:
        """Close every child that holds a connection."""
        for member in self.members:
            close = getattr(member.backend, "close", None)
            if callable(close):
                try:
                    close()
                except Exception:
                    pass

    # -- one call per member ---------------------------------------------------

    def _claim(self, member: _Member) -> bool:
        """Take an idle member whose breaker admits a call."""
        with self._idle:
            if member.busy:
                return False
            member.busy = True
        if member.breaker.acquire():
            return True
        self._set_idle(member)
        return False

    def _set_idle(self, member: _Member) -> None:
        with self._idle:
            member.busy = False
            self._idle.notify_all()

    def _unclaim(self, member: _Member) -> None:
        """Return a claimed member that was given no work."""
        member.breaker.release()
        self._set_idle(member)

    # -- dispatch --------------------------------------------------------------

    def _flush_events(self, ctx) -> None:
        with self._lock:
            pending, self._pending_events = self._pending_events, []
        for event, fields in pending:
            ctx.emit(event, **fields)

    def _affinity_order(self, digest: bytes) -> List[str]:
        return self.ring.nodes_for(digest, max(1, len(self.ring)))

    def _admit(
        self, order: List[str], deadline: float, pending: int,
        round_no: int, ctx,
    ) -> List[_Member]:
        """Claim every idle admissible member, waiting until one is.

        A wait while some member is busy is a wait for that member to
        finish its call; only a fleet with every member idle and
        rejected by its breaker counts against ``deadline``.
        """
        while True:
            with self._lock:
                members = [
                    self._members[m] for m in order if m in self._members
                ]
            admitted = [m for m in members if self._claim(m)]
            if admitted:
                return admitted
            self._flush_events(ctx)
            with self._idle:
                idle = [m for m in members if not m.busy]
                if len(idle) < len(members):
                    self._idle.wait(timeout=0.05)
                    continue
                wait = min(
                    (m.breaker.seconds_until_probe() for m in idle),
                    default=0.0,
                )
                if time.monotonic() + wait > deadline:
                    raise BackendUnavailableError(
                        f"{self.name}: no admissible node for "
                        f"{pending} tasks after {round_no - 1} "
                        "failover rounds; health: "
                        + "; ".join(m.health.summary() for m in members)
                    )
                self._idle.wait(timeout=max(wait, 0.01))

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
        digest = spec.r1cs.digest()
        start = time.perf_counter()
        ctx.emit(
            "cluster_start", backend=self.name, tasks=len(tasks),
            nodes=len(self.ring), circuit=digest.hex()[:16],
        )
        self._flush_events(ctx)
        results: List[Optional[SnarkProof]] = [None] * len(tasks)
        part_stats: List[RuntimeStats] = []
        failure: Optional[Exception] = None
        pending: List[int] = list(range(len(tasks)))
        deadline = time.monotonic() + MAX_UNAVAILABLE_SECONDS
        round_no = 0
        while pending:
            round_no += 1
            order = self._affinity_order(digest)
            admitted = self._admit(
                order, deadline, len(pending), round_no, ctx
            )
            shares = largest_remainder_shares(
                len(pending), [m.weight for m in admitted]
            )
            plan: List[Tuple[_Member, List[int]]] = []
            lo = 0
            for member, share in zip(admitted, shares):
                if share == 0:
                    self._unclaim(member)
                    continue
                plan.append((member, pending[lo:lo + share]))
                lo += share
            if round_no > 1:
                ctx.emit(
                    "ring_rebalance",
                    node=",".join(m.id for m, _ in plan),
                    reassigned=len(pending), round=round_no,
                    tasks=[tasks[i].task_id for i in pending],
                )

            def run_shard(member: _Member, indices: List[int]):
                return member.backend.prove_tasks(
                    spec, [tasks[i] for i in indices],
                    trace=ctx.sink, parent=ctx.span,
                )

            outcomes = self._run_plan(plan, order, run_shard, ctx)
            still_pending: List[int] = []
            for (member, indices), outcome in zip(plan, outcomes):
                if isinstance(outcome, BackendUnavailableError):
                    still_pending.extend(indices)
                    ctx.emit(
                        "node_failure", node=member.id,
                        tasks=len(indices), error=str(outcome)[:160],
                    )
                    continue
                if isinstance(outcome, Exception):
                    failure = failure or outcome
                    continue
                shard_results, shard_stats = outcome
                for index, result in zip(indices, shard_results):
                    results[index] = result
                part_stats.append(shard_stats)
            self._flush_events(ctx)
            pending = still_pending
        stats = merge_runtime_stats(
            part_stats, total_seconds=time.perf_counter() - start
        )
        if failure is not None:
            if not part_stats:
                raise failure
            raise PartialBatchError(results, stats, failure) from failure
        ctx.emit(
            "cluster_end", proofs=len(tasks), rounds=round_no,
            seconds=stats.total_seconds,
        )
        if ctx.sink is not None:
            ctx.sink.flush()
        return results, stats  # type: ignore[return-value]

    # -- hedged execution ------------------------------------------------------

    def hedge_delay(self) -> Optional[float]:
        """Current hedge trigger in seconds, or ``None`` while disabled.

        ``None`` means either hedging is off or the latency window has
        too few completions (``hedge_min_samples``) to estimate a p95.
        """
        if not self.hedge:
            return None
        p95 = self._latency.percentile(95.0)
        if p95 is None:
            return None
        return max(self.min_hedge_delay_seconds, p95 * HEDGE_DELAY_FACTOR)

    def _timed_attempt(self, member: _Member, run_shard, indices: List[int]):
        start = time.monotonic()
        outcome = self._attempt(member, run_shard, indices)
        if not isinstance(outcome, Exception):
            self._latency.record(time.monotonic() - start)
        return outcome

    def _hedge_member(self, order: List[str]) -> Optional[_Member]:
        """First idle admissible member in ring order (the shard's own
        member is busy with it, so it is never chosen)."""
        with self._lock:
            members = dict(self._members)
        for member_id in order:
            member = members.get(member_id)
            if member is not None and self._claim(member):
                return member
        return None

    def _run_plan(self, plan, order: List[str], run_shard, ctx):
        """Execute every shard, hedging stragglers; outcomes in plan order.

        Each outcome is a ``(results, stats)`` pair or the exception of
        the shard's last failed attempt; every shard concludes before
        this returns, so no primary attempt outlives the call.  A hedge
        loser keeps running in the background — its member stays busy,
        and its attempt concludes its own breaker bookkeeping — but the
        batch returns as soon as every shard has a first result.
        """
        delay = self.hedge_delay()
        if len(plan) == 1 and (delay is None or len(self.ring) <= 1):
            member, indices = plan[0]
            return [self._timed_attempt(member, run_shard, indices)]
        shards = [_ShardRun(member, indices) for member, indices in plan]
        executor = ThreadPoolExecutor(max_workers=2 * len(plan))
        futures: Dict = {}
        outstanding: Set = set()
        try:
            for shard in shards:
                shard.start = time.monotonic()
                shard.attempts_out = 1
                future = executor.submit(
                    self._attempt, shard.member, run_shard, shard.indices
                )
                futures[future] = (shard, shard.member, False)
                outstanding.add(future)
            while any(shard.outcome is None for shard in shards):
                timeout = None
                if delay is not None:
                    now = time.monotonic()
                    # An overdue shard that found no idle member waits
                    # for the next completion instead of a deadline.
                    deadlines = [
                        shard.start + delay
                        for shard in shards
                        if shard.outcome is None
                        and shard.hedge_state is None
                        and shard.start + delay > now
                    ]
                    if deadlines:
                        timeout = min(deadlines) - now
                done, _ = wait(
                    outstanding, timeout=timeout, return_when=FIRST_COMPLETED
                )
                for future in done:
                    outstanding.discard(future)
                    shard, member, is_hedge = futures.pop(future)
                    shard.attempts_out -= 1
                    outcome = future.result()
                    if isinstance(outcome, Exception):
                        # A failed attempt concludes its shard only once
                        # no other attempt for it is still running.
                        if shard.outcome is None and shard.attempts_out == 0:
                            shard.outcome = outcome
                        continue
                    if shard.outcome is None:
                        shard.outcome = outcome
                        self._latency.record(time.monotonic() - shard.start)
                        if is_hedge:
                            with self._lock:
                                self.hedges_won += 1
                            ctx.emit(
                                "hedge_won", node=member.id,
                                primary=shard.member.id,
                                tasks=len(shard.indices),
                            )
                if delay is not None:
                    now = time.monotonic()
                    for shard in shards:
                        if (
                            shard.outcome is not None
                            or shard.hedge_state is not None
                            or now < shard.start + delay
                        ):
                            continue
                        self._issue_hedge(
                            shard, order, delay, run_shard, ctx,
                            executor, futures, outstanding,
                        )
        finally:
            # Never block the batch on hedge losers: leave them to
            # finish (bounded by the remote io timeout) and conclude
            # their breakers in the background.
            executor.shutdown(wait=False)
        return [shard.outcome for shard in shards]

    def _issue_hedge(
        self, shard: _ShardRun, order, delay, run_shard, ctx,
        executor, futures, outstanding,
    ) -> None:
        successor = self._hedge_member(order)
        if successor is None:
            return  # retried when an attempt completes and frees a member
        if not self._hedge_budget.try_acquire():
            self._unclaim(successor)
            shard.hedge_state = "skipped"
            with self._lock:
                self.hedges_denied += 1
            ctx.emit(
                "hedge_denied", primary=shard.member.id,
                reason="budget", tasks=len(shard.indices),
            )
            return
        shard.hedge_state = "issued"
        shard.attempts_out += 1
        with self._lock:
            self.hedges_issued += 1
        ctx.emit(
            "hedge", node=successor.id, primary=shard.member.id,
            tasks=len(shard.indices),
            delay_ms=round(delay * 1000.0, 3),
        )
        future = executor.submit(
            self._attempt, successor, run_shard, shard.indices
        )
        futures[future] = (shard, successor, True)
        outstanding.add(future)

    def _attempt(self, member: _Member, run_shard, indices: List[int]):
        """Run one shard on a claimed member, concluding its breaker.

        Returns the (results, stats) pair, or the exception.  Only a
        :class:`BackendUnavailableError` opens the breaker; any other
        failure means the member answered, so the breaker records a
        success while the health ledger logs the failure.  The member is
        idle again when this returns.
        """
        try:
            if self.fault_injector is not None:
                self.fault_injector.check_outage(member.index, member.id)
            outcome = run_shard(member, indices)
        except BackendUnavailableError as exc:
            member.breaker.record_failure()
            member.health.record_failure(str(exc))
            return exc
        except Exception as exc:
            member.breaker.record_success()
            member.health.record_failure(str(exc))
            return exc
        else:
            member.breaker.record_success()
            member.health.record_success(tasks=len(indices))
            return outcome
        finally:
            self._set_idle(member)

    # -- observability ---------------------------------------------------------

    def cluster_stats(self) -> dict:
        """Fleet-wide gauges, including the aggregate cache affinity.

        ``cache_affinity`` is Σ spec-affinity hits / Σ lookups across
        every reachable node — the fraction of tasks that arrived at a
        node already holding their circuit.  Ring routing exists to keep
        this near 1.0; the affinity test asserts ≥ 0.9.
        """
        nodes = {}
        hits = misses = 0
        for member in self.members:
            fetch = getattr(member.backend, "fetch_stats", None)
            if not callable(fetch):
                nodes[member.id] = {"reachable": False, "local": True}
                continue
            try:
                payload = fetch()
            except (BackendUnavailableError, ExecutionError) as exc:
                nodes[member.id] = {"reachable": False,
                                    "error": str(exc)[:120]}
                continue
            payload["reachable"] = True
            nodes[member.id] = payload
            affinity = payload.get("spec_affinity") or {}
            hits += int(affinity.get("hits") or 0)
            misses += int(affinity.get("misses") or 0)
        looked_up = hits + misses
        with self._lock:
            hedging = {
                "enabled": self.hedge,
                "issued": self.hedges_issued,
                "won": self.hedges_won,
                "denied": self.hedges_denied,
                "samples": len(self._latency),
            }
        hedging["delay_seconds"] = self.hedge_delay()
        hedging["budget_available"] = self._hedge_budget.available
        return {
            "backend": self.name,
            "nodes": nodes,
            "ring_nodes": len(self.ring),
            "hedging": hedging,
            "cache_affinity": {
                "hits": hits,
                "misses": misses,
                "hit_rate": (hits / looked_up) if looked_up else 0.0,
            },
            "health": {
                member.id: member.health.summary()
                for member in self.members
            },
        }
