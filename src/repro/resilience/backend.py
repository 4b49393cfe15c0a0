"""The fault-tolerant execution substrate: failover, breakers, quarantine.

:class:`ResilientBackend` implements the
:class:`~repro.execution.ProvingBackend` protocol around a set of child
backends (typically adopted from a :class:`~repro.execution.ShardedBackend`,
via the ``resilient:sharded:pool:2,pool:2`` selector) and keeps a batch
streaming when children misbehave:

* Each child sits behind a :class:`~repro.resilience.CircuitBreaker` and
  a :class:`~repro.resilience.HealthTracker`.  A child whose dispatch
  fails — an outage, a dead pool, a fault that exhausted the child's own
  retries — trips toward open; its tasks **fail over** to healthy
  siblings in the next dispatch round, and the breaker's half-open probe
  re-admits the child once its cooldown elapses.
* A task whose failures are *attributable* (a singleton dispatch failed)
  on :data:`QUARANTINE_THRESHOLD` distinct children is **quarantined**: its
  result slot carries a typed
  :class:`~repro.errors.QuarantinedTaskError` instead of sinking the
  other tasks' proofs — the per-task blast-radius discipline the
  chunk-splitting retry in :mod:`repro.runtime.pool` applies one level
  down.
* With ``verify_on_return=True`` every proof is verified before it is
  returned; a corrupted proof is **re-proved** (bounded by
  :data:`MAX_REPROVES` per task, then treated as an attributable failure).

Failure attribution: a failed *group* dispatch has an unknown culprit
(the child may be down, or one task may be poisoned), so its tasks are
resubmitted as **singletons** — after which every failure names exactly
one (task, child) pair.  Child-level unavailability
(:class:`~repro.errors.BackendUnavailableError`) never counts against
the tasks it stranded.

Every decision is traced on the shared span schema: ``child_failure``,
``failover``, ``breaker`` (state transitions), ``reprove``, and
``quarantine`` events all hang off this backend's span, so one JSONL
file shows a dead child's tasks completing under its sibling's span —
the lineage the acceptance drill checks.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple, Union

from ..core.batch import ProofTask
from ..core.proof import SnarkProof
from ..errors import (
    BackendUnavailableError,
    ExecutionError,
    QuarantinedTaskError,
)
from ..execution.backend import ProvingBackend, ShardedBackend
from ..execution.sharding import largest_remainder_shares
from ..runtime.spec import ProverSpec, _PerSpecCache
from ..runtime.stats import RuntimeStats, merge_runtime_stats
from ..runtime.trace import JsonlTraceSink, backend_span
from .faults import FaultInjector
from .health import CircuitBreaker, HealthTracker
from .stats import ResilienceStats

#: A result slot: the proof, or the typed quarantine verdict.
TaskResult = Union[SnarkProof, QuarantinedTaskError]

#: Per-child :class:`CircuitBreaker` tuning: consecutive failures that
#: open a child's breaker, and the open dwell before a half-open probe.
BREAKER_FAILURE_THRESHOLD = 2
BREAKER_COOLDOWN_SECONDS = 0.25

#: Distinct children an *attributable* task failure must span before the
#: task is quarantined (clamped to the child count).
QUARANTINE_THRESHOLD = 2

#: Re-prove budget per task before a proof that failed verification
#: counts as an attributable child failure.
MAX_REPROVES = 1

#: Total time one run may spend waiting for any breaker to admit work
#: before giving up.
MAX_UNAVAILABLE_SECONDS = 5.0


class ResilientBackend:
    """Failover + breakers + quarantine around child proving backends.

    Args:
        children: What to protect — a single backend, a sequence of
            sibling backends, or a :class:`ShardedBackend` whose children
            are adopted (the ``resilient:sharded:...`` selector path).
            Tasks are sharded by each child's parallelism.
        verify_on_return: Verify every proof before returning; failed
            verification triggers a re-prove.
        fault_injector: Optional :class:`FaultInjector` for the chaos
            plane (outage checks before each child call; leaf backends
            carry their own worker/corruption hooks).
    """

    def __init__(
        self,
        children: Union[ProvingBackend, Sequence[ProvingBackend]],
        *,
        verify_on_return: bool = False,
        fault_injector: Optional[FaultInjector] = None,
    ):
        inner_name, child_list = self._adopt(children)
        if not child_list:
            raise ExecutionError("ResilientBackend needs at least one child")
        self.children: List[ProvingBackend] = child_list
        self.weights = [
            float(max(1, getattr(child, "parallelism", 1)))
            for child in child_list
        ]
        self.name = f"resilient:{inner_name}"
        self.parallelism = int(sum(self.weights))
        self.verify_on_return = verify_on_return
        self.fault_injector = fault_injector
        self.health = [
            HealthTracker(f"{i}:{child.name}")
            for i, child in enumerate(child_list)
        ]
        self.breakers = [
            CircuitBreaker(
                failure_threshold=BREAKER_FAILURE_THRESHOLD,
                cooldown_seconds=BREAKER_COOLDOWN_SECONDS,
                on_transition=self._transition_recorder(i),
            )
            for i in range(len(child_list))
        ]
        self._verifiers = _PerSpecCache()
        #: Lifetime accumulation across runs.
        self.resilience_stats = ResilienceStats()
        #: The most recent run's report (None before the first run).
        self.last_resilience_stats: Optional[ResilienceStats] = None
        self._run_stats: Optional[ResilienceStats] = None
        self._run_ctx = None

    @staticmethod
    def _adopt(children) -> Tuple[str, List[ProvingBackend]]:
        """Normalize the children argument; adopt a ShardedBackend's shape."""
        if isinstance(children, ShardedBackend):
            return children.name, list(children.children)
        if isinstance(children, ProvingBackend) and not isinstance(
            children, (list, tuple)
        ):
            children = [children]
        child_list = list(children)
        inner = ",".join(child.name for child in child_list)
        if len(child_list) > 1:
            inner = f"sharded:{inner}"
        return inner, child_list

    def _transition_recorder(self, child_index: int):
        def record(src: str, dst: str) -> None:
            name = self.health[child_index].name
            stats = self._run_stats
            if stats is not None:
                stats.record_transition(name, src, dst)
            self.resilience_stats.record_transition(name, src, dst)
            ctx = self._run_ctx
            if ctx is not None:
                ctx.emit("breaker", child=name, src=src, dst=dst)

        return record

    # -- the run ---------------------------------------------------------------

    def prove_tasks(
        self,
        spec: ProverSpec,
        tasks: Sequence[ProofTask],
        *,
        trace: Optional[JsonlTraceSink] = None,
        parent: Optional[str] = None,
    ) -> Tuple[List[TaskResult], RuntimeStats]:
        """Prove every task, surviving child failures.

        The result list is in task order; a slot holds the task's
        :class:`SnarkProof`, or a :class:`QuarantinedTaskError` when the
        task failed attributably on :data:`QUARANTINE_THRESHOLD` distinct
        children.  The batch itself only raises when *no* child can take
        work for longer than :data:`MAX_UNAVAILABLE_SECONDS`.
        """
        tasks = list(tasks)
        ctx = backend_span(trace, parent)
        rstats = ResilienceStats()
        self._run_stats = rstats
        self._run_ctx = ctx
        injector = self.fault_injector
        injected_before = (
            injector.injected_snapshot() if injector is not None else {}
        )
        start = time.perf_counter()
        ctx.emit(
            "resilient_start",
            backend=self.name,
            tasks=len(tasks),
            children=[h.name for h in self.health],
        )
        results: List[Optional[TaskResult]] = [None] * len(tasks)
        part_stats: List[RuntimeStats] = []
        pending: List[int] = list(range(len(tasks)))
        failed_on: Dict[int, Set[int]] = {}
        last_failed_child: Dict[int, int] = {}
        reproves: Dict[int, int] = {}
        isolate: Set[int] = set()
        effective_quarantine = min(QUARANTINE_THRESHOLD, len(self.children))
        waited = 0.0
        round_budget = 4 + len(tasks) * (
            effective_quarantine + MAX_REPROVES + 1
        )

        try:
            while pending:
                rstats.rounds += 1
                if rstats.rounds > round_budget:
                    raise ExecutionError(
                        f"resilient dispatch did not converge after "
                        f"{rstats.rounds - 1} rounds "
                        f"({len(pending)} tasks still pending)"
                    )
                eligible = [
                    i
                    for i in range(len(self.children))
                    if self.breakers[i].acquire()
                ]
                if not eligible:
                    wait = min(
                        (
                            b.seconds_until_probe()
                            for b in self.breakers
                        ),
                        default=0.0,
                    )
                    wait = min(max(wait, 0.005), 0.25)
                    if waited + wait > MAX_UNAVAILABLE_SECONDS:
                        raise ExecutionError(
                            f"no healthy children after waiting "
                            f"{waited:.2f}s; breakers: "
                            + ", ".join(
                                f"{h.name}={b.state}"
                                for h, b in zip(self.health, self.breakers)
                            )
                        )
                    time.sleep(wait)
                    waited += wait
                    rstats.rounds -= 1  # nothing was dispatched
                    continue

                groups, deferred = self._plan_round(
                    pending, eligible, failed_on, isolate,
                    fresh=(rstats.rounds == 1),
                )
                used = {child for child, _ in groups}
                for child in eligible:
                    if child not in used:
                        self.breakers[child].release()
                if not groups:
                    # Every pending task is deferred (its remaining
                    # children are all breaker-rejected); wait a beat.
                    time.sleep(0.005)
                    waited += 0.005
                    if waited > MAX_UNAVAILABLE_SECONDS:
                        raise ExecutionError(
                            "pending tasks cannot be placed on any "
                            "admissible child"
                        )
                    rstats.rounds -= 1
                    continue

                self._record_failovers(
                    groups, last_failed_child, rstats, ctx, tasks
                )
                outcomes = self._dispatch_round(spec, tasks, groups, ctx)
                next_pending: List[int] = list(deferred)
                for (child_index, group), outcome in zip(groups, outcomes):
                    kind, payload = outcome
                    if kind == "ok":
                        proofs, child_stats = payload
                        part_stats.append(child_stats)
                        self.breakers[child_index].record_success()
                        self.health[child_index].record_success(len(group))
                        retry = self._accept_proofs(
                            spec, tasks, group, proofs, results,
                            reproves, failed_on, last_failed_child,
                            child_index, rstats, ctx,
                        )
                        for index in retry:
                            isolate.add(index)
                            next_pending.append(index)
                    else:
                        exc = payload
                        rstats.child_failures += 1
                        self.breakers[child_index].record_failure()
                        self.health[child_index].record_failure(repr(exc))
                        ctx.emit(
                            "child_failure",
                            child=self.health[child_index].name,
                            tasks=[tasks[i].task_id for i in group],
                            reason=repr(exc),
                            attributable=(
                                kind == "failed" and len(group) == 1
                            ),
                        )
                        for index in group:
                            last_failed_child[index] = child_index
                        if kind == "unavailable":
                            # Child-level outage: tasks are blameless.
                            next_pending.extend(group)
                        elif len(group) == 1:
                            index = group[0]
                            failed_on.setdefault(index, set()).add(
                                child_index
                            )
                            if (
                                len(failed_on[index])
                                >= effective_quarantine
                            ):
                                self._quarantine(
                                    index, tasks, failed_on, repr(exc),
                                    results, rstats, ctx,
                                )
                            else:
                                isolate.add(index)
                                next_pending.append(index)
                        else:
                            # Unknown culprit: isolate for attribution.
                            for index in group:
                                isolate.add(index)
                            next_pending.extend(group)
                pending = next_pending
        finally:
            self._run_stats = None
            self._run_ctx = None

        stats = merge_runtime_stats(
            part_stats, total_seconds=time.perf_counter() - start
        )
        stats.workers = max(stats.workers, 1)
        if injector is not None:
            after = injector.injected_snapshot()
            for fault_kind, count in after.items():
                delta = count - injected_before.get(fault_kind, 0)
                if delta > 0:
                    rstats.record_fault(fault_kind, delta)
        ctx.emit(
            "resilient_end",
            proofs=sum(
                1 for r in results if isinstance(r, SnarkProof)
            ),
            quarantined=rstats.quarantined,
            failovers=rstats.failovers,
            re_proves=rstats.re_proves,
            child_failures=rstats.child_failures,
            seconds=stats.total_seconds,
        )
        if ctx.sink is not None:
            ctx.sink.flush()
        self.last_resilience_stats = rstats
        self.resilience_stats.merge(rstats)
        return results, stats  # type: ignore[return-value]

    # -- round planning --------------------------------------------------------

    def _plan_round(
        self,
        pending: Sequence[int],
        eligible: List[int],
        failed_on: Dict[int, Set[int]],
        isolate: Set[int],
        fresh: bool,
    ) -> Tuple[List[Tuple[int, List[int]]], List[int]]:
        """Assign pending task indices to eligible children.

        Returns ``(groups, deferred)``: each group is ``(child_index,
        [task indices])`` and becomes one child call; deferred tasks have
        no admissible child this round.  The first (fresh) round uses the
        same largest-remainder proportional split as
        :class:`ShardedBackend`, so a fault-free resilient run places
        tasks identically to its sharded core; failover rounds place
        per-task, least-loaded first, and isolated tasks become
        singleton calls for exact failure attribution.
        """
        if fresh and not isolate:
            weights = [self.weights[i] for i in eligible]
            shares = largest_remainder_shares(len(pending), weights)
            groups = []
            cursor = 0
            for child_index, share in zip(eligible, shares):
                if share > 0:
                    groups.append(
                        (child_index, list(pending[cursor:cursor + share]))
                    )
                    cursor += share
            return groups, []

        load = {i: 0.0 for i in eligible}
        grouped: Dict[int, List[int]] = {}
        singles: List[Tuple[int, List[int]]] = []
        deferred: List[int] = []
        for index in pending:
            options = [
                i for i in eligible if i not in failed_on.get(index, ())
            ]
            if not options:
                deferred.append(index)
                continue
            choice = min(
                options, key=lambda i: (load[i] / self.weights[i], i)
            )
            load[choice] += 1.0
            if index in isolate:
                singles.append((choice, [index]))
            else:
                grouped.setdefault(choice, []).append(index)
        groups = [
            (child, members) for child, members in grouped.items()
        ] + singles
        return groups, deferred

    def _record_failovers(
        self, groups, last_failed_child, rstats, ctx, tasks
    ) -> None:
        """Count and trace tasks landing on a different child than the
        one that last failed them."""
        for child_index, group in groups:
            moved = [
                tasks[i].task_id
                for i in group
                if last_failed_child.get(i, child_index) != child_index
            ]
            if moved:
                rstats.failovers += len(moved)
                sources = {
                    self.health[last_failed_child[i]].name
                    for i in group
                    if last_failed_child.get(i, child_index) != child_index
                }
                ctx.emit(
                    "failover",
                    tasks=moved,
                    to_child=self.health[child_index].name,
                    from_children=sorted(sources),
                )

    # -- dispatch and acceptance -----------------------------------------------

    def _dispatch_round(
        self, spec, tasks, groups, ctx
    ) -> List[Tuple[str, Any]]:
        """Run every group call; children proceed concurrently.

        Calls to the *same* child run sequentially on one thread — a
        child backend (its pool runtime especially) is not re-entrant,
        and a failover round can assign one child many singleton groups.

        Outcome per group: ``("ok", (proofs, stats))``,
        ``("unavailable", exc)`` for child-level outages, or
        ``("failed", exc)`` for everything else.
        """

        def call(child_index: int, group: List[int]):
            child = self.children[child_index]
            try:
                if self.fault_injector is not None:
                    self.fault_injector.check_outage(
                        child_index, child.name
                    )
                proofs, stats = child.prove_tasks(
                    spec,
                    [tasks[i] for i in group],
                    trace=ctx.sink,
                    parent=ctx.span,
                )
                return ("ok", (proofs, stats))
            except BackendUnavailableError as exc:
                return ("unavailable", exc)
            except Exception as exc:  # noqa: BLE001 - failure domain seam
                return ("failed", exc)

        by_child: Dict[int, List[int]] = {}
        for slot, (child_index, _) in enumerate(groups):
            by_child.setdefault(child_index, []).append(slot)

        outcomes: List[Optional[Tuple[str, Any]]] = [None] * len(groups)

        def run_lane(slots: List[int]) -> None:
            for slot in slots:
                child_index, group = groups[slot]
                outcomes[slot] = call(child_index, group)

        lanes = list(by_child.values())
        if len(lanes) == 1:
            run_lane(lanes[0])
        else:
            with ThreadPoolExecutor(max_workers=len(lanes)) as pool:
                futures = [pool.submit(run_lane, slots) for slots in lanes]
                for future in futures:
                    future.result()
        return outcomes  # type: ignore[return-value]

    def _accept_proofs(
        self,
        spec,
        tasks,
        group: List[int],
        proofs: List[SnarkProof],
        results: List[Optional[TaskResult]],
        reproves: Dict[int, int],
        failed_on: Dict[int, Set[int]],
        last_failed_child: Dict[int, int],
        child_index: int,
        rstats: ResilienceStats,
        ctx,
    ) -> List[int]:
        """Verify (optionally) and store a successful group's proofs.

        Returns task indices that must be re-proved (failed
        verification within their re-prove budget).
        """
        retry: List[int] = []
        verifier = None
        if self.verify_on_return:
            verifier = self._verifiers.get_or_build(
                spec, lambda s: s.build_verifier()
            )
        effective_quarantine = min(QUARANTINE_THRESHOLD, len(self.children))
        for index, proof in zip(group, proofs):
            if verifier is not None:
                try:
                    good = verifier.verify(
                        proof, tasks[index].public_values
                    )
                except Exception:  # structurally broken proof
                    good = False
                if not good:
                    used = reproves.get(index, 0)
                    if used < MAX_REPROVES:
                        reproves[index] = used + 1
                        rstats.re_proves += 1
                        last_failed_child[index] = child_index
                        ctx.emit(
                            "reprove",
                            task_id=tasks[index].task_id,
                            child=self.health[child_index].name,
                            attempt=used + 1,
                        )
                        retry.append(index)
                        continue
                    failed_on.setdefault(index, set()).add(child_index)
                    last_failed_child[index] = child_index
                    if len(failed_on[index]) >= effective_quarantine:
                        self._quarantine(
                            index, tasks, failed_on,
                            "proof failed verification after re-proves",
                            results, rstats, ctx,
                        )
                    else:
                        retry.append(index)
                    continue
            results[index] = proof
        return retry

    def _quarantine(
        self, index, tasks, failed_on, reason, results, rstats, ctx
    ) -> None:
        tried = sorted(
            self.health[i].name for i in failed_on.get(index, ())
        )
        error = QuarantinedTaskError(
            tasks[index].task_id, tried, last_error=reason
        )
        results[index] = error
        rstats.quarantined += 1
        ctx.emit(
            "quarantine",
            task_id=tasks[index].task_id,
            tried_on=tried,
            reason=reason,
        )


def split_results(
    results: Sequence[TaskResult],
) -> Tuple[List[Tuple[int, SnarkProof]], List[QuarantinedTaskError]]:
    """Partition a resilient result list into proofs and quarantines.

    Returns ``([(task index, proof), ...], [QuarantinedTaskError, ...])``
    so callers can verify the proofs against the right tasks and report
    the quarantines separately.
    """
    proofs: List[Tuple[int, SnarkProof]] = []
    quarantined: List[QuarantinedTaskError] = []
    for index, result in enumerate(results):
        if isinstance(result, QuarantinedTaskError):
            quarantined.append(result)
        else:
            proofs.append((index, result))
    return proofs, quarantined
