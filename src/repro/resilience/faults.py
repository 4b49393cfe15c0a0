"""Deterministic, seeded fault injection (the chaos plane of S25).

A production proving farm meets partial failure constantly — worker
crashes, stragglers, bit-flips in proof bytes, a device dropping off the
bus — and a resilience layer is only trustworthy if those failures can be
*rehearsed*.  :class:`FaultPlan` is a declarative, picklable schedule of
failures; :class:`FaultInjector` turns it into deterministic decisions:
every decision is a pure function of the plan's seed and the decision's
identity (task id, attempt, member index, call sequence), so the same plan
against the same workload injects the same faults — in every worker
process, on every rerun.

Fault taxonomy (each independently rated):

* ``crash``       — a worker attempt raises :class:`InjectedFault`
                    before proving (keyed per ``(task, attempt)``, so a
                    retry of the same task rolls fresh).
* ``slow``        — a worker attempt sleeps ``slow_seconds`` first (a
                    straggler; exercises timeout accounting).
* ``corrupt``     — a finished proof is corrupted in flight (one byte of
                    the commitment root flipped); keyed per delivery, so
                    a re-prove of the same task rolls fresh.
* ``outage``      — a cluster member refuses an attempt with
                    :class:`BackendUnavailableError` (transient; keyed
                    per ``(member, call)``).
* ``pool_death``  — a worker raises :class:`OSError`, which the runtime
                    treats as pool-infrastructure death and degrades to
                    serial (exercises the fallback path).
* ``batch``       — a service-level batch dispatch fails before reaching
                    the backend (exercises the service failure path and
                    the single-flight follower retry).

Plus two scheduled (non-random) fault shapes:

* ``down=C@FxN``  — cluster member ``C`` (join order) is forcibly down
                    for ``N`` consecutive calls starting at its
                    ``F``-th call (default ``@0x1``): the deterministic
                    "dead device" drill.
* ``poison=A+B``  — tasks ``A`` and ``B`` crash on *every* attempt, on
                    every backend: the poison-task drill that must end
                    in quarantine, not a sunk batch.

The worker-side hook is the exact ``(task_id, attempt) -> None`` callable
:class:`~repro.runtime.ParallelProvingRuntime` already accepts as
``fault_injector``; the dispatcher-side hooks (:meth:`maybe_corrupt`,
:meth:`check_outage`, :meth:`on_batch_dispatch`) plug into the execution
backends and the proof service.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from ..errors import (
    BackendUnavailableError,
    ExecutionError,
    InjectedFault,
    ResilienceError,
)

#: Rated fault kinds accepted in a plan string as ``kind:rate`` tokens.
RATED_KINDS = ("crash", "slow", "corrupt", "outage", "pool_death", "batch")


@dataclass(frozen=True)
class FaultPlan:
    """A declarative, picklable schedule of failures to inject.

    All rates are per-decision probabilities in ``[0, 1]``; the seed
    makes every decision reproducible.  Build one from the CLI grammar
    with :meth:`parse`::

        FaultPlan.parse("crash:0.1,corrupt:0.02,seed=7")
        FaultPlan.parse("outage:0.05,down=0@1x2,poison=3,seed=11")
    """

    crash: float = 0.0
    slow: float = 0.0
    corrupt: float = 0.0
    outage: float = 0.0
    pool_death: float = 0.0
    batch: float = 0.0
    seed: int = 0
    #: Straggler sleep for ``slow`` faults.
    slow_seconds: float = 0.02
    #: Forced outage: (cluster member index, first affected call, number
    #: of calls), or None for no scheduled outage.
    down: Optional[Tuple[int, int, int]] = None
    #: Task ids that crash on every attempt (must end in quarantine).
    poison: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        for kind in RATED_KINDS:
            rate = getattr(self, kind)
            if not 0.0 <= rate <= 1.0:
                raise ResilienceError(
                    f"fault rate {kind}={rate} outside [0, 1]"
                )
        if self.slow_seconds < 0:
            raise ResilienceError(
                f"slow_seconds must be >= 0, got {self.slow_seconds}"
            )

    @property
    def any_faults(self) -> bool:
        """True when the plan can inject at least one fault."""
        return (
            any(getattr(self, kind) > 0 for kind in RATED_KINDS)
            or self.down is not None
            or bool(self.poison)
        )

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the CLI grammar: comma-separated ``kind:rate`` / ``key=value``.

        >>> FaultPlan.parse("crash:0.1,corrupt:0.02,seed=7").crash
        0.1
        >>> FaultPlan.parse("down=0@1x2,seed=3").down
        (0, 1, 2)
        >>> FaultPlan.parse("poison=3+7").poison
        (3, 7)
        """
        fields: dict = {}
        for token in text.split(","):
            token = token.strip()
            if not token:
                continue
            if "=" in token:
                key, _, value = token.partition("=")
                key = key.strip().lower()
                value = value.strip()
                try:
                    if key == "seed":
                        fields["seed"] = int(value)
                    elif key == "slow_seconds":
                        fields["slow_seconds"] = float(value)
                    elif key == "down":
                        fields["down"] = cls._parse_down(value)
                    elif key == "poison":
                        fields["poison"] = tuple(
                            int(p) for p in value.split("+") if p
                        )
                    else:
                        raise ResilienceError(
                            f"unknown fault-plan key {key!r}"
                        )
                except ValueError:
                    raise ResilienceError(
                        f"bad fault-plan value {token!r}"
                    ) from None
            elif ":" in token:
                kind, _, rate_text = token.partition(":")
                kind = kind.strip().lower()
                if kind not in RATED_KINDS:
                    raise ResilienceError(
                        f"unknown fault kind {kind!r}; known: "
                        + ", ".join(RATED_KINDS)
                    )
                try:
                    fields[kind] = float(rate_text)
                except ValueError:
                    raise ResilienceError(
                        f"bad fault rate in {token!r}"
                    ) from None
            else:
                raise ResilienceError(
                    f"unparseable fault-plan token {token!r} "
                    "(want kind:rate or key=value)"
                )
        return cls(**fields)

    @staticmethod
    def _parse_down(value: str) -> Tuple[int, int, int]:
        """``C@FxN`` → (member C, from call F, N calls); F and N optional."""
        child_text, _, rest = value.partition("@")
        child = int(child_text)
        if not rest:
            return (child, 0, 1)
        from_text, _, count_text = rest.partition("x")
        start = int(from_text) if from_text else 0
        count = int(count_text) if count_text else 1
        return (child, start, count)


class FaultInjector:
    """Deterministic decisions from a :class:`FaultPlan`.

    Picklable: worker processes each receive a copy whose per-``(task,
    attempt)`` decisions agree with the dispatcher's, because every
    decision hashes only the plan seed and the decision identity.  The
    per-task delivery counters used by :meth:`maybe_corrupt` live on the
    dispatcher side only.

    The instance itself is the worker-side hook: ``injector(task_id,
    attempt)`` raises or sleeps per the plan, matching the
    ``fault_injector`` contract of
    :class:`~repro.runtime.ParallelProvingRuntime`.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        #: Dispatcher-side delivery counter per task id (corrupt rolls).
        self._deliveries: Dict[int, int] = {}
        #: Dispatcher-side attempt counter per cluster member index.
        self._member_calls: Dict[int, int] = {}
        #: Faults injected by *this* process's copy, by kind.
        self.injected: Dict[str, int] = {}

    @classmethod
    def from_plan(cls, plan) -> "FaultInjector":
        """Build from a :class:`FaultPlan` or a plan string."""
        if isinstance(plan, str):
            plan = FaultPlan.parse(plan)
        return cls(plan)

    # -- deterministic dice ----------------------------------------------------

    def _roll(self, kind: str, *key) -> float:
        """A uniform [0, 1) draw, pure in (seed, kind, key)."""
        material = f"{self.plan.seed}|{kind}|" + "|".join(
            str(part) for part in key
        )
        digest = hashlib.sha256(material.encode()).digest()
        return int.from_bytes(digest[:8], "big") / 2.0**64

    def _count(self, kind: str) -> None:
        self.injected[kind] = self.injected.get(kind, 0) + 1

    # -- worker-side hook ------------------------------------------------------

    def __call__(self, task_id: int, attempt: int) -> None:
        """Pre-prove hook: raise or sleep per the plan (runs in workers)."""
        if task_id in self.plan.poison:
            self._count("poison")
            raise InjectedFault("poison", f"task {task_id} is poisoned")
        if (
            self.plan.pool_death > 0
            and self._roll("pool_death", task_id, attempt)
            < self.plan.pool_death
        ):
            self._count("pool_death")
            raise OSError(
                f"injected pool death (task {task_id}, attempt {attempt})"
            )
        if (
            self.plan.crash > 0
            and self._roll("crash", task_id, attempt) < self.plan.crash
        ):
            self._count("crash")
            raise InjectedFault(
                "crash", f"task {task_id}, attempt {attempt}"
            )
        if (
            self.plan.slow > 0
            and self._roll("slow", task_id, attempt) < self.plan.slow
        ):
            self._count("slow")
            time.sleep(self.plan.slow_seconds)

    # -- dispatcher-side hooks -------------------------------------------------

    def maybe_corrupt(self, proof, task_id: int):
        """Possibly corrupt a finished proof (one root byte flipped).

        Keyed per *delivery* of the task, not per task: the first
        delivery of task 7 may be corrupted while its re-prove comes
        back clean — exactly the transient bit-flip the
        ``verify_on_return`` path must absorb.
        """
        if self.plan.corrupt <= 0:
            return proof
        nth = self._deliveries.get(task_id, 0)
        self._deliveries[task_id] = nth + 1
        if self._roll("corrupt", task_id, nth) >= self.plan.corrupt:
            return proof
        self._count("corrupt")
        root = bytearray(proof.commitment.root)
        root[0] ^= 0xFF
        return replace(
            proof,
            commitment=replace(proof.commitment, root=bytes(root)),
        )

    def check_outage(self, member_index: int, member_name: str) -> None:
        """Pre-attempt hook for one cluster member; may raise an outage.

        Consumes one call slot for the member whether or not a fault
        fires, so the forced ``down=C@FxN`` window counts actual
        attempts.
        """
        call = self._member_calls.get(member_index, 0)
        self._member_calls[member_index] = call + 1
        down = self.plan.down
        if (
            down is not None
            and member_index == down[0]
            and down[1] <= call < down[1] + down[2]
        ):
            self._count("outage")
            raise BackendUnavailableError(
                f"injected forced outage: member {member_name} "
                f"(call {call} in down window)"
            )
        if (
            self.plan.outage > 0
            and self._roll("outage", member_index, call) < self.plan.outage
        ):
            self._count("outage")
            raise BackendUnavailableError(
                f"injected transient outage: member {member_name} "
                f"(call {call})"
            )

    def on_batch_dispatch(self, batch_seq: int) -> None:
        """Service-level hook: may fail a batch before it reaches a backend."""
        if (
            self.plan.batch > 0
            and self._roll("batch", batch_seq) < self.plan.batch
        ):
            self._count("batch")
            raise InjectedFault("batch", f"batch {batch_seq}")

    # -- introspection ---------------------------------------------------------

    def injected_snapshot(self) -> Dict[str, int]:
        """Copy of this process's per-kind injection counters."""
        return dict(self.injected)


def apply_fault_plan(
    backend, injector: FaultInjector, *, min_retries: Optional[int] = None
) -> None:
    """Attach an injector at every level of a backend tree.

    Walks the composition the selector registry builds —
    ``resilient:cluster:pool:2,pool:2`` and friends, through a
    :class:`~repro.resilience.ResilientBackend`'s ``child`` and a
    :class:`~repro.cluster.ClusterBackend`'s members — and installs the
    *same* injector instance at each hook point: worker-side faults and
    delivery corruption on the leaf backends (before their per-spec
    runtime caches are built), member outages on the cluster, and the
    fault count on the resilient wrapper.

    ``min_retries`` optionally raises each node's ``max_retries`` to at
    least that many — a chaos drill against a retry-less oracle (plain
    :class:`~repro.execution.SerialBackend`) would otherwise turn every
    transient crash into a hard failure, which is the substrate's
    *absence*, not its behavior under faults.

    Call this before the backend's first ``prove_tasks`` — pool runtimes
    are cached per spec on first use, and a runtime built without the
    injector keeps running without it.

    Raises :class:`~repro.errors.ExecutionError` when the plan schedules
    member outages (``outage:`` or ``down=``) and the tree holds no
    cluster: only a cluster's members can be down, so such a drill would
    otherwise run without injecting a single outage.
    """
    seen = set()
    clusters = []

    def walk(node) -> None:
        if id(node) in seen:
            return
        seen.add(id(node))
        if hasattr(node, "fault_injector"):
            node.fault_injector = injector
        if min_retries is not None and hasattr(node, "max_retries"):
            node.max_retries = max(node.max_retries, min_retries)
        members = getattr(node, "members", None)
        if members is not None:
            clusters.append(node)
            for member in members:
                walk(member.backend)
        inner = getattr(node, "child", None)
        if inner is not None:
            walk(inner)

    walk(backend)
    plan = injector.plan
    if (plan.outage > 0 or plan.down is not None) and not clusters:
        raise ExecutionError(
            "fault plan schedules member outages (outage:, down=) but "
            f"{getattr(backend, 'name', type(backend).__name__)} has no "
            "cluster members; use a cluster: backend"
        )
