"""Load-model autoscaling: size the fleet from measured costs and demand.

The paper sizes its pipeline from measured per-module costs; the
autoscaler applies the same discipline to fleet capacity.  Demand is
``arrival_rate × per-proof cost`` busy-seconds per second — the arrival
rate comes from live :class:`~repro.service.ServiceStats` and the
per-proof cost from a measured stage profile via
:func:`~repro.kernels.profile.proof_cost_seconds` — and supply is
``nodes × parallelism × headroom``.  :class:`LoadModel` turns that
division into a target node count; :class:`Autoscaler` adds the control
discipline (scale-up immediately, scale-down only after
``shrink_patience`` consecutive low readings, both behind a cooldown) so
a bursty arrival process does not flap the fleet; :class:`NodePool`
supplies the actuator — local ``python -m repro node`` subprocesses,
spawned on ephemeral ports and retired LIFO.

Every decision is observable: ``scale_decision`` events (and the
``node_join`` / ``node_leave`` each spawn/retire implies) ride the same
span schema as the rest of the runtime, each stamped with a ``node``
field, so one JSONL trace shows a latency spike, the scale-up it
triggered, and the rebalance that followed.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Mapping, Optional, Sequence

from ..errors import ClusterError
from ..kernels.profile import proof_cost_seconds
from ..runtime.trace import JsonlTraceSink, SpanContext
from .remote import RemoteBackend


def target_node_count(
    arrival_rate: float,
    per_proof_seconds: float,
    node_parallelism: int,
    *,
    headroom: float = 0.8,
    min_nodes: int = 1,
    max_nodes: int = 16,
) -> int:
    """Nodes needed to absorb ``arrival_rate`` proofs/second.

    Demand is ``arrival_rate × per_proof_seconds`` busy-seconds per
    second; one node supplies ``node_parallelism`` of them, derated by
    ``headroom`` (running a queue at 100% utilization has unbounded
    latency — the derate keeps ρ ≤ headroom).  The result is clamped to
    ``[min_nodes, max_nodes]``.

    >>> target_node_count(8.0, 0.5, 2, headroom=0.8)
    3
    """
    if per_proof_seconds < 0 or arrival_rate < 0:
        raise ValueError("rates and costs must be non-negative")
    if node_parallelism < 1:
        raise ValueError(f"node_parallelism must be >= 1, got {node_parallelism}")
    if not 0.0 < headroom <= 1.0:
        raise ValueError(f"headroom must be in (0, 1], got {headroom}")
    if min_nodes < 0 or max_nodes < min_nodes:
        raise ValueError(
            f"bad bounds: min_nodes={min_nodes}, max_nodes={max_nodes}"
        )
    demand = arrival_rate * per_proof_seconds
    capacity_per_node = node_parallelism * headroom
    needed = math.ceil(demand / capacity_per_node) if demand > 0 else 0
    return max(min_nodes, min(max_nodes, needed))


@dataclass(frozen=True)
class LoadModel:
    """Capacity arithmetic for one circuit's proving workload.

    Args:
        per_proof_seconds: Busy CPU-seconds one proof costs (from a
            measured stage profile, or a bench's throughput inverse).
        node_parallelism:  Concurrent proofs one node sustains (its
            backend's ``parallelism``).

    The target utilization ceiling is
    :func:`target_node_count`'s ``headroom`` (0.8), the
    derate that keeps queueing latency finite.
    """

    per_proof_seconds: float
    node_parallelism: int = 1

    def __post_init__(self) -> None:
        if self.per_proof_seconds <= 0:
            raise ClusterError(
                f"per_proof_seconds must be > 0, got {self.per_proof_seconds}"
            )
        if self.node_parallelism < 1:
            raise ClusterError(
                f"node_parallelism must be >= 1, got {self.node_parallelism}"
            )

    @classmethod
    def from_stage_profile(
        cls,
        stage_seconds: Mapping[str, float],
        *,
        node_parallelism: int = 1,
    ) -> "LoadModel":
        """Calibrate from a measured per-proof stage profile (the
        ``stages`` payload of a ``stage_timing`` trace event, or a
        :class:`~repro.kernels.StageProfile`'s totals)."""
        cost = proof_cost_seconds(stage_seconds)
        if cost <= 0:
            raise ClusterError(
                "stage profile has no measured time to calibrate from"
            )
        return cls(per_proof_seconds=cost, node_parallelism=node_parallelism)

    def target_nodes(
        self, arrival_rate: float, *, min_nodes: int = 1, max_nodes: int = 16
    ) -> int:
        """Nodes needed for ``arrival_rate`` proofs/second (clamped)."""
        return target_node_count(
            arrival_rate,
            self.per_proof_seconds,
            self.node_parallelism,
            min_nodes=min_nodes,
            max_nodes=max_nodes,
        )

    def utilization(self, arrival_rate: float, nodes: int) -> float:
        """Fleet utilization ρ at ``nodes`` (1.0 = saturated, >1 = over)."""
        if nodes < 1:
            return float("inf") if arrival_rate > 0 else 0.0
        return (
            arrival_rate * self.per_proof_seconds
            / (nodes * self.node_parallelism)
        )


#: Where :class:`NodePool` children listen: the pool spawns *local*
#: subprocesses, so they bind the loopback interface.
NODE_HOST = "127.0.0.1"

#: Seconds a spawned node gets to print its ``READY`` line.
NODE_READY_TIMEOUT_SECONDS = 30.0

#: Seconds a child gets to exit after SIGTERM before SIGKILL.
NODE_TERMINATE_TIMEOUT_SECONDS = 5.0


class NodePool:
    """Local node subprocesses: the autoscaler's actuator.

    Each :meth:`spawn` launches ``python -m repro node --listen
    host:0 --backend <selector>`` on an ephemeral port, waits for the
    child's ``READY host port`` line, and records its address; nodes
    retire LIFO so long-lived members (with the hottest caches) survive
    a scale-down.  The pool propagates ``PYTHONPATH`` so children import
    the same ``repro`` build that spawned them — the wire protocol's
    library-version gate would reject anything else.
    """

    def __init__(self, backend: str = "serial"):
        self.backend = backend
        self._procs: List[subprocess.Popen] = []
        self._addresses: List[str] = []
        self._lock = threading.Lock()

    # -- lifecycle -------------------------------------------------------------

    def _child_env(self) -> dict:
        env = dict(os.environ)
        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(
            sys.modules["repro"].__file__)))
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src_dir + os.pathsep + existing if existing else src_dir
        )
        return env

    @staticmethod
    def _await_ready(proc: subprocess.Popen, timeout: float) -> str:
        """Block (bounded) for the child's ``READY host port`` line."""
        box: List[str] = []

        def read() -> None:
            line = proc.stdout.readline()
            box.append(line.decode("utf-8", "replace").strip())

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        reader.join(timeout)
        if not box or not box[0].startswith("READY "):
            proc.kill()
            got = box[0] if box else "<no output>"
            raise ClusterError(
                f"node did not come up within {timeout:.0f}s (got {got!r})"
            )
        _, host, port = box[0].split()
        return f"{host}:{port}"

    def spawn(self, extra_args: Sequence[str] = ()) -> str:
        """Launch one node; returns its ``host:port`` address."""
        cmd = [
            sys.executable, "-u", "-m", "repro", "node",
            "--listen", f"{NODE_HOST}:0",
            "--backend", self.backend,
            *extra_args,
        ]
        proc = subprocess.Popen(
            cmd,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=self._child_env(),
        )
        address = self._await_ready(proc, NODE_READY_TIMEOUT_SECONDS)
        with self._lock:
            self._procs.append(proc)
            self._addresses.append(address)
        return address

    def _stop(self, proc: subprocess.Popen) -> None:
        """SIGTERM, bounded wait, then SIGKILL — no child wedges a retire."""
        proc.terminate()
        try:
            proc.wait(timeout=NODE_TERMINATE_TIMEOUT_SECONDS)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()

    def retire(self, *, drain_timeout: Optional[float] = None) -> Optional[str]:
        """Stop the youngest node; returns its address (None if empty).

        With ``drain_timeout`` the node is first asked to ``DRAIN`` —
        stop accepting batches, finish in-flight work — over a dedicated
        connection, and only then terminated, so a scale-down never
        discards a proof that was already being computed.  Drain
        failures (the node is already dead, or too wedged to answer) are
        swallowed: the escalation path still guarantees termination.
        """
        with self._lock:
            if not self._procs:
                return None
            proc = self._procs.pop()
            address = self._addresses.pop()
        if drain_timeout is not None and proc.poll() is None:
            try:
                drain_address(address, timeout=drain_timeout)
            except Exception:
                pass
        self._stop(proc)
        return address

    def scale_to(self, count: int) -> List[str]:
        """Spawn or retire until ``count`` nodes run; returns addresses."""
        if count < 0:
            raise ClusterError(f"count must be >= 0, got {count}")
        while self.size < count:
            self.spawn()
        while self.size > count:
            self.retire()
        return self.addresses

    def reap(self) -> List[str]:
        """Drop nodes whose process already exited (e.g. a chaos drill
        ``--die-after`` exit); returns the dropped addresses."""
        dropped = []
        with self._lock:
            alive = [
                (proc, addr)
                for proc, addr in zip(self._procs, self._addresses)
                if proc.poll() is None
            ]
            dropped = [
                addr
                for proc, addr in zip(self._procs, self._addresses)
                if proc.poll() is not None
            ]
            self._procs = [proc for proc, _ in alive]
            self._addresses = [addr for _, addr in alive]
        return dropped

    def close(self) -> None:
        """Stop every node (idempotent), escalating to SIGKILL.

        All children are terminated *concurrently* against one shared
        :data:`NODE_TERMINATE_TIMEOUT_SECONDS` deadline; any child still
        alive at the deadline — a node ignoring SIGTERM mid-syscall, a
        wedged interpreter — is killed.  One hung subprocess can
        therefore delay shutdown by at most that many seconds total,
        not per node.
        """
        with self._lock:
            procs, self._procs = self._procs, []
            self._addresses = []
        for proc in procs:
            if proc.poll() is None:
                proc.terminate()
        deadline = time.monotonic() + NODE_TERMINATE_TIMEOUT_SECONDS
        for proc in procs:
            try:
                proc.wait(timeout=max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()

    def __enter__(self) -> "NodePool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- addressing ------------------------------------------------------------

    @property
    def size(self) -> int:
        with self._lock:
            return len(self._procs)

    @property
    def addresses(self) -> List[str]:
        with self._lock:
            return list(self._addresses)

    @property
    def selectors(self) -> List[str]:
        """``remote:host:port`` selector per live node."""
        return [f"remote:{address}" for address in self.addresses]

    def cluster_selector(self) -> str:
        """The ``cluster:...`` selector covering the whole pool."""
        selectors = self.selectors
        if not selectors:
            raise ClusterError("the pool has no nodes to route to")
        return "cluster:" + ",".join(selectors)

    def backends(self) -> List[RemoteBackend]:
        """Fresh :class:`RemoteBackend` clients, one per live node."""
        clients = []
        for address in self.addresses:
            host, port = address.rsplit(":", 1)
            clients.append(RemoteBackend(host, int(port)))
        return clients


class Autoscaler:
    """The control loop: observe demand, decide, actuate, trace.

    Scale-*up* reacts immediately (an under-provisioned fleet queues
    unboundedly); scale-*down* waits for ``shrink_patience`` consecutive
    low readings (a retired node throws its warm caches away, so the
    evidence bar is higher).  Both directions respect
    ``cooldown_seconds`` between actuations.

    Args:
        model:            The :class:`LoadModel` doing the arithmetic.
        pool:             Optional actuator.  A plain :class:`NodePool`
            is spawned/retired directly; any object exposing
            ``grow_to(target)`` / ``shrink_to(target)`` / ``size`` (the
            :class:`~repro.service.fleet.FleetActuator`, which also
            keeps the coordinator's ring in sync and drains before
            terminating) is delegated to instead.  Without one the
            autoscaler is a pure decision engine (dry-run mode —
            the CLI's ``autoscale`` verb and the planner tests).
        min_nodes/max_nodes: Fleet size clamp.
        cooldown_seconds: Minimum spacing between scale actions.
        shrink_patience:  Consecutive below-target readings required
            before the fleet shrinks.
        trace:            Optional JSONL sink for scale events.
        clock:            Injected monotonic clock (tests).
    """

    def __init__(
        self,
        model: LoadModel,
        pool: Optional[NodePool] = None,
        *,
        min_nodes: int = 1,
        max_nodes: int = 4,
        cooldown_seconds: float = 5.0,
        shrink_patience: int = 3,
        trace: Optional[JsonlTraceSink] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if shrink_patience < 1:
            raise ClusterError(
                f"shrink_patience must be >= 1, got {shrink_patience}"
            )
        if min_nodes < 0 or max_nodes < max(1, min_nodes):
            raise ClusterError(
                f"bad bounds: min_nodes={min_nodes}, max_nodes={max_nodes}"
            )
        self.model = model
        self.pool = pool
        self.min_nodes = min_nodes
        self.max_nodes = max_nodes
        self.cooldown_seconds = cooldown_seconds
        self.shrink_patience = shrink_patience
        self._clock = clock
        self._ctx = SpanContext(trace, "autoscaler")
        self._last_action_at: Optional[float] = None
        self._low_streak = 0
        #: Dry-run fleet size when no pool is attached.
        self._virtual_size = min_nodes
        #: Every decision dict, in order (the planner tests read this).
        self.decisions: List[dict] = []

    @property
    def current_nodes(self) -> int:
        return self.pool.size if self.pool is not None else self._virtual_size

    def _in_cooldown(self, now: float) -> bool:
        return (
            self._last_action_at is not None
            and now - self._last_action_at < self.cooldown_seconds
        )

    def observe(self, arrival_rate: float) -> dict:
        """Feed one demand reading; decide, actuate, and report.

        Returns the decision record: ``target``/``current`` sizes, the
        ``action`` taken (``"grow"``, ``"shrink"``, ``"hold"``), and why
        a differing target was held (cooldown or patience).
        """
        if arrival_rate < 0:
            raise ClusterError(f"arrival_rate must be >= 0, got {arrival_rate}")
        now = self._clock()
        current = self.current_nodes
        target = self.model.target_nodes(
            arrival_rate, min_nodes=self.min_nodes, max_nodes=self.max_nodes
        )
        action = "hold"
        reason = "at_target"
        if target > current:
            self._low_streak = 0
            if self._in_cooldown(now):
                reason = "cooldown"
            else:
                action = "grow"
                reason = "demand"
        elif target < current:
            self._low_streak += 1
            if self._low_streak < self.shrink_patience:
                reason = f"patience {self._low_streak}/{self.shrink_patience}"
            elif self._in_cooldown(now):
                reason = "cooldown"
            else:
                action = "shrink"
                reason = "sustained_low_demand"
        else:
            self._low_streak = 0
        decision = {
            "arrival_rate": arrival_rate,
            "per_proof_seconds": self.model.per_proof_seconds,
            "utilization": self.model.utilization(arrival_rate, current),
            "current": current,
            "target": target,
            "action": action,
            "reason": reason,
        }
        self._ctx.emit("scale_decision", node="", **decision)
        if action != "hold":
            self._actuate(target, action)
            self._last_action_at = now
            self._low_streak = 0
        self.decisions.append(decision)
        if self._ctx.sink is not None:
            self._ctx.sink.flush()
        return decision

    def _actuate(self, target: int, action: str) -> None:
        if self.pool is None:
            self._virtual_size = target
            return
        # Duck-typed actuator seam: a FleetActuator grows the pool *and*
        # the coordinator's ring together, and shrinks through
        # drain-then-terminate; it emits its own node events.
        grow_to = getattr(self.pool, "grow_to", None)
        shrink_to = getattr(self.pool, "shrink_to", None)
        if callable(grow_to) and callable(shrink_to):
            if action == "grow":
                grow_to(target)
            else:
                shrink_to(target)
            return
        if action == "grow":
            while self.pool.size < target:
                address = self.pool.spawn()
                self._ctx.emit(
                    "node_join", node=f"remote:{address}", reason="scale_up"
                )
                self._ctx.emit(
                    "ring_rebalance", node=f"remote:{address}",
                    nodes=self.pool.size,
                )
        else:
            while self.pool.size > target:
                address = self.pool.retire()
                self._ctx.emit(
                    "node_leave", node=f"remote:{address}",
                    reason="scale_down",
                )
                self._ctx.emit(
                    "ring_rebalance", node=f"remote:{address}",
                    nodes=self.pool.size,
                )


def drain_address(address: str, timeout: float = 10.0) -> dict:
    """Drain the node at ``host:port`` over a dedicated connection.

    A fresh client matters: the coordinator's persistent connection may
    be mid-batch, and drain must not queue behind a long prove.  The
    socket timeout is the drain timeout plus margin, so a node that
    needs the full window to quiesce still gets to acknowledge.
    """
    host, port = address.rsplit(":", 1)
    client = RemoteBackend(
        host, int(port),
        connect_timeout=min(5.0, timeout + 1.0),
        io_timeout=timeout + 5.0,
    )
    try:
        return client.drain(timeout)
    finally:
        client.close()
