"""S30 — the overload-resilience layer tying the service to the fleet.

The :class:`~repro.service.ProofService` (S23) admits a request stream;
:mod:`repro.cluster` (S28) proves batches across a node fleet.  This
module closes the control loop between them so the system's answer to
overload is **shed-or-scale** rather than shed-only:

* :class:`FleetActuator` wraps a :class:`~repro.cluster.NodePool` and a
  :class:`~repro.cluster.ClusterBackend` so membership changes stay
  atomic from the router's point of view: a grown node joins the hash
  ring the moment it is ready, and a shrink *removes the node from the
  ring first* (no new shards route to it), then drains it over the
  ``DRAIN`` protocol frame (in-flight proofs finish), then terminates
  the subprocess — a rolling restart that loses no work.  It satisfies
  the :class:`~repro.cluster.Autoscaler`'s duck-typed actuator seam
  (``grow_to`` / ``shrink_to`` / ``size``), so the existing scale
  discipline (grow fast, shrink patient, cooldown) drives it unchanged.

* :class:`FleetSupervisor` is the timer loop: every tick it reaps dead
  node processes out of both pool and ring, feeds the service's live
  :attr:`~repro.service.ServiceStats.arrival_rate_per_second` into
  :meth:`Autoscaler.observe`, and reflects the decision back into the
  service's degradation ladder via
  :meth:`~repro.service.ProofService.note_scaling` — so while the fleet
  is growing, rejected callers get a *short* retry-after hint instead
  of a shed.

* :func:`launch_fleet` is the one-call assembly used by ``python -m
  repro serve --fleet``: spawn nodes, build the resilient-wrapped
  cluster backend over them, and return a
  :class:`Fleet` handle that supervises services and tears everything
  down in the right order.

The degradation ladder itself (``healthy → scaling → brownout →
shedding``) lives in :mod:`repro.service.stats`; this module is what
makes the ``scaling`` rung reachable — without a supervisor the service
can only ever brown out or shed.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..cluster.autoscale import Autoscaler, LoadModel, NodePool
from ..cluster.coordinator import ClusterBackend
from ..cluster.remote import RemoteBackend
from ..errors import ClusterError, ServiceError
from ..runtime.trace import JsonlTraceSink, SpanContext
from .stats import DEGRADATION_LADDER

#: Seconds a retiring node gets to finish in-flight proofs over the
#: ``DRAIN`` frame before it is terminated anyway.
DRAIN_TIMEOUT_SECONDS = 10.0

#: Minimum gap between two scaling actions of a supervised fleet.
SCALE_COOLDOWN_SECONDS = 1.0

__all__ = [
    "DEGRADATION_LADDER",
    "Fleet",
    "FleetActuator",
    "FleetSupervisor",
    "launch_fleet",
]


class FleetActuator:
    """Pool + ring membership as one unit, with drain-then-terminate.

    The plain :class:`NodePool` knows processes; the
    :class:`ClusterBackend` knows routing.  Scaling through either alone
    desynchronizes them — a spawned node the ring never learns about is
    wasted capacity, a retired node still on the ring is a failover
    storm.  The actuator changes both together, and is what the
    :class:`Autoscaler` delegates to through its ``grow_to`` /
    ``shrink_to`` seam.
    """

    def __init__(
        self,
        pool: NodePool,
        cluster: ClusterBackend,
        *,
        trace: Optional[JsonlTraceSink] = None,
    ):
        self.pool = pool
        self.cluster = cluster
        self._ctx = SpanContext(trace, "fleet")
        self._lock = threading.Lock()
        #: address → cluster member id for nodes this actuator manages.
        self._members: Dict[str, str] = {}
        self.adopt()

    def adopt(self) -> None:
        """Learn the member ids of pool nodes already on the ring (the
        ``launch_fleet`` path, where the cluster was built from the
        pool's initial spawn)."""
        by_name = {
            member.backend.name: member.id for member in self.cluster.members
        }
        with self._lock:
            for address in self.pool.addresses:
                member_id = by_name.get(f"remote:{address}")
                if member_id is not None:
                    self._members.setdefault(address, member_id)

    @property
    def size(self) -> int:
        return self.pool.size

    def grow_to(self, target: int) -> None:
        """Spawn until ``target``; each node joins the ring when ready."""
        while self.pool.size < target:
            address = self.pool.spawn()
            host, port = address.rsplit(":", 1)
            member_id = self.cluster.add_node(RemoteBackend(host, int(port)))
            with self._lock:
                self._members[address] = member_id
            self._ctx.emit("node_join", node=member_id, reason="scale_up")

    def shrink_to(self, target: int) -> None:
        """Retire LIFO until ``target``: unroute → drain → terminate."""
        while self.pool.size > target:
            addresses = self.pool.addresses
            if not addresses:
                return
            address = addresses[-1]
            with self._lock:
                member_id = self._members.pop(address, None)
            if member_id is not None:
                self._ctx.emit(
                    "node_drain", node=member_id,
                    timeout_seconds=DRAIN_TIMEOUT_SECONDS,
                )
                self._remove_member(member_id)
            self.pool.retire(drain_timeout=DRAIN_TIMEOUT_SECONDS)
            self._ctx.emit(
                "node_leave",
                node=member_id or f"remote:{address}",
                reason="scale_down",
            )

    def reap(self) -> List[str]:
        """Drop dead node processes from pool *and* ring; returns their
        addresses.  The scaler's next grow decision replaces them."""
        dropped = self.pool.reap()
        for address in dropped:
            with self._lock:
                member_id = self._members.pop(address, None)
            if member_id is not None:
                self._remove_member(member_id)
            self._ctx.emit(
                "node_leave",
                node=member_id or f"remote:{address}",
                reason="died",
            )
        return dropped

    def _remove_member(self, member_id: str) -> None:
        try:
            self.cluster.remove_node(member_id)
        except ClusterError:
            pass  # already gone (e.g. reaped concurrently)

    def close(self) -> None:
        """Tear down every managed node: unroute, then stop the pool."""
        with self._lock:
            members, self._members = dict(self._members), {}
        for member_id in members.values():
            self._remove_member(member_id)
        self.pool.close()


class FleetSupervisor(threading.Thread):
    """The shed-or-scale timer loop over one service and one scaler.

    Each tick: reap dead nodes, read the service's live arrival rate,
    let the :class:`Autoscaler` decide (and actuate, through the
    :class:`FleetActuator`), then tell the service whether capacity is
    being added so its degradation ladder and retry-after hints reflect
    the fleet's trajectory, not just the queue's depth.

    The loop survives tick errors (a flapping node must not kill the
    control plane); they are counted and traced as ``supervisor_error``.
    """

    def __init__(
        self,
        service,
        scaler: Autoscaler,
        actuator: Optional[FleetActuator] = None,
        *,
        interval_seconds: float = 0.25,
        trace: Optional[JsonlTraceSink] = None,
    ):
        if interval_seconds <= 0:
            raise ServiceError(
                f"interval_seconds must be > 0, got {interval_seconds}"
            )
        super().__init__(name="repro-fleet-supervisor", daemon=True)
        self.service = service
        self.scaler = scaler
        self.actuator = actuator
        self.interval_seconds = interval_seconds
        self._ctx = SpanContext(trace, "supervisor")
        self._halt = threading.Event()
        self.ticks = 0
        self.errors = 0

    def tick(self) -> dict:
        """One observe-decide-actuate cycle; returns the scale decision."""
        self.ticks += 1
        reaped: List[str] = []
        if self.actuator is not None:
            reaped = self.actuator.reap()
        rate = self.service.stats.arrival_rate_per_second
        decision = self.scaler.observe(rate)
        scaling = (
            decision["action"] == "grow"
            or decision["target"] > self.scaler.current_nodes
        )
        self.service.note_scaling(scaling)
        self._ctx.emit(
            "supervisor_tick",
            rate=round(rate, 3),
            action=decision["action"],
            reason=decision["reason"],
            current=self.scaler.current_nodes,
            target=decision["target"],
            reaped=reaped,
            degradation=self.service.degradation_state,
        )
        return decision

    def run(self) -> None:
        while not self._halt.wait(self.interval_seconds):
            try:
                self.tick()
            except Exception as exc:  # noqa: BLE001 - control plane survives
                self.errors += 1
                self._ctx.emit("supervisor_error", error=repr(exc)[:200])

    def stop(self, timeout: Optional[float] = 10.0) -> None:
        """Halt the loop and clear the service's scaling hint."""
        self._halt.set()
        if self.is_alive():
            self.join(timeout)
        try:
            self.service.note_scaling(False)
        except Exception:
            pass


@dataclass
class Fleet:
    """Everything :func:`launch_fleet` built, with ordered teardown."""

    pool: NodePool
    cluster: ClusterBackend
    actuator: FleetActuator
    #: What to hand the service: the cluster, resilient-wrapped.
    backend: object
    trace: Optional[JsonlTraceSink] = None
    _supervisors: List[FleetSupervisor] = field(default_factory=list)

    def supervise(
        self,
        service,
        model: LoadModel,
        *,
        min_nodes: int = 1,
        max_nodes: int = 4,
        interval_seconds: float = 0.25,
        shrink_patience: int = 3,
    ) -> FleetSupervisor:
        """Attach and start a shed-or-scale supervisor for ``service``."""
        scaler = Autoscaler(
            model,
            self.actuator,
            min_nodes=min_nodes,
            max_nodes=max_nodes,
            cooldown_seconds=SCALE_COOLDOWN_SECONDS,
            shrink_patience=shrink_patience,
            trace=self.trace,
        )
        supervisor = FleetSupervisor(
            service, scaler, self.actuator,
            interval_seconds=interval_seconds, trace=self.trace,
        )
        self._supervisors.append(supervisor)
        supervisor.start()
        return supervisor

    def close(self) -> None:
        """Stop supervisors, close routing, then stop the node fleet."""
        for supervisor in self._supervisors:
            supervisor.stop()
        self._supervisors.clear()
        try:
            self.cluster.close()
        except Exception:
            pass
        self.actuator.close()

    def __enter__(self) -> "Fleet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def launch_fleet(
    node_backend: str = "serial",
    *,
    initial_nodes: int = 1,
    trace: Optional[JsonlTraceSink] = None,
) -> Fleet:
    """Spawn a local node fleet and return its :class:`Fleet` handle.

    ``node_backend`` is each node's *inner* selector (``serial``,
    ``pool:2``, …).  The cluster is wrapped in a
    :class:`~repro.resilience.ResilientBackend`, the composition the
    chaos drill serves through: breaker-level failover inside the
    cluster, quarantine and retry discipline outside it.
    """
    from ..resilience import ResilientBackend

    pool = NodePool(backend=node_backend)
    try:
        while pool.size < max(1, initial_nodes):
            pool.spawn()
        cluster = ClusterBackend(pool.backends())
    except Exception:
        pool.close()
        raise
    return Fleet(
        pool=pool,
        cluster=cluster,
        actuator=FleetActuator(pool, cluster, trace=trace),
        backend=ResilientBackend(cluster),
        trace=trace,
    )
