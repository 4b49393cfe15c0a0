"""Fleet-serving tests (S30): degradation ladder, retry-after hints,
bounded drain, the DRAIN protocol frame, hedged dispatch, the
pool+ring actuator, the supervisor loop, and the shed-or-scale chaos
drill from the ISSUE's acceptance criteria."""

import hashlib
import json
import subprocess
import sys
import threading
import time

import pytest

from repro.cluster import autoscale, coordinator
from repro.cluster import (
    Autoscaler,
    ClusterBackend,
    LatencyTracker,
    LoadModel,
    NodePool,
    NodeServer,
    RemoteBackend,
    TokenBucket,
    drain_address,
)
from repro.core import ProofTask, SnarkProver, make_pcs, random_circuit
from repro.core.serialize import serialize_proof
from repro.errors import AdmissionError, BackendUnavailableError, ServiceError
from repro.execution import SerialBackend
from repro.field import DEFAULT_FIELD
from repro.runtime import JsonlTraceSink, ProverSpec
from repro.service import (
    DEGRADATION_LADDER,
    BatchPolicy,
    FleetActuator,
    FleetSupervisor,
    Priority,
    ProofService,
    RuntimeProofBackend,
    ServiceStats,
    launch_fleet,
    spec_key,
)

F = DEFAULT_FIELD


@pytest.fixture(scope="module")
def setup():
    cc = random_circuit(F, 48, seed=6)
    pcs = make_pcs(F, cc.r1cs, num_col_checks=4)
    prover = SnarkProver(cc.r1cs, pcs, public_indices=cc.public_indices)
    spec = ProverSpec.from_prover(prover)
    tasks = [ProofTask(i, cc.witness, cc.public_values) for i in range(16)]
    return cc, spec, tasks


@pytest.fixture(scope="module")
def serial_wire(setup):
    _, spec, tasks = setup
    proofs, _ = SerialBackend().prove_tasks(spec, tasks)
    return [serialize_proof(p, F) for p in proofs]


def _wire(proofs):
    return [serialize_proof(p, F) for p in proofs]


def _wkey(i):
    return hashlib.sha256(f"fleet-req-{i}".encode()).digest()


class GatedBackend:
    """Holds the first prove_batch until released (drain-race tests)."""

    def __init__(self, inner):
        self.inner = inner
        self.release = threading.Event()
        self.entered = threading.Event()
        self._first = True

    def prove_batch(self, circuit_key, requests):
        if self._first:
            self._first = False
            self.entered.set()
            self.release.wait(timeout=30)
        return self.inner.prove_batch(circuit_key, requests)


# -- hedging primitives --------------------------------------------------------


class TestHedgingPrimitives:
    def test_token_bucket_burst_then_refill(self):
        now = [0.0]
        bucket = TokenBucket(2.0, 3.0, clock=lambda: now[0])
        assert [bucket.try_acquire() for _ in range(3)] == [True] * 3
        assert not bucket.try_acquire()  # burst exhausted, no time passed
        now[0] += 1.0  # refills 2 tokens
        assert bucket.try_acquire()
        assert bucket.try_acquire()
        assert not bucket.try_acquire()
        assert bucket.granted == 5 and bucket.denied == 2

    def test_token_bucket_caps_at_burst(self):
        now = [0.0]
        bucket = TokenBucket(100.0, 2.0, clock=lambda: now[0])
        now[0] += 60.0
        assert bucket.available == pytest.approx(2.0)

    def test_zero_budget_always_denies(self):
        bucket = TokenBucket(0.0, 0.0)
        assert not bucket.try_acquire()

    def test_latency_tracker_holds_off_until_min_samples(self):
        tracker = LatencyTracker(window=8, min_samples=4)
        for s in (0.01, 0.02, 0.03):
            tracker.record(s)
        assert tracker.percentile(95) is None
        tracker.record(0.04)
        assert tracker.percentile(95) is not None
        assert len(tracker) == 4

    def test_latency_tracker_window_slides(self):
        tracker = LatencyTracker(window=4, min_samples=2)
        for s in (10.0, 10.0, 0.01, 0.01, 0.01, 0.01):
            tracker.record(s)
        # The slow outliers fell out of the 4-sample window.
        assert tracker.percentile(95) == pytest.approx(0.01)


# -- degradation ladder & retry-after hints ------------------------------------


class TestDegradationLadder:
    def test_ladder_order_and_unknown_state(self):
        assert DEGRADATION_LADDER == (
            "healthy", "scaling", "brownout", "shedding"
        )
        stats = ServiceStats()
        assert stats.degradation_state == "healthy"
        assert stats.record_degradation("brownout") == "healthy"
        assert stats.record_degradation("brownout") is None  # no transition
        with pytest.raises(ValueError):
            stats.record_degradation("on_fire")
        assert stats.degradation_transitions == [("healthy", "brownout")]

    def test_note_scaling_moves_healthy_to_scaling(self, setup):
        _, spec, _ = setup
        backend = RuntimeProofBackend({spec_key(spec): spec})
        svc = ProofService(backend, max_queue=8, start=False)
        assert svc.degradation_state == "healthy"
        svc.note_scaling(True)
        assert svc.degradation_state == "scaling"
        svc.note_scaling(False)
        assert svc.degradation_state == "healthy"
        svc.close()

    def test_retry_after_scales_with_rung(self, setup):
        """The hint's unit is the last batch's wall time: hold one batch
        in the backend for a known time and read the hints back."""
        cc, spec, _ = setup
        key = spec_key(spec)
        gated = GatedBackend(RuntimeProofBackend({key: spec}))
        hold = 0.1
        with ProofService(gated, max_queue=8) as svc:
            ticket = svc.submit(
                ProofTask(0, cc.witness, cc.public_values), circuit_key=key
            )
            assert gated.entered.wait(timeout=10)
            time.sleep(hold)
            gated.release.set()
            ticket.result(timeout=30)
            hints = [svc.retry_after_hint(s) for s in DEGRADATION_LADDER]
        assert hints == sorted(hints)  # deeper rung => longer backoff
        assert hints[0] >= hold
        assert hints[-1] == pytest.approx(8 * hints[0])

    def test_queue_full_rejection_carries_retry_after(self, setup):
        cc, spec, _ = setup
        key = spec_key(spec)
        gated = GatedBackend(RuntimeProofBackend({key: spec}))
        policy = BatchPolicy(max_batch_size=1)
        svc = ProofService(gated, policy=policy, max_queue=2)
        try:
            task = ProofTask(0, cc.witness, cc.public_values)
            svc.submit(
                task, circuit_key=key, witness_key=_wkey(0),
                priority=Priority.INTERACTIVE,
            )
            assert gated.entered.wait(timeout=10)  # first batch in flight
            for i in range(1, 3):
                svc.submit(
                    task, circuit_key=key, witness_key=_wkey(i),
                    priority=Priority.INTERACTIVE,
                )
            with pytest.raises(AdmissionError) as excinfo:
                svc.submit(
                    task, circuit_key=key, witness_key=_wkey(99),
                    priority=Priority.INTERACTIVE,
                )
            err = excinfo.value
            assert err.reason == "queue_full"
            assert err.retry_after_seconds is not None
            assert err.retry_after_seconds > 0
            assert "retry after" in str(err)
            assert svc.degradation_state == "shedding"
            assert svc.stats.retry_hints["queue_full"] == pytest.approx(
                err.retry_after_seconds
            )
            # The dashboard surfaces the hint alongside the rejection.
            report = svc.stats.report()
            assert "queue_full" in report and "retry after" in report
            assert "degradation" in report
        finally:
            gated.release.set()
            svc.close()

    def test_brownout_rung_while_bulk_shedding(self, setup):
        cc, spec, _ = setup
        key = spec_key(spec)
        gated = GatedBackend(RuntimeProofBackend({key: spec}))
        policy = BatchPolicy(max_batch_size=1)
        svc = ProofService(gated, policy=policy, max_queue=4)  # high 3
        try:
            task = ProofTask(0, cc.witness, cc.public_values)
            svc.submit(
                task, circuit_key=key, witness_key=_wkey(0),
                priority=Priority.INTERACTIVE,
            )
            assert gated.entered.wait(timeout=10)
            for i in range(1, 4):
                svc.submit(
                    task, circuit_key=key, witness_key=_wkey(i),
                    priority=Priority.INTERACTIVE,
                )
            with pytest.raises(AdmissionError) as excinfo:
                svc.submit(
                    task, circuit_key=key, witness_key=_wkey(50),
                    priority=Priority.BULK,
                )
            assert excinfo.value.reason == "bulk_shed"
            assert excinfo.value.retry_after_seconds is not None
            assert svc.degradation_state == "brownout"
        finally:
            gated.release.set()
            svc.close()

    def test_admission_error_attr_default_none(self):
        err = AdmissionError("queue_full")
        assert err.retry_after_seconds is None
        hinted = AdmissionError("bulk_shed", retry_after_seconds=0.25)
        assert "0.25s" in str(hinted)


# -- bounded drain on close ----------------------------------------------------


class TestBoundedDrain:
    def test_drain_timeout_fails_only_undispatched(self, setup, tmp_path):
        """An in-flight batch resolves normally; only still-queued
        requests fail, and the drain_timeout event names exactly them."""
        cc, spec, _ = setup
        key = spec_key(spec)
        path = str(tmp_path / "drain.jsonl")
        gated = GatedBackend(RuntimeProofBackend({key: spec}))
        policy = BatchPolicy(max_batch_size=1)
        task = ProofTask(0, cc.witness, cc.public_values)
        with JsonlTraceSink(path) as sink:
            svc = ProofService(gated, policy=policy, max_queue=8, trace=sink)
            in_flight = svc.submit(task, circuit_key=key, witness_key=_wkey(0))
            assert gated.entered.wait(timeout=10)
            queued = svc.submit(task, circuit_key=key, witness_key=_wkey(1))

            released = threading.Timer(0.5, gated.release.set)
            released.start()
            try:
                svc.close(drain=True, timeout=0.1)
            finally:
                released.cancel()
                gated.release.set()

            assert in_flight.result(timeout=30) is not None
            assert in_flight.source == "proved"
            with pytest.raises(ServiceError, match="drain timed out"):
                queued.result(timeout=10)
        events = [json.loads(line) for line in open(path)]
        drains = [e for e in events if e["event"] == "drain_timeout"]
        assert len(drains) == 1
        assert drains[0]["request_ids"] == [queued.request_id]
        assert drains[0]["failed"] == 1

    def test_unbounded_drain_close_flushes_everything(self, setup):
        cc, spec, _ = setup
        key = spec_key(spec)
        backend = RuntimeProofBackend({key: spec})
        svc = ProofService(backend, max_queue=16)
        task = ProofTask(0, cc.witness, cc.public_values)
        tickets = [
            svc.submit(task, circuit_key=key, witness_key=_wkey(i))
            for i in range(4)
        ]
        svc.close(drain=True)
        assert all(t.result(timeout=30) is not None for t in tickets)


# -- DRAIN protocol frame ------------------------------------------------------


class _SlowBackend:
    """Serial backend that sleeps first — keeps a PROVE in flight."""

    def __init__(self, delay=0.3):
        self.inner = SerialBackend()
        self.delay = delay
        self.name = "slow:serial"
        self.parallelism = 1

    def prove_tasks(self, spec, tasks, *, trace=None, parent=None):
        time.sleep(self.delay)
        return self.inner.prove_tasks(spec, tasks, trace=trace, parent=parent)


class TestDrainProtocol:
    def test_drain_idle_node_then_prove_refused(self, setup):
        _, spec, tasks = setup
        server = NodeServer(backend="serial").start()
        client = RemoteBackend(server.host, server.port)
        try:
            reply = client.drain(timeout=5.0)
            assert reply["drained"] is True
            assert reply["in_flight"] == 0
            assert server.stats()["draining"] is True
            with pytest.raises(BackendUnavailableError, match="draining"):
                RemoteBackend(server.host, server.port).prove_tasks(
                    spec, tasks[:2]
                )
        finally:
            client.close()
            server.close()

    def test_drain_waits_for_in_flight_batch(self, setup, serial_wire):
        _, spec, tasks = setup
        server = NodeServer(backend=_SlowBackend(delay=0.4)).start()
        prover_client = RemoteBackend(server.host, server.port)
        box = {}

        def prove():
            box["proofs"] = prover_client.prove_tasks(spec, tasks)[0]

        worker = threading.Thread(target=prove, daemon=True)
        try:
            worker.start()
            time.sleep(0.1)  # let the PROVE land on the node
            reply = drain_address(
                f"{server.host}:{server.port}", timeout=10.0
            )
            assert reply["drained"] is True
            worker.join(timeout=30)
            # Drain waited: the in-flight batch finished, byte-identical.
            assert _wire(box["proofs"]) == serial_wire
        finally:
            prover_client.close()
            server.close()

    def test_drain_timeout_reports_not_drained(self, setup):
        _, spec, tasks = setup
        server = NodeServer(backend=_SlowBackend(delay=1.0)).start()
        prover_client = RemoteBackend(server.host, server.port)
        try:
            worker = threading.Thread(
                target=lambda: prover_client.prove_tasks(spec, tasks),
                daemon=True,
            )
            worker.start()
            time.sleep(0.1)
            reply = drain_address(
                f"{server.host}:{server.port}", timeout=0.05
            )
            assert reply["drained"] is False
            assert reply["in_flight"] >= 1
            worker.join(timeout=30)
        finally:
            prover_client.close()
            server.close()


# -- NodePool termination escalation -------------------------------------------


def test_node_pool_close_escalates_past_sigterm_ignorer(monkeypatch):
    """A child ignoring SIGTERM must not wedge close(): the shared
    deadline expires and the pool escalates to SIGKILL."""
    monkeypatch.setattr(autoscale, "NODE_TERMINATE_TIMEOUT_SECONDS", 0.5)
    pool = NodePool()
    stubborn = subprocess.Popen([
        sys.executable, "-c",
        "import signal, time; "
        "signal.signal(signal.SIGTERM, signal.SIG_IGN); "
        "time.sleep(60)",
    ])
    pool._procs.append(stubborn)
    pool._addresses.append("127.0.0.1:0")
    start = time.monotonic()
    pool.close()
    elapsed = time.monotonic() - start
    assert stubborn.poll() is not None  # killed, not still sleeping
    assert elapsed < 5.0  # bounded by the terminate timeout, not the sleep
    assert pool.size == 0


# -- hedged dispatch -----------------------------------------------------------


class _StallingBackend:
    """In-process member that always stalls — slow, never dead."""

    def __init__(self, delay=0.8):
        self.inner = SerialBackend()
        self.delay = delay
        self.calls = 0
        self.name = "stall:serial"
        self.parallelism = 1

    def prove_tasks(self, spec, tasks, *, trace=None, parent=None):
        self.calls += 1
        time.sleep(self.delay)
        return self.inner.prove_tasks(spec, tasks, trace=trace, parent=parent)

    def close(self):
        pass


def _seed_latency(cluster, seconds=0.01, count=8):
    for _ in range(count):
        cluster._latency.record(seconds)


class TestHedgedDispatch:
    def test_hedge_rescues_stalled_shard_byte_identical(
        self, setup, serial_wire
    ):
        _, spec, tasks = setup
        cluster = ClusterBackend(
            [SerialBackend(), _StallingBackend(delay=0.8)],
            min_hedge_delay_seconds=0.02,
            hedge_budget_per_second=32.0,
            hedge_budget_burst=8.0,
        )
        _seed_latency(cluster)
        assert cluster.hedge_delay() is not None
        start = time.monotonic()
        proofs, _ = cluster.prove_tasks(spec, tasks)
        elapsed = time.monotonic() - start
        assert _wire(proofs) == serial_wire
        assert cluster.hedges_issued >= 1
        assert cluster.hedges_won >= 1
        # The batch returned on the hedge, not the 0.8s stall.
        assert elapsed < 0.8
        stats = cluster.cluster_stats()["hedging"]
        assert stats["enabled"] is True
        assert stats["won"] == cluster.hedges_won

    def test_exhausted_budget_denies_hedge_but_completes(
        self, setup, serial_wire
    ):
        _, spec, tasks = setup
        stall = _StallingBackend(delay=0.4)
        cluster = ClusterBackend(
            [SerialBackend(), stall],
            min_hedge_delay_seconds=0.02,
            hedge_budget_per_second=0.0,
            hedge_budget_burst=0.0,
        )
        _seed_latency(cluster)
        proofs, _ = cluster.prove_tasks(spec, tasks)
        assert _wire(proofs) == serial_wire
        assert cluster.hedges_issued == 0
        assert cluster.hedges_denied >= 1

    def test_hedge_disabled_never_issues(self, setup, serial_wire):
        _, spec, tasks = setup
        cluster = ClusterBackend(
            [SerialBackend(), SerialBackend()], hedge=False
        )
        _seed_latency(cluster)
        assert cluster.hedge_delay() is None
        proofs, _ = cluster.prove_tasks(spec, tasks)
        assert _wire(proofs) == serial_wire
        assert cluster.hedges_issued == 0

    def test_single_member_never_hedges(self, setup, serial_wire):
        _, spec, tasks = setup
        cluster = ClusterBackend(
            [SerialBackend()], min_hedge_delay_seconds=0.0
        )
        _seed_latency(cluster)
        proofs, _ = cluster.prove_tasks(spec, tasks)
        assert _wire(proofs) == serial_wire
        assert cluster.hedges_issued == 0


# -- the actuator: pool + ring as one unit -------------------------------------


class ServerPool:
    """In-process NodePool stand-in: real NodeServers, no subprocesses."""

    def __init__(self):
        self._servers = []

    def spawn(self, extra_args=()):
        server = NodeServer(backend="serial").start()
        self._servers.append(server)
        return f"{server.host}:{server.port}"

    @property
    def size(self):
        return len(self._servers)

    @property
    def addresses(self):
        return [f"{s.host}:{s.port}" for s in self._servers]

    def retire(self, *, drain_timeout=None):
        if not self._servers:
            return None
        server = self._servers.pop()
        address = f"{server.host}:{server.port}"
        if drain_timeout is not None:
            drain_address(address, timeout=drain_timeout)
        server.close()
        return address

    def reap(self):
        return []

    def backends(self):
        return [RemoteBackend(s.host, s.port) for s in self._servers]

    def close(self):
        while self._servers:
            self._servers.pop().close()


class TestFleetActuator:
    def test_grow_and_shrink_keep_pool_and_ring_in_lockstep(
        self, setup, serial_wire
    ):
        _, spec, tasks = setup
        pool = ServerPool()
        pool.spawn()
        cluster = ClusterBackend(pool.backends())
        actuator = FleetActuator(pool, cluster)
        try:
            assert actuator.size == 1
            assert len(actuator._members) == 1  # adopt() mapped the seed node

            actuator.grow_to(3)
            assert pool.size == 3
            assert len(cluster.members) == 3
            proofs, _ = cluster.prove_tasks(spec, tasks)
            assert _wire(proofs) == serial_wire

            actuator.shrink_to(1)  # unroute -> DRAIN -> close, LIFO
            assert pool.size == 1
            assert len(cluster.members) == 1
            proofs, _ = cluster.prove_tasks(spec, tasks)
            assert _wire(proofs) == serial_wire
        finally:
            actuator.close()
        assert pool.size == 0

    def test_autoscaler_delegates_to_actuator_seam(self, setup):
        _, spec, _ = setup
        pool = ServerPool()
        pool.spawn()
        cluster = ClusterBackend(pool.backends())
        actuator = FleetActuator(pool, cluster)
        scaler = Autoscaler(
            LoadModel(per_proof_seconds=1.0, node_parallelism=1),
            actuator,
            min_nodes=1,
            max_nodes=3,
            cooldown_seconds=0.0,
            shrink_patience=1,
        )
        try:
            decision = scaler.observe(2.0)  # needs ceil(2/0.8) = 3 nodes
            assert decision["action"] == "grow"
            assert pool.size == 3 and len(cluster.members) == 3
            decision = scaler.observe(0.0)
            assert decision["action"] == "shrink"
            assert pool.size == 1 and len(cluster.members) == 1
        finally:
            actuator.close()


# -- the supervisor loop -------------------------------------------------------


class TestFleetSupervisor:
    def test_bad_interval_rejected(self, setup):
        _, spec, _ = setup
        backend = RuntimeProofBackend({spec_key(spec): spec})
        svc = ProofService(backend, max_queue=8, start=False)
        scaler = Autoscaler(LoadModel(per_proof_seconds=0.1))
        with pytest.raises(ServiceError, match="interval_seconds"):
            FleetSupervisor(svc, scaler, interval_seconds=0.0)
        svc.close()

    def test_tick_feeds_rate_and_reflects_scaling(self, setup):
        """A grow decision flips the service to the scaling rung; the
        next at-target tick flips it back to healthy."""
        cc, spec, _ = setup
        key = spec_key(spec)
        backend = RuntimeProofBackend({key: spec})
        svc = ProofService(backend, max_queue=64)
        scaler = Autoscaler(
            LoadModel(per_proof_seconds=0.5, node_parallelism=1),
            min_nodes=1,
            max_nodes=3,
            cooldown_seconds=0.0,
        )
        supervisor = FleetSupervisor(svc, scaler, interval_seconds=0.05)
        try:
            task = ProofTask(0, cc.witness, cc.public_values)
            for i in range(3):  # microseconds apart => huge arrival rate
                svc.submit(task, circuit_key=key, witness_key=_wkey(i))
            decision = supervisor.tick()
            assert decision["action"] == "grow"
            assert svc.degradation_state == "scaling"
            decision = supervisor.tick()  # dry-run fleet now at target
            assert decision["action"] == "hold"
            assert svc.degradation_state == "healthy"
            assert supervisor.ticks == 2
        finally:
            supervisor.stop()
            svc.close()

    def test_loop_survives_tick_errors(self, setup):
        _, spec, _ = setup
        backend = RuntimeProofBackend({spec_key(spec): spec})
        svc = ProofService(backend, max_queue=8)

        class ExplodingScaler:
            current_nodes = 1

            def observe(self, rate):
                raise RuntimeError("actuator on fire")

        supervisor = FleetSupervisor(
            svc, ExplodingScaler(), interval_seconds=0.02
        )
        try:
            supervisor.start()
            deadline = time.monotonic() + 5.0
            while supervisor.errors < 2 and time.monotonic() < deadline:
                time.sleep(0.02)
            assert supervisor.errors >= 2  # kept ticking through failures
            assert supervisor.is_alive()
        finally:
            supervisor.stop()
            svc.close()


# -- launch_fleet ------------------------------------------------------------


def test_launch_fleet_end_to_end(setup, serial_wire):
    _, spec, tasks = setup
    with launch_fleet("serial", initial_nodes=1) as fleet:
        assert fleet.pool.size == 1
        proofs, _ = fleet.backend.prove_tasks(spec, tasks)
        assert _wire(proofs) == serial_wire
    assert fleet.pool.size == 0  # close() tore the node down


def test_prediction_backend_resolves_selector_once():
    from repro.zkml.service import _PredictionBackend

    bridged = _PredictionBackend(None, "serial")
    assert isinstance(bridged.backend, SerialBackend)
    assert isinstance(_PredictionBackend(None).backend, SerialBackend)


# -- the chaos drill (ISSUE acceptance) ----------------------------------------


def test_shed_or_scale_chaos_drill(setup, serial_wire, monkeypatch):
    """Poisson-ish load over `resilient:cluster:` of real node
    subprocesses; one node hard-exits mid-stream while the supervisor
    scales back up.  Every admitted ticket must resolve byte-identical
    to serial and the fleet must recover to its floor."""
    from repro.resilience import ResilientBackend

    cc, spec, tasks = setup
    key = spec_key(spec)
    pool = NodePool(backend="serial")
    supervisor = None
    service = None
    try:
        pool.spawn(extra_args=("--die-after", "4"))
        pool.spawn()
        monkeypatch.setattr(coordinator, "BREAKER_COOLDOWN_SECONDS", 0.05)
        cluster = ClusterBackend(pool.backends())
        actuator = FleetActuator(pool, cluster)
        assert len(actuator._members) == 2
        backend = RuntimeProofBackend(
            {key: spec}, backend=ResilientBackend(cluster)
        )
        service = ProofService(
            backend,
            policy=BatchPolicy(max_batch_size=4),
            max_queue=256,
        )
        scaler = Autoscaler(
            LoadModel(per_proof_seconds=0.05, node_parallelism=1),
            actuator,
            min_nodes=2,  # the floor forces a dead node's replacement
            max_nodes=3,
            cooldown_seconds=0.0,
            shrink_patience=1000,  # never shrink during the drill
        )
        supervisor = FleetSupervisor(
            service, scaler, actuator, interval_seconds=0.1
        )
        supervisor.start()

        tickets = []
        for i, task in enumerate(tasks):
            tickets.append(service.submit(
                task, circuit_key=key, witness_key=_wkey(i),
                priority=Priority.INTERACTIVE,
            ))
            time.sleep(0.02)  # stream, so the chaos node dies mid-flight

        # 100% of admitted tickets complete, byte-identical to serial.
        proofs = [t.result(timeout=120) for t in tickets]
        assert _wire(proofs) == serial_wire

        # The supervisor reaped the dead node and grew back to at least
        # the floor (demand may carry it to max_nodes — that is the
        # "scale" half of shed-or-scale, not a leak).
        deadline = time.monotonic() + 30.0
        while pool.size < 2 and time.monotonic() < deadline:
            time.sleep(0.1)
        assert 2 <= pool.size <= 3
        assert len(cluster.members) == pool.size
        assert service.stats.failed == 0
    finally:
        if supervisor is not None:
            supervisor.stop()
        if service is not None:
            service.close()
        pool.close()
