"""Cluster-layer tests (S28): wire protocol, ring routing, node/remote
parity, coordinator failover, chaos drills, and the autoscaler."""

import json
import pickle
import socket
import sys
import threading
import time

import pytest

from repro.cluster import (
    Autoscaler,
    ClusterBackend,
    HashRing,
    LoadModel,
    NodePool,
    NodeServer,
    RemoteBackend,
)
from repro.cluster import coordinator, protocol
from repro.cluster.autoscale import target_node_count
from repro.core import ProofTask, SnarkProver, make_pcs, random_circuit
from repro.core.serialize import serialize_proof
from repro.errors import (
    BackendUnavailableError,
    ClusterError,
    ExecutionError,
    NodeConnectionError,
    ProtocolMismatchError,
)
from repro.execution import SerialBackend, resolve_backend
from repro.field import DEFAULT_FIELD
from repro.kernels.profile import proof_cost_seconds
from repro.runtime import JsonlTraceSink, ProverSpec

F = DEFAULT_FIELD


@pytest.fixture(scope="module")
def setup():
    cc = random_circuit(F, 48, seed=3)
    pcs = make_pcs(F, cc.r1cs, num_col_checks=4)
    prover = SnarkProver(cc.r1cs, pcs, public_indices=cc.public_indices)
    spec = ProverSpec.from_prover(prover)
    tasks = [ProofTask(i, cc.witness, cc.public_values) for i in range(16)]
    return spec, tasks


@pytest.fixture(scope="module")
def serial_wire(setup):
    spec, tasks = setup
    proofs, _ = SerialBackend().prove_tasks(spec, tasks)
    return [serialize_proof(p, F) for p in proofs]


def _wire(proofs):
    return [serialize_proof(p, F) for p in proofs]


# -- consistent-hash ring ------------------------------------------------------


def _keys(count):
    return [f"circuit-{i}".encode() for i in range(count)]


@pytest.mark.parametrize("n_nodes", [2, 4, 8, 16])
def test_ring_distribution_is_roughly_uniform(n_nodes):
    ring = HashRing([f"node{i}" for i in range(n_nodes)])
    keys = _keys(4000)
    counts = {}
    for key in keys:
        owner = ring.node_for(key)
        counts[owner] = counts.get(owner, 0) + 1
    assert len(counts) == n_nodes  # every node owns some arc
    expected = len(keys) / n_nodes
    for node, count in counts.items():
        # 64 virtual points per node keep arcs within a small factor of
        # fair share; the bound is loose but catches a broken placement
        # (all keys on one node, or a node with no arc at all).
        assert 0.4 * expected <= count <= 2.0 * expected, (node, count)


def test_ring_is_deterministic_and_distinct():
    a = HashRing(["x", "y", "z"])
    b = HashRing(["x", "y", "z"])
    for key in _keys(64):
        assert a.node_for(key) == b.node_for(key)
        succession = a.nodes_for(key, 3)
        assert len(set(succession)) == 3
        assert succession[0] == a.node_for(key)


@pytest.mark.parametrize("n_nodes", [2, 4, 8])
def test_ring_join_moves_at_most_one_share(n_nodes):
    keys = _keys(3000)
    ring = HashRing([f"node{i}" for i in range(n_nodes)])
    before = {key: ring.node_for(key) for key in keys}
    ring.add("joiner")
    moved = [key for key in keys if ring.node_for(key) != before[key]]
    # Only keys in the joiner's new arcs may move, and they move to it.
    assert all(ring.node_for(key) == "joiner" for key in moved)
    assert len(moved) <= 1.5 * len(keys) / (n_nodes + 1)


def test_ring_leave_moves_only_the_leavers_keys():
    keys = _keys(3000)
    ring = HashRing(["a", "b", "c", "d"])
    before = {key: ring.node_for(key) for key in keys}
    ring.remove("c")
    for key in keys:
        after = ring.node_for(key)
        if before[key] == "c":
            assert after != "c"
        else:
            assert after == before[key]  # untouched arcs never reshuffle


def test_ring_membership_errors():
    ring = HashRing(["a"])
    with pytest.raises(ClusterError):
        ring.add("a")
    with pytest.raises(ClusterError):
        ring.remove("ghost")
    ring.remove("a")
    with pytest.raises(ClusterError):
        ring.node_for(b"key")
    with pytest.raises(ClusterError):
        HashRing(replicas=0)


# -- wire protocol -------------------------------------------------------------


def test_frame_roundtrip():
    left, right = socket.socketpair()
    try:
        protocol.send_frame(left, protocol.STATS_OK, {"proofs_total": 7})
        kind, payload = protocol.recv_frame(right)
        assert kind == protocol.STATS_OK
        assert payload == {"proofs_total": 7}
    finally:
        left.close()
        right.close()


def test_frame_rejects_foreign_magic_before_unpickling():
    left, right = socket.socketpair()
    try:
        left.sendall(protocol.HEADER.pack(b"HTTP", 1, protocol.HELLO, 4))
        left.sendall(b"\x00" * 4)
        with pytest.raises(ProtocolMismatchError, match="magic"):
            protocol.recv_frame(right)
    finally:
        left.close()
        right.close()


def test_frame_rejects_future_protocol_revision():
    left, right = socket.socketpair()
    try:
        body = pickle.dumps({})
        left.sendall(protocol.HEADER.pack(
            protocol.MAGIC, protocol.PROTOCOL_VERSION + 1,
            protocol.HELLO, len(body),
        ) + body)
        with pytest.raises(ProtocolMismatchError) as excinfo:
            protocol.recv_frame(right)
        assert excinfo.value.ours == str(protocol.PROTOCOL_VERSION)
        assert excinfo.value.theirs == str(protocol.PROTOCOL_VERSION + 1)
    finally:
        left.close()
        right.close()


def test_frame_rejects_unknown_kind_and_nondict_payload():
    left, right = socket.socketpair()
    try:
        body = pickle.dumps({})
        left.sendall(protocol.HEADER.pack(
            protocol.MAGIC, protocol.PROTOCOL_VERSION, 99, len(body)) + body)
        with pytest.raises(ProtocolMismatchError, match="kind"):
            protocol.recv_frame(right)
    finally:
        left.close()
        right.close()
    left, right = socket.socketpair()  # a failed frame poisons the stream
    try:
        body = pickle.dumps([1, 2])
        left.sendall(protocol.HEADER.pack(
            protocol.MAGIC, protocol.PROTOCOL_VERSION,
            protocol.STATS, len(body)) + body)
        with pytest.raises(ClusterError, match="dict"):
            protocol.recv_frame(right)
    finally:
        left.close()
        right.close()


def test_truncated_frame_is_a_connection_error():
    left, right = socket.socketpair()
    try:
        left.sendall(protocol.HEADER.pack(
            protocol.MAGIC, protocol.PROTOCOL_VERSION, protocol.STATS, 100))
        left.sendall(b"short")
        left.close()
        with pytest.raises(NodeConnectionError, match="closed"):
            protocol.recv_frame(right)
    finally:
        right.close()


def test_library_version_gate():
    protocol.check_version({"version": protocol.LIBRARY_VERSION}, "HELLO")
    with pytest.raises(ProtocolMismatchError) as excinfo:
        protocol.check_version({"version": "0.0.0"}, "HELLO")
    assert excinfo.value.ours == protocol.LIBRARY_VERSION
    assert excinfo.value.theirs == "0.0.0"


# -- selector registry ---------------------------------------------------------


def test_remote_selector_parses_lazily():
    backend = resolve_backend("remote:127.0.0.1:19999")
    assert isinstance(backend, RemoteBackend)
    assert backend.name == "remote:127.0.0.1:19999"
    with pytest.raises(ExecutionError):
        resolve_backend("remote:no-port")
    with pytest.raises(ExecutionError):
        resolve_backend("remote:")


def test_cluster_selector_validation():
    with pytest.raises(ExecutionError, match="comma-separated"):
        resolve_backend("cluster:")
    with pytest.raises(ExecutionError, match="empty node"):
        resolve_backend("cluster:remote:h:1,,remote:h:2")
    with pytest.raises(ExecutionError, match="nested"):
        resolve_backend("cluster:cluster:remote:h:1")


def test_unreachable_remote_is_unavailable(setup):
    spec, tasks = setup
    backend = resolve_backend("remote:127.0.0.1:1")  # reserved port
    with pytest.raises(BackendUnavailableError):
        backend.prove_tasks(spec, tasks[:1])


# -- node server + remote backend ----------------------------------------------


@pytest.fixture()
def node():
    server = NodeServer(backend="serial").start()
    yield server
    server.close()


def test_remote_matches_serial_bytes(node, setup, serial_wire):
    spec, tasks = setup
    backend = RemoteBackend(node.host, node.port)
    try:
        proofs, stats = backend.prove_tasks(spec, tasks)
        assert _wire(proofs) == serial_wire
        assert stats.proofs_generated == len(tasks)
        assert stats.workers == 1
    finally:
        backend.close()


def test_node_stats_gauges(node, setup):
    spec, tasks = setup
    backend = RemoteBackend(node.host, node.port)
    try:
        backend.prove_tasks(spec, tasks)
        backend.prove_tasks(spec, tasks)
        stats = backend.fetch_stats()
    finally:
        backend.close()
    assert stats["proofs_total"] == 2 * len(tasks)
    assert stats["batches_total"] == 2
    assert stats["circuits_resident"] == 1
    affinity = stats["spec_affinity"]
    # First batch: one miss, 15 hits; second: all 16 hit.
    assert affinity["misses"] == 1
    assert affinity["hits"] == 2 * len(tasks) - 1
    assert affinity["hit_rate"] > 0.9
    for gauge in ("spec_cache", "encoder_cache"):
        assert {"hits", "misses"} <= set(stats[gauge])


def test_node_streams_chunked_results(setup, serial_wire):
    spec, tasks = setup
    server = NodeServer(backend="serial", chunk_size=3).start()
    backend = RemoteBackend(server.host, server.port)
    try:
        proofs, _ = backend.prove_tasks(spec, tasks)
        assert _wire(proofs) == serial_wire
    finally:
        backend.close()
        server.close()


def test_node_rejects_skewed_library_version(node):
    sock = socket.create_connection((node.host, node.port), timeout=5)
    try:
        protocol.send_frame(
            sock, protocol.HELLO,
            {"version": "0.0.0", "role": "coordinator"},
        )
        kind, payload = protocol.recv_frame(sock)
        assert kind == protocol.ERROR
        assert payload["mismatch"]
        assert "0.0.0" in payload["message"]
    finally:
        sock.close()


def test_node_rejects_digest_spec_drift(node, setup):
    spec, tasks = setup
    sock = socket.create_connection((node.host, node.port), timeout=5)
    try:
        protocol.send_frame(
            sock, protocol.HELLO, protocol.hello_payload("coordinator"))
        kind, _ = protocol.recv_frame(sock)
        assert kind == protocol.HELLO
        protocol.send_frame(sock, protocol.PROVE, {
            "version": protocol.LIBRARY_VERSION,
            "request": 1,
            "digest": "00" * 32,  # not this spec's digest
            "spec": spec,
            "tasks": tasks[:1],
            "chunk": None,
        })
        kind, payload = protocol.recv_frame(sock)
        assert kind == protocol.ERROR
        assert payload["mismatch"]
        assert "digest" in payload["message"]
    finally:
        sock.close()


# -- cluster coordinator -------------------------------------------------------


def test_cluster_matches_serial_bytes_across_three_nodes(setup, serial_wire):
    spec, tasks = setup
    nodes = [NodeServer(backend="serial").start() for _ in range(3)]
    selector = "cluster:" + ",".join(
        f"remote:{n.host}:{n.port}" for n in nodes
    )
    backend = resolve_backend(selector)
    try:
        proofs, stats = backend.prove_tasks(spec, tasks)
        assert _wire(proofs) == serial_wire
        assert stats.proofs_generated == len(tasks)
        assert stats.workers == 3  # one serial worker per node
    finally:
        backend.close()
        for server in nodes:
            server.close()


def test_cluster_cache_affinity_above_ninety_percent(setup):
    """Ring routing keeps ≥90% of tasks on nodes already holding their
    circuit, even with one batch spread across three nodes."""
    spec, tasks = setup
    nodes = [NodeServer(backend="serial").start() for _ in range(3)]
    backend = ClusterBackend([
        RemoteBackend(n.host, n.port) for n in nodes
    ])
    try:
        for _ in range(3):
            backend.prove_tasks(spec, tasks)
        stats = backend.cluster_stats()
        affinity = stats["cache_affinity"]
        looked_up = affinity["hits"] + affinity["misses"]
        assert looked_up == 3 * len(tasks)
        assert affinity["misses"] <= 3  # at most one cold miss per node
        assert affinity["hit_rate"] >= 0.9
        assert stats["ring_nodes"] == 3
    finally:
        backend.close()
        for server in nodes:
            server.close()


def test_cluster_routes_same_circuit_to_same_nodes(setup):
    spec, _ = setup
    backend = ClusterBackend([SerialBackend() for _ in range(4)])
    digest = spec.r1cs.digest()
    order = backend._affinity_order(digest)
    assert order == backend._affinity_order(digest)
    assert sorted(order) == sorted(m.id for m in backend.members)


class _DeadChild:
    """A child that is down: every dispatch is a blameless outage."""

    name = "dead"
    parallelism = 1

    def __init__(self):
        self.calls = 0

    def prove_tasks(self, spec, tasks, *, trace=None, parent=None):
        self.calls += 1
        raise BackendUnavailableError("injected outage")


def test_cluster_fails_over_and_emits_rebalance(
    tmp_path, setup, serial_wire, monkeypatch
):
    spec, tasks = setup
    dead = _DeadChild()
    # The dead child's breaker stays open for the whole test.
    monkeypatch.setattr(coordinator, "BREAKER_COOLDOWN_SECONDS", 30.0)
    backend = ClusterBackend([SerialBackend(), dead, SerialBackend()])
    trace_path = tmp_path / "cluster.jsonl"
    sink = JsonlTraceSink(str(trace_path))
    proofs, _ = backend.prove_tasks(spec, tasks, trace=sink)
    sink.close()
    assert _wire(proofs) == serial_wire  # bytes survive the failover
    events = [json.loads(line) for line in trace_path.read_text().splitlines()]
    names = [e["event"] for e in events]
    assert "node_failure" in names
    assert "ring_rebalance" in names
    leave = next(e for e in names if e == "node_leave")
    assert leave  # breaker opened -> fleet membership event
    assert all("node" in e for e in events if e["event"] == "node_leave")
    # Second batch: the open breaker skips the dead child entirely.
    calls_before = dead.calls
    proofs, _ = backend.prove_tasks(spec, tasks)
    assert _wire(proofs) == serial_wire
    assert dead.calls == calls_before


def test_cluster_with_all_nodes_down_fails_typed(setup, monkeypatch):
    spec, tasks = setup
    monkeypatch.setattr(coordinator, "BREAKER_COOLDOWN_SECONDS", 60.0)
    monkeypatch.setattr(coordinator, "MAX_UNAVAILABLE_SECONDS", 0.2)
    backend = ClusterBackend([_DeadChild(), _DeadChild()])
    with pytest.raises(BackendUnavailableError, match="no admissible node"):
        backend.prove_tasks(spec, tasks)


class _SlowMember:
    """An in-process member that records how many calls overlap on it."""

    parallelism = 1

    def __init__(self, name):
        self.name = name
        self.inner = SerialBackend()
        self.active = 0
        self.peak = 0
        self._lock = threading.Lock()

    def prove_tasks(self, spec, tasks, *, trace=None, parent=None):
        with self._lock:
            self.active += 1
            self.peak = max(self.peak, self.active)
        try:
            time.sleep(0.05)
            return self.inner.prove_tasks(
                spec, tasks, trace=trace, parent=parent
            )
        finally:
            with self._lock:
                self.active -= 1


def test_members_run_one_call_at_a_time(setup, serial_wire):
    """Every shard is overdue for a hedge at once, but a hedge goes only
    to an idle member, so no in-process member is ever entered twice —
    not by a hedge, and not by the next batch while a hedge loser runs.
    More members than cores and a short switch interval stress the
    claim."""
    spec, tasks = setup
    members = [_SlowMember(f"slow-{i}") for i in range(4)]
    backend = ClusterBackend(
        members, min_hedge_delay_seconds=0.001,
        hedge_budget_per_second=100.0, hedge_budget_burst=100.0,
    )
    for _ in range(8):
        backend._latency.record(0.0001)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            proofs, _ = backend.prove_tasks(spec, tasks)
            assert _wire(proofs) == serial_wire
    finally:
        sys.setswitchinterval(interval)
    assert backend.hedges_issued >= 1
    assert [m.peak for m in members] == [1, 1, 1, 1]


def test_cluster_membership_changes(setup, serial_wire):
    spec, tasks = setup
    backend = ClusterBackend([SerialBackend()])
    member = backend.add_node(SerialBackend())
    assert len(backend.ring) == 2
    proofs, _ = backend.prove_tasks(spec, tasks)
    assert _wire(proofs) == serial_wire
    backend.remove_node(member)
    assert len(backend.ring) == 1
    with pytest.raises(ClusterError):
        backend.remove_node(member)
    proofs, _ = backend.prove_tasks(spec, tasks)
    assert _wire(proofs) == serial_wire


def test_resilient_cluster_chaos_drill_subprocess(setup, serial_wire):
    """The ISSUE's chaos drill: a real node process killed mid-batch;
    `resilient:cluster:` recovers byte-identical proofs."""
    spec, tasks = setup
    pool = NodePool(backend="serial")
    try:
        pool.spawn(extra_args=("--die-after", "3"))
        pool.spawn()
        backend = resolve_backend("resilient:" + pool.cluster_selector())
        proofs, _ = backend.prove_tasks(spec, tasks)
        assert _wire(proofs) == serial_wire
        assert pool.reap()  # the chaos node actually died
    finally:
        pool.close()


# -- load model + autoscaler ---------------------------------------------------


def test_proof_cost_seconds_accounting():
    stages = {
        "commit": 0.5, "encode": 0.1, "merkle": 0.2,
        "sumcheck1": 0.3, "sumcheck2": 0.1, "open": 0.05,
    }
    # merkle + encode + sumchecks + commit residue (0.2) + open
    assert proof_cost_seconds(stages) == pytest.approx(0.95)
    assert proof_cost_seconds({}) == 0.0


def test_target_node_count_math_and_bounds():
    assert target_node_count(0.0, 1.0, 1) == 1  # floor
    assert target_node_count(8.0, 0.5, 2, headroom=0.8) == 3
    assert target_node_count(100.0, 1.0, 1, max_nodes=4) == 4  # ceiling
    with pytest.raises(ValueError):
        target_node_count(1.0, 1.0, 0)
    with pytest.raises(ValueError):
        target_node_count(1.0, 1.0, 1, headroom=0.0)


def test_load_model_from_stage_profile():
    model = LoadModel.from_stage_profile(
        {"merkle": 0.1, "sumcheck1": 0.1}, node_parallelism=2
    )
    assert model.per_proof_seconds == pytest.approx(0.2)
    assert model.target_nodes(16.0) == 2
    assert model.utilization(10.0, 1) == pytest.approx(1.0)
    with pytest.raises(ClusterError):
        LoadModel.from_stage_profile({})


def test_autoscaler_grows_fast_and_shrinks_patiently():
    clock = lambda: clock.now  # noqa: E731 - injected test clock
    clock.now = 0.0
    model = LoadModel(per_proof_seconds=0.25, node_parallelism=1)
    scaler = Autoscaler(
        model, None, min_nodes=1, max_nodes=4,
        cooldown_seconds=10.0, shrink_patience=2, clock=clock,
    )
    assert scaler.observe(1.0)["action"] == "hold"
    decision = scaler.observe(10.0)  # demand spike: grow immediately
    assert decision["action"] == "grow"
    assert scaler.current_nodes == decision["target"] > 1
    clock.now += 11.0
    assert scaler.observe(1.0)["reason"].startswith("patience")
    assert scaler.current_nodes > 1  # one low reading is not enough
    decision = scaler.observe(1.0)
    assert decision["action"] == "shrink"
    assert scaler.current_nodes == 1


def test_autoscaler_respects_cooldown():
    clock = lambda: clock.now  # noqa: E731
    clock.now = 0.0
    model = LoadModel(per_proof_seconds=0.25, node_parallelism=1)
    scaler = Autoscaler(
        model, None, min_nodes=1, max_nodes=8,
        cooldown_seconds=10.0, shrink_patience=1, clock=clock,
    )
    assert scaler.observe(10.0)["action"] == "grow"
    assert scaler.observe(20.0)["reason"] == "cooldown"  # too soon
    clock.now += 11.0
    assert scaler.observe(20.0)["action"] == "grow"


def test_autoscaler_emits_scale_decisions(tmp_path):
    trace_path = tmp_path / "scale.jsonl"
    sink = JsonlTraceSink(str(trace_path))
    model = LoadModel(per_proof_seconds=0.25, node_parallelism=1)
    scaler = Autoscaler(
        model, None, min_nodes=1, max_nodes=4,
        cooldown_seconds=0.0, shrink_patience=1, trace=sink,
    )
    scaler.observe(10.0)
    scaler.observe(1.0)
    sink.close()
    events = [json.loads(line) for line in trace_path.read_text().splitlines()]
    decisions = [e for e in events if e["event"] == "scale_decision"]
    assert len(decisions) == 2
    assert decisions[0]["action"] == "grow"
    assert all("node" in e for e in decisions)


def test_node_pool_empty_selector_errors():
    pool = NodePool()
    with pytest.raises(ClusterError):
        pool.cluster_selector()
    assert pool.retire() is None
    assert pool.size == 0
