"""Execution-layer tests (S24): backend parity, registry, sharding over
a cluster, entry-point routing, and correlated trace replay."""

import io
import json

import pytest

from repro.core import (
    BatchProver,
    ProofTask,
    SnarkProver,
    make_pcs,
    random_circuit,
    verify_all,
)
from repro.cluster import ClusterBackend
from repro.core.serialize import serialize_proof
from repro.errors import ExecutionError
from repro.execution import (
    PoolBackend,
    ProvingBackend,
    SerialBackend,
    available_backends,
    format_lineage,
    largest_remainder_shares,
    lineage_of,
    load_trace,
    request_lineage,
    resolve_backend,
    span_index,
    stage_breakdown_of,
)
from repro.field import DEFAULT_FIELD
from repro.kernels import exclusive_stage_seconds
from repro.resilience import FaultInjector, FaultPlan, apply_fault_plan
from repro.runtime import JsonlTraceSink, ProverSpec, SpanContext, use_span

F = DEFAULT_FIELD


@pytest.fixture(scope="module")
def setup():
    cc = random_circuit(F, 48, seed=3)
    pcs = make_pcs(F, cc.r1cs, num_col_checks=4)
    prover = SnarkProver(cc.r1cs, pcs, public_indices=cc.public_indices)
    spec = ProverSpec.from_prover(prover)
    tasks = [ProofTask(i, cc.witness, cc.public_values) for i in range(6)]
    return prover, spec, tasks


@pytest.fixture(scope="module")
def serial_run(setup):
    _, spec, tasks = setup
    return SerialBackend().prove_tasks(spec, tasks)


def _wire(proofs):
    return [serialize_proof(p, F) for p in proofs]


# -- sharding arithmetic -------------------------------------------------------

class TestLargestRemainderShares:
    def test_shares_sum_to_total(self):
        for total in (1, 7, 64, 1000):
            shares = largest_remainder_shares(total, [3.0, 1.0, 2.0])
            assert sum(shares) == total

    def test_proportionality_bound(self):
        """No share is more than one above its exact proportion."""
        weights = [5.0, 2.0, 3.0]
        total = 97
        shares = largest_remainder_shares(total, weights)
        wsum = sum(weights)
        for share, w in zip(shares, weights):
            assert share <= total * w / wsum + 1

    def test_zero_weights_fall_back_to_even_split(self):
        assert largest_remainder_shares(10, [0.0, 0.0, 0.0]) == [4, 3, 3]

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ExecutionError):
            largest_remainder_shares(-1, [1.0])
        with pytest.raises(ExecutionError):
            largest_remainder_shares(5, [])
        with pytest.raises(ExecutionError):
            largest_remainder_shares(5, [1.0, -2.0])


# -- registry ------------------------------------------------------------------

class TestRegistry:
    def test_stock_heads_registered(self):
        assert {"serial", "pool", "cluster"} <= set(available_backends())
        assert "sharded" not in available_backends()

    def test_selector_parsing(self):
        assert resolve_backend("serial").name == "serial"
        assert resolve_backend("pool:3").parallelism == 3
        cluster = resolve_backend("cluster:pool:2,serial")
        assert cluster.name == "cluster:pool:2,serial"
        assert cluster.parallelism == 3
        assert [type(m.backend) for m in cluster.members] == [
            PoolBackend, SerialBackend,
        ]

    def test_instances_pass_through(self):
        backend = SerialBackend()
        assert resolve_backend(backend) is backend

    def test_backends_satisfy_protocol(self):
        for selector in ("serial", "pool:2", "cluster:serial,serial"):
            assert isinstance(resolve_backend(selector), ProvingBackend)

    def test_unknown_selector_lists_names_and_suggests(self):
        """Regression: the unknown-selector error must enumerate every
        registered head and offer a did-you-mean for a near miss."""
        with pytest.raises(ExecutionError) as excinfo:
            resolve_backend("warp:4")
        message = str(excinfo.value)
        for head in available_backends():
            assert head in message
        with pytest.raises(ExecutionError, match="did you mean 'serial'"):
            resolve_backend("serail")
        with pytest.raises(ExecutionError, match="did you mean 'cluster'"):
            resolve_backend("clustre:remote:h:1")

    def test_bad_selectors_raise_typed_errors(self):
        for bad in (
            "", "warp", "serial:3", "pool:many", "sharded:serial,serial",
            "cluster:", "cluster:pool:2,,serial", "cluster:cluster:serial",
        ):
            with pytest.raises(ExecutionError):
                resolve_backend(bad)
        with pytest.raises(ExecutionError):
            resolve_backend(42)


# -- parity (the satellite acceptance property) --------------------------------

class TestBackendParity:
    def test_pool_proofs_byte_identical_to_serial(self, setup, serial_run):
        _, spec, tasks = setup
        serial_proofs, _ = serial_run
        pool_proofs, stats = PoolBackend(2).prove_tasks(spec, tasks)
        assert _wire(pool_proofs) == _wire(serial_proofs)
        assert stats.workers == 2

    def test_sharded_proofs_byte_identical_to_serial(self, setup, serial_run):
        _, spec, tasks = setup
        serial_proofs, _ = serial_run
        cluster = resolve_backend("cluster:pool:2,serial")
        sharded_proofs, stats = cluster.prove_tasks(spec, tasks)
        assert _wire(sharded_proofs) == _wire(serial_proofs)
        # Merged report covers every task and both members' workers.
        assert len(stats.records) == len(tasks)
        assert stats.workers == 3

    def test_all_backends_verify(self, setup):
        _, spec, tasks = setup
        verifier = spec.build_verifier()
        for selector in ("serial", "pool:2", "cluster:serial,serial"):
            proofs, _ = resolve_backend(selector).prove_tasks(spec, tasks)
            assert verify_all(verifier, proofs, tasks)

    def test_sharded_preserves_task_order(self, setup):
        _, spec, tasks = setup
        cluster = ClusterBackend([SerialBackend(), SerialBackend()])
        _, stats = cluster.prove_tasks(spec, tasks)
        assert sorted(r.task_id for r in stats.records) == [
            t.task_id for t in tasks
        ]

    def test_empty_batch(self, setup):
        _, spec, _ = setup
        for selector in ("serial", "cluster:serial,serial"):
            proofs, stats = resolve_backend(selector).prove_tasks(spec, [])
            assert proofs == []
            assert stats.records == []


# -- entry-point routing -------------------------------------------------------

class TestEntryPoints:
    def test_batch_prover_accepts_backend_selector(self, setup, serial_run):
        prover, _, tasks = setup
        serial_proofs, _ = serial_run
        batch = BatchProver(prover, backend="cluster:serial,serial")
        proofs, stats = batch.prove_all(tasks)
        assert _wire(proofs) == _wire(serial_proofs)
        assert stats.proofs_generated == len(tasks)
        assert batch.last_runtime_stats is not None
        assert batch.last_runtime_stats.workers == 2

    def test_batch_prover_per_call_backend_override(self, setup, serial_run):
        prover, _, tasks = setup
        serial_proofs, _ = serial_run
        batch = BatchProver(prover)
        proofs, _ = batch.prove_all(tasks, backend="serial")
        assert _wire(proofs) == _wire(serial_proofs)

    def test_runtime_proof_backend_accepts_selector(self, setup):
        from repro.service import RuntimeProofBackend, spec_key
        from repro.service.request import Priority, ProofRequest

        _, spec, tasks = setup
        backend = RuntimeProofBackend.from_specs(
            [spec], backend="cluster:serial,serial"
        )
        key = spec_key(spec)
        requests = [
            ProofRequest(
                request_id=100 + i, payload=task, circuit_key=key,
                witness_key=None, priority=Priority.BULK,
                submitted_at=0.0, deadline=None,
            )
            for i, task in enumerate(tasks[:3])
        ]
        proofs = backend.prove_batch(key, requests)
        verifier = backend.verifier_for(key)
        assert all(
            verifier.verify(p, t.public_values)
            for p, t in zip(proofs, tasks)
        )
        # Tasks were renumbered to request ids for trace correlation.
        assert sorted(
            r.task_id for r in backend.last_runtime_stats.records
        ) == [100, 101, 102]


# -- correlated trace replay ---------------------------------------------------

class TestTraceReplay:
    @pytest.fixture(scope="class")
    def trace_events(self, setup):
        """One service run, one shared JSONL sink, serial proving."""
        from repro.service import (
            BatchPolicy,
            ProofService,
            RuntimeProofBackend,
            spec_key,
            task_witness_key,
        )

        _, spec, tasks = setup
        buffer = io.StringIO()
        sink = JsonlTraceSink(buffer)
        backend = RuntimeProofBackend.from_specs([spec], backend="serial")
        key = spec_key(spec)
        policy = BatchPolicy(max_batch_size=4)
        with ProofService(backend, policy=policy, trace=sink) as svc:
            tickets = [
                svc.submit(
                    task,
                    circuit_key=key,
                    witness_key=task_witness_key(task)
                    + task.task_id.to_bytes(4, "little"),
                )
                for task in tasks
            ]
            # A duplicate of the first task: cache hit or coalesce.
            dup = svc.submit(
                tasks[0],
                circuit_key=key,
                witness_key=task_witness_key(tasks[0])
                + tasks[0].task_id.to_bytes(4, "little"),
            )
            svc.drain(timeout=60)
            for ticket in tickets:
                ticket.result(timeout=60)
            dup.result(timeout=60)
        return load_trace(buffer.getvalue().splitlines()), tickets, dup

    def test_every_event_is_span_stamped(self, trace_events):
        events, _, _ = trace_events
        assert events
        for event in events:
            assert {"span", "parent", "kind", "event", "t"} <= set(event)
            assert event["kind"] in (
                "service", "request", "batch", "backend", "task",
            )

    def test_lineage_reconstructs_full_span_tree(self, trace_events):
        """The tentpole acceptance: service → batch → backend → task from
        one JSONL file."""
        events, tickets, _ = trace_events
        rid = tickets[0].request_id
        lineage = request_lineage(events, rid)
        assert lineage.resolution == "proved"
        nodes = span_index(events)
        # The chain is connected: request under service, batch under
        # service, backend under batch, task under backend.
        assert nodes[lineage.request].parent == lineage.service
        assert nodes[lineage.service].kind == "service"
        assert lineage.batch is not None
        assert nodes[lineage.batch].parent == lineage.service
        assert lineage.backends, "no backend span under the batch"
        for backend_span in lineage.backends:
            assert nodes[backend_span].parent == lineage.batch
        assert lineage.tasks, "no task span for the request"
        for task_span in lineage.tasks:
            assert nodes[task_span].parent in lineage.backends
            assert any(
                e.get("task_id") == rid for e in nodes[task_span].events
            )

    def test_every_proved_request_has_a_task_span(self, trace_events):
        events, tickets, _ = trace_events
        for ticket in tickets:
            lineage = request_lineage(events, ticket.request_id)
            assert lineage.resolution == "proved"
            assert lineage.tasks

    def test_duplicate_resolves_without_backend_spans(self, trace_events):
        events, _, dup = trace_events
        lineage = request_lineage(events, dup.request_id)
        assert lineage.resolution in ("cache", "coalesced")
        assert lineage.tasks == []

    def test_format_lineage_renders_chain(self, trace_events):
        events, tickets, _ = trace_events
        text = format_lineage(request_lineage(events, tickets[0].request_id))
        assert "[proved]" in text
        assert "→" in text

    def test_unknown_request_raises(self, trace_events):
        events, _, _ = trace_events
        with pytest.raises(ExecutionError):
            request_lineage(events, 999_999)

    def test_lineage_of_reads_files(self, trace_events, tmp_path):
        events, tickets, _ = trace_events
        path = tmp_path / "trace.jsonl"
        path.write_text(
            "".join(json.dumps(e) + "\n" for e in events)
        )
        lineage = lineage_of(str(path), tickets[0].request_id)
        assert lineage.resolution == "proved"


# -- shared percentile ---------------------------------------------------------

class TestSharedPercentile:
    def test_single_source_of_truth(self):
        from repro import stats as shared
        from repro.runtime import stats as runtime_stats
        from repro.service import stats as service_stats

        assert runtime_stats.percentile is shared.percentile
        assert service_stats.percentile is shared.percentile


# -- stage-pipelined backend (S27) ---------------------------------------------

class TestPipelinedPlanner:
    def test_registry_parsing(self):
        assert "pipelined" in available_backends()
        backend = resolve_backend("pipelined:3")
        assert backend.name == "pipelined:3" and backend.parallelism == 3
        assert resolve_backend("pipelined:auto").name == "pipelined:auto"
        assert resolve_backend("pipelined").parallelism >= 2
        assert isinstance(resolve_backend("pipelined:2"), ProvingBackend)
        for bad in ("pipelined:zero", "pipelined:0", "pipelined:-1"):
            with pytest.raises(ExecutionError):
                resolve_backend(bad)

    def test_plan_covers_all_stages_once_in_order(self):
        from repro.core import PIPELINE_STAGES
        from repro.execution import plan_stage_workers

        fractions = {
            "merkle": 0.4, "sumcheck": 0.35, "encoder": 0.15, "other": 0.1,
        }
        for workers in range(1, 9):
            plan = plan_stage_workers(fractions, workers)
            flat = [s for group in plan for s in group.stages]
            assert tuple(flat) == PIPELINE_STAGES  # contiguous, in order
            assert sum(g.workers for g in plan) == workers
            assert all(g.workers >= 1 for g in plan)

    def test_surplus_workers_go_to_heaviest_stage(self):
        from repro.execution import plan_stage_workers

        plan = plan_stage_workers(
            {"merkle": 0.7, "sumcheck": 0.1, "encoder": 0.1, "other": 0.1}, 6
        )
        workers = {g.stages[0]: g.workers for g in plan}
        assert workers["merkle"] == max(workers.values())

    def test_two_workers_balance_the_bottleneck(self):
        from repro.execution import plan_stage_workers

        # sumcheck dominates: the split must isolate it from the cheap
        # head stages rather than cut at the midpoint blindly.
        plan = plan_stage_workers(
            {"merkle": 0.1, "sumcheck": 0.7, "encoder": 0.1, "other": 0.1}, 2
        )
        assert plan[1].stages[0] == "sumcheck"

    def test_empty_fractions_fall_back_to_even_split(self):
        from repro.execution import plan_stage_workers

        plan = plan_stage_workers({}, 2)
        assert [g.stages for g in plan] == [
            ("encode", "merkle"), ("sumcheck", "open"),
        ]

    def test_invalid_workers_rejected(self):
        from repro.execution import plan_stage_workers

        with pytest.raises(ExecutionError):
            plan_stage_workers({}, 0)


class TestPipelinedBackend:
    def test_proofs_byte_identical_to_serial(self, setup, serial_run):
        _, spec, tasks = setup
        proofs, stats = resolve_backend("pipelined:2").prove_tasks(spec, tasks)
        assert _wire(proofs) == _wire(serial_run[0])
        assert stats.proofs_generated == len(tasks)
        assert stats.workers == 2

    def test_second_batch_skips_warmup_and_stays_identical(
        self, setup, serial_run
    ):
        _, spec, tasks = setup
        backend = resolve_backend("pipelined:2")
        backend.prove_tasks(spec, tasks)
        proofs, _ = backend.prove_tasks(spec, tasks)  # plan now cached
        assert _wire(proofs) == _wire(serial_run[0])

    def test_empty_batch(self, setup):
        _, spec, _ = setup
        proofs, stats = resolve_backend("pipelined:2").prove_tasks(spec, [])
        assert proofs == [] and stats.proofs_generated == 0

    def test_four_workers_one_stage_each(self, setup, serial_run):
        _, spec, tasks = setup
        proofs, _ = resolve_backend("pipelined:4").prove_tasks(spec, tasks)
        assert _wire(proofs) == _wire(serial_run[0])

    def test_composes_under_sharded(self, setup, serial_run):
        _, spec, tasks = setup
        backend = resolve_backend("cluster:pipelined:2,serial")
        proofs, _ = backend.prove_tasks(spec, tasks)
        assert _wire(proofs) == _wire(serial_run[0])

    def test_fault_plan_walk_reaches_backend(self):
        from repro.resilience import FaultInjector, FaultPlan, apply_fault_plan

        backend = resolve_backend("resilient:pipelined:2")
        injector = FaultInjector(FaultPlan.parse("crash:0.1,seed=3"))
        apply_fault_plan(backend, injector, min_retries=2)
        inner = backend.child
        assert inner.fault_injector is injector
        assert inner.max_retries >= 2

    def test_exhausted_retries_raise_proof_error(self, setup):
        from repro.errors import ProofError

        _, spec, tasks = setup

        def always_crash(task_id, attempt):
            raise RuntimeError("injected")

        backend = resolve_backend("pipelined:2")
        backend.fault_injector = always_crash
        backend.max_retries = 1
        with pytest.raises(ProofError):
            backend.prove_tasks(spec, tasks)


class TestPipelinedTrace:
    @pytest.fixture()
    def traced_run(self, setup):
        _, spec, tasks = setup
        buf = io.StringIO()
        sink = JsonlTraceSink(buf)
        backend = resolve_backend("pipelined:2")
        proofs, stats = backend.prove_tasks(spec, tasks, trace=sink)
        return load_trace(buf.getvalue().splitlines()), stats, tasks

    def test_every_task_walks_every_stage_in_order(self, traced_run):
        from repro.core import PIPELINE_STAGES

        events, _, tasks = traced_run
        for task in tasks:
            done = [
                e["stage"] for e in events
                if e["event"] == "stage_done" and e["task_id"] == task.task_id
            ]
            assert tuple(done) == PIPELINE_STAGES

    def test_stage_events_are_span_stamped_under_backend(self, traced_run):
        events, _, _ = traced_run
        nodes = span_index(events)
        backend_span = next(
            e["span"] for e in events if e["event"] == "run_start"
        )
        for e in events:
            if e["event"] in ("stage_enqueue", "stage_start", "stage_done"):
                assert e["kind"] == "task"
                assert e["parent"] == backend_span
                assert nodes[e["span"]].parent == backend_span

    def test_breakdown_replay_matches_stats(self, traced_run):
        from repro.execution import stage_breakdown

        events, stats, _ = traced_run
        assert stage_breakdown(events) == stats.stage_totals()
        replayed = stage_breakdown(events, exclusive=False)
        assert replayed == stats.stage_totals(exclusive=False)

    def test_plan_event_partitions_workers(self, traced_run):
        events, stats, _ = traced_run
        plan = next(e for e in events if e["event"] == "pipeline_plan")
        assert sum(g["workers"] for g in plan["groups"]) == stats.workers
        fr = plan["fractions"]
        assert sum(fr.values()) == pytest.approx(1.0)

    def test_exclusive_fractions_sum_within_prove_wall(self, traced_run):
        # Acceptance: exclusive stage fractions are shares of proving
        # wall time — they sum to <= 1.0 of it.
        _, stats, _ = traced_run
        excl = stats.stage_totals()
        prove_wall = sum(r.prove_seconds for r in stats.records)
        assert 0.0 < sum(excl.values()) <= prove_wall * 1.0 + 1e-9


# -- one task lifecycle across substrates -------------------------------------


class RecordingInjector(FaultInjector):
    """A fault injector that logs every ``(task_id, attempt)`` it fires."""

    def __init__(self, plan: str):
        super().__init__(FaultPlan.parse(plan))
        self.calls = []

    def __call__(self, task_id, attempt):
        self.calls.append((task_id, attempt))
        super().__call__(task_id, attempt)


def _chaos_run(selector, spec, tasks, plan):
    backend = resolve_backend(selector)
    injector = RecordingInjector(plan)
    apply_fault_plan(backend, injector, min_retries=6)
    proofs, stats = backend.prove_tasks(spec, tasks)
    return proofs, stats, injector.calls


class TestTaskLifecycle:
    @pytest.fixture(scope="class")
    def batch(self):
        cc = random_circuit(F, 48, seed=3)
        spec = ProverSpec(
            r1cs=cc.r1cs, public_indices=tuple(cc.public_indices),
            num_col_checks=4,
        )
        tasks = [ProofTask(i, cc.witness, cc.public_values) for i in range(8)]
        return spec, tasks, _wire(SerialBackend().prove_tasks(spec, tasks)[0])

    def test_lane_fallback_never_replays_attempt_one(self, batch):
        """A failed fused group moves every lane on to attempt 2."""
        spec, tasks, oracle = batch
        proofs, _, calls = _chaos_run(
            "resilient:lanes:4", spec, tasks, "crash:0.3,seed=3"
        )
        assert _wire(proofs) == oracle
        assert any(attempt > 1 for _, attempt in calls)  # a group failed
        assert len(calls) == len(set(calls))
        assert sorted(calls.count((t.task_id, 1)) for t in tasks) == [1] * 8

    @pytest.mark.parametrize("selector", [
        "serial", "lanes:4", "lanes:auto", "pipelined:2",
        "lanes:4:pipelined:2",
    ])
    def test_record_attempts_are_the_attempts_made(self, batch, selector):
        spec, tasks, oracle = batch
        proofs, stats, calls = _chaos_run(
            selector, spec, tasks, "crash:0.3,seed=3"
        )
        assert _wire(proofs) == oracle
        assert len(calls) == len(set(calls))
        made = {t.task_id: 0 for t in tasks}
        for task_id, _ in calls:
            made[task_id] += 1
        assert {r.task_id: r.attempts for r in stats.records} == made

    def test_latency_counts_from_batch_receipt(self, batch):
        spec, tasks, _ = batch
        _, stats = SerialBackend().prove_tasks(spec, tasks[:4])
        latencies = stats.latencies
        assert latencies == sorted(latencies)
        assert latencies[-1] >= sum(r.prove_seconds for r in stats.records)

    @pytest.mark.parametrize("selector", [
        "serial", "lanes:4", "lanes:auto", "pool:2", "pipelined:2",
    ])
    def test_every_substrate_bills_tasks_alike(
        self, batch, selector, tmp_path
    ):
        spec, tasks, oracle = batch
        path = str(tmp_path / "trace.jsonl")
        with JsonlTraceSink(path) as sink:
            service = SpanContext(sink, "service")
            for task in tasks:
                service.child("request").emit(
                    "svc_submit", request_id=task.task_id
                )
            batch_ctx = service.child("batch")
            batch_ctx.emit(
                "batch_form", request_ids=[t.task_id for t in tasks]
            )
            with use_span(batch_ctx):
                proofs, stats = resolve_backend(selector).prove_tasks(
                    spec, tasks
                )
        assert _wire(proofs) == oracle
        records = {r.task_id: r for r in stats.records}
        assert len(stats.records) == len(records) == len(tasks)
        assert sum(r.prove_seconds for r in stats.records) == pytest.approx(
            stats.busy_seconds, rel=1e-9
        )
        events = load_trace(path)
        completes = [e for e in events if e["event"] == "complete"]
        assert sorted(e["task_id"] for e in completes) == sorted(records)
        for event in completes:
            record = records[event["task_id"]]
            exclusive = exclusive_stage_seconds(record.stage_seconds)
            assert sum(exclusive.values()) <= record.prove_seconds + 1e-9
            assert stage_breakdown_of(path, record.task_id) == pytest.approx(
                exclusive
            )
            lineage = request_lineage(events, record.task_id)
            assert lineage.tasks == [event["span"]]
