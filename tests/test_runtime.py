"""Parallel proving runtime tests (S22): parity, robustness, observability."""

import json
import os
import time

import pytest

from repro.core import (
    BatchProver,
    ProofTask,
    SnarkProver,
    make_pcs,
    random_circuit,
    verify_all,
)
from repro.core.serialize import serialize_proof
from repro.errors import ProofError
from repro.field import DEFAULT_FIELD
from repro.runtime import (
    JsonlTraceSink,
    ParallelProvingRuntime,
    ProverSpec,
    RuntimeStats,
    TaskRecord,
    percentile,
)

F = DEFAULT_FIELD


# -- module-level fault injectors (must be picklable for worker processes) ----

def crash_task2_once(task_id: int, attempt: int) -> None:
    if task_id == 2 and attempt == 1:
        raise RuntimeError("injected crash")


def poison_task1(task_id: int, attempt: int) -> None:
    if task_id == 1:
        raise RuntimeError("poison")


def sleep_task0(task_id: int, attempt: int) -> None:
    if task_id == 0:
        time.sleep(0.6)


def sleep_task0_first_attempt(task_id: int, attempt: int) -> None:
    if task_id == 0 and attempt == 1:
        time.sleep(0.6)


# -- fixtures -----------------------------------------------------------------

@pytest.fixture(scope="module")
def setup():
    cc = random_circuit(F, 48, seed=3)
    pcs = make_pcs(F, cc.r1cs, num_col_checks=4)
    prover = SnarkProver(cc.r1cs, pcs, public_indices=cc.public_indices)
    spec = ProverSpec.from_prover(prover)
    tasks = [ProofTask(i, cc.witness, cc.public_values) for i in range(6)]
    return prover, spec, tasks


@pytest.fixture(scope="module")
def serial_proofs(setup):
    prover, _, tasks = setup
    proofs, _ = BatchProver(prover).prove_all(tasks)
    return proofs


class TestSpec:
    def test_roundtrip_matches_original_pcs(self, setup):
        prover, spec, _ = setup
        rebuilt = spec.build_prover()
        assert rebuilt.pcs.params == prover.pcs.params
        assert rebuilt.r1cs.digest() == prover.r1cs.digest()

    def test_spec_is_picklable(self, setup):
        import pickle

        _, spec, _ = setup
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.build_prover().pcs.params == spec.build_pcs().params

    def test_rebuilt_prover_produces_identical_proofs(self, setup, serial_proofs):
        _, spec, tasks = setup
        proof = spec.build_prover().prove(
            tasks[0].witness, tasks[0].public_values
        )
        assert serialize_proof(proof, F) == serialize_proof(serial_proofs[0], F)


class TestParity:
    """Pooled results must be indistinguishable from serial prove_all."""

    def test_pooled_proofs_identical_to_serial(self, setup, serial_proofs):
        _, spec, tasks = setup
        runtime = ParallelProvingRuntime(spec, workers=2)
        proofs, stats = runtime.prove_tasks(tasks)
        assert stats.proofs_generated == len(tasks)
        assert [serialize_proof(p, F) for p in proofs] == [
            serialize_proof(p, F) for p in serial_proofs
        ]
        assert verify_all(spec.build_verifier(), proofs, tasks)

    def test_chunked_dispatch_preserves_order(self, setup, serial_proofs):
        _, spec, tasks = setup
        runtime = ParallelProvingRuntime(spec, workers=2, chunk_size=3)
        proofs, _ = runtime.prove_tasks(tasks)
        assert [serialize_proof(p, F) for p in proofs] == [
            serialize_proof(p, F) for p in serial_proofs
        ]

    def test_workers_1_proves_inline(self, setup, serial_proofs):
        _, spec, tasks = setup
        runtime = ParallelProvingRuntime(spec, workers=1)
        proofs, stats = runtime.prove_tasks(tasks)
        assert stats.workers == 1
        assert not stats.fell_back_to_serial
        assert all(r.worker is None for r in stats.records)
        assert [serialize_proof(p, F) for p in proofs] == [
            serialize_proof(p, F) for p in serial_proofs
        ]

    def test_single_task_avoids_pool(self, setup):
        _, spec, tasks = setup
        runtime = ParallelProvingRuntime(spec, workers=4)
        proofs, stats = runtime.prove_tasks(tasks[:1])
        assert len(proofs) == 1 and stats.workers == 1


class TestRobustness:
    @pytest.mark.skipif((os.cpu_count() or 1) < 4, reason="needs >= 4 cores")
    def test_four_workers_double_serial_throughput(self):
        from repro.experiments.benches import run_scaling

        assert run_scaling(tasks=48, workers=4)["speedup"] >= 2.0

    def test_retry_recovers_from_worker_exception(self, setup):
        _, spec, tasks = setup
        runtime = ParallelProvingRuntime(
            spec, workers=2, fault_injector=crash_task2_once
        )
        proofs, stats = runtime.prove_tasks(tasks)
        assert stats.retries >= 1
        record = next(r for r in stats.records if r.task_id == 2)
        assert record.attempts == 2
        assert verify_all(spec.build_verifier(), proofs, tasks)

    def test_retry_exhaustion_raises_proof_error(self, setup):
        _, spec, tasks = setup
        runtime = ParallelProvingRuntime(
            spec, workers=2, fault_injector=poison_task1, max_retries=1,
            retry_backoff_seconds=0.01,
        )
        with pytest.raises(ProofError, match="failed after 2 attempts"):
            runtime.prove_tasks(tasks)

    def test_timeout_surfaces_clean_proof_error(self, setup):
        _, spec, tasks = setup
        runtime = ParallelProvingRuntime(
            spec, workers=2, fault_injector=sleep_task0,
            task_timeout_seconds=0.15, max_retries=0,
        )
        with pytest.raises(ProofError, match="timeout"):
            runtime.prove_tasks(tasks)

    def test_timeout_then_retry_completes_batch(self, setup):
        _, spec, tasks = setup
        runtime = ParallelProvingRuntime(
            spec, workers=2, fault_injector=sleep_task0_first_attempt,
            task_timeout_seconds=0.15, max_retries=2,
            retry_backoff_seconds=0.01,
        )
        proofs, stats = runtime.prove_tasks(tasks)
        assert stats.timeouts >= 1
        assert verify_all(spec.build_verifier(), proofs, tasks)

    def test_serial_path_honors_retries_too(self, setup):
        _, spec, tasks = setup
        runtime = ParallelProvingRuntime(
            spec, workers=1, fault_injector=crash_task2_once,
            retry_backoff_seconds=0.01,
        )
        proofs, stats = runtime.prove_tasks(tasks)
        assert stats.retries == 1
        assert verify_all(spec.build_verifier(), proofs, tasks)

    def test_serial_timeout_recorded_not_preempted(self, setup, tmp_path):
        """Serial overruns are counted and traced with the same run-level
        event shape as the pooled path, but the proof still lands."""
        _, spec, tasks = setup
        path = str(tmp_path / "trace.jsonl")
        with JsonlTraceSink(path) as sink:
            runtime = ParallelProvingRuntime(
                spec, workers=1, trace=sink,
                task_timeout_seconds=1e-6, max_retries=0,
            )
            proofs, stats = runtime.prove_tasks(tasks)
        assert len(proofs) == len(tasks)  # recorded, not preempted
        assert stats.timeouts == len(tasks)
        assert verify_all(spec.build_verifier(), proofs, tasks)
        events = [json.loads(line) for line in open(path)]
        overruns = [e for e in events if e["event"] == "timeout"]
        assert [e["tasks"] for e in overruns] == [
            [t.task_id] for t in tasks
        ]
        assert all(e["seconds"] > 0 for e in overruns)
        run_span = next(
            e for e in events if e["event"] == "run_start"
        )["span"]
        assert all(e["span"] == run_span for e in overruns)

    def test_invalid_configuration_rejected(self, setup):
        _, spec, _ = setup
        with pytest.raises(ProofError):
            ParallelProvingRuntime(spec, workers=0)
        with pytest.raises(ProofError):
            ParallelProvingRuntime(spec, chunk_size=0)
        with pytest.raises(ProofError):
            ParallelProvingRuntime(spec, max_retries=-1)


class TestStats:
    def test_percentile_known_values(self):
        assert percentile([1, 2, 3, 4], 50) == 2.5
        assert percentile([1, 2, 3, 4], 0) == 1.0
        assert percentile([1, 2, 3, 4], 100) == 4.0
        assert percentile([10], 99) == 10.0
        assert percentile([], 50) == 0.0
        # 1..100: p95 interpolates between the 95th and 96th values.
        assert percentile(list(range(1, 101)), 95) == pytest.approx(95.05)
        with pytest.raises(ValueError):
            percentile([1], 101)

    def test_percentile_sorts_its_input(self):
        """The caller owes no ordering guarantee."""
        unsorted = [9.0, 1.0, 5.0, 3.0, 7.0]
        assert percentile(unsorted, 50) == 5.0
        assert percentile(unsorted, 0) == 1.0
        assert percentile(unsorted, 100) == 9.0
        assert unsorted == [9.0, 1.0, 5.0, 3.0, 7.0]  # input untouched

    def test_percentile_two_elements_interpolates(self):
        assert percentile([3, 1], 50) == 2.0
        assert percentile([3, 1], 25) == 1.5
        assert percentile([3, 1], 0) == 1.0
        assert percentile([3, 1], 100) == 3.0

    def test_percentile_q_bounds_rejected(self):
        for bad_q in (-0.001, -5, 100.001, 1000):
            with pytest.raises(ValueError, match=r"\[0, 100\]"):
                percentile([1, 2], bad_q)

    def test_empty_run_aggregates_are_all_zero(self):
        """A run that produced no records must report without crashing."""
        stats = RuntimeStats()
        assert stats.proofs_generated == 0
        assert stats.throughput_per_second == 0.0
        assert stats.latencies == []
        assert stats.p50_latency_seconds == 0.0
        assert stats.p95_latency_seconds == 0.0
        assert stats.p99_latency_seconds == 0.0
        assert stats.worker_utilization == 0.0
        assert stats.max_queue_depth == 0
        assert stats.mean_queue_depth == 0.0
        assert stats.total_attempts == 0
        assert "proofs          : 0" in stats.report()

    def test_latency_percentiles_on_known_records(self):
        stats = RuntimeStats(workers=2)
        for i, latency in enumerate([0.01 * k for k in range(1, 11)]):
            stats.records.append(
                TaskRecord(
                    task_id=i, attempts=1, prove_seconds=latency,
                    latency_seconds=latency,
                )
            )
        assert stats.p50_latency_seconds == pytest.approx(0.055)
        assert stats.p95_latency_seconds == pytest.approx(0.0955)
        assert stats.p99_latency_seconds == pytest.approx(0.0991)

    def test_utilization_and_throughput(self):
        stats = RuntimeStats(workers=4, total_seconds=2.0, busy_seconds=4.0)
        stats.records.append(
            TaskRecord(task_id=0, attempts=1, prove_seconds=1.0,
                       latency_seconds=1.0)
        )
        assert stats.worker_utilization == pytest.approx(0.5)
        assert stats.throughput_per_second == pytest.approx(0.5)

    def test_queue_depth_aggregates(self):
        stats = RuntimeStats(queue_depth_samples=[0, 2, 4])
        assert stats.max_queue_depth == 4
        assert stats.mean_queue_depth == pytest.approx(2.0)
        assert RuntimeStats().max_queue_depth == 0

    def test_report_is_human_readable(self, setup):
        _, spec, tasks = setup
        _, stats = ParallelProvingRuntime(spec, workers=2).prove_tasks(tasks)
        report = stats.report()
        for needle in ("proofs", "throughput", "latency p95", "utilization"):
            assert needle in report


class TestTrace:
    def test_jsonl_events_cover_lifecycle(self, setup, tmp_path):
        _, spec, tasks = setup
        path = str(tmp_path / "trace.jsonl")
        with JsonlTraceSink(path) as sink:
            runtime = ParallelProvingRuntime(
                spec, workers=2, trace=sink, fault_injector=crash_task2_once,
            )
            runtime.prove_tasks(tasks)
        events = [json.loads(line) for line in open(path)]
        kinds = {e["event"] for e in events}
        assert {"run_start", "submit", "complete", "retry", "run_end"} <= kinds
        completes = [e for e in events if e["event"] == "complete"]
        assert {e["task_id"] for e in completes} == {t.task_id for t in tasks}
        assert all("t" in e for e in events)

    def test_sink_counts_events(self, tmp_path):
        sink = JsonlTraceSink(str(tmp_path / "t.jsonl"))
        sink.emit("a", x=1)
        sink.emit("b")
        sink.close()
        assert sink.events_emitted == 2

    def test_concurrent_emit_is_thread_safe(self, tmp_path):
        """The batcher thread and dispatcher share one sink: lines must
        never interleave and the counter must never drop an increment."""
        import threading

        path = str(tmp_path / "concurrent.jsonl")
        sink = JsonlTraceSink(path)
        threads_n, emits_n = 8, 50

        def hammer(thread_id):
            for i in range(emits_n):
                sink.emit("tick", thread=thread_id, i=i, pad="x" * 64)

        threads = [
            threading.Thread(target=hammer, args=(t,))
            for t in range(threads_n)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        sink.close()
        assert sink.events_emitted == threads_n * emits_n
        lines = open(path).read().splitlines()
        assert len(lines) == threads_n * emits_n
        events = [json.loads(line) for line in lines]  # every line parses
        seen = {(e["thread"], e["i"]) for e in events}
        assert len(seen) == threads_n * emits_n


class TestBatchProverDelegation:
    def test_workers_flag_delegates_to_runtime(self, setup, serial_proofs):
        prover, _, tasks = setup
        batch = BatchProver(prover, backend="pool:2")
        proofs, stats = batch.prove_all(tasks)
        assert batch.last_runtime_stats is not None
        assert batch.last_runtime_stats.workers == 2
        assert stats.proofs_generated == len(tasks)
        assert len(stats.per_proof_seconds) == len(tasks)
        assert [serialize_proof(p, F) for p in proofs] == [
            serialize_proof(p, F) for p in serial_proofs
        ]

    def test_per_call_workers_override(self, setup):
        prover, _, tasks = setup
        batch = BatchProver(prover)  # default lanes:auto
        _, _ = batch.prove_all(tasks[:2], backend="pool:2")
        assert batch.last_runtime_stats is not None
