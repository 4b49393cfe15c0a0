"""The five workloads: set-up, the untraced end-to-end measurement, inputs.

Everything here runs inside the workload's own fresh interpreter (see
``run.py``).  Only public, default-configured entry points of the prover
are called: ``SnarkProver.prove``, ``BatchProver(prover).prove_all(tasks)``
and ``ProofService(RuntimeProofBackend({key: spec}))``.
"""

from __future__ import annotations

import hashlib
import queue
import random
import threading
import time
from dataclasses import dataclass, field as dc_field, replace
from typing import Dict, List, Optional, Sequence

from repro.core import (
    BatchProver,
    ProofTask,
    SnarkProver,
    SnarkVerifier,
    make_pcs,
    random_circuit,
    serialize_proof,
)
from repro.errors import AdmissionError
from repro.field import DEFAULT_FIELD as FIELD
from repro.runtime import ProverSpec
from repro.stats import percentile
from repro.service import (
    ProofService,
    RuntimeProofBackend,
    poisson_trace,
    spec_key,
    task_witness_key,
)

# kind: which entry point the workload drives.  tasks: distinct witnesses
# per batch (single: cycled through the closed loop).  rate: req/s of the
# open loop; 20 and 30 req/s are about 35 % and 52 % of what one serial
# 2^10 prover sustains on the reference host, i.e. a window-dominated and
# a queueing-dominated regime.  grid / wrappers: which extra layers the
# traced run probes on this workload (see layers.py).
WORKLOADS: Dict[str, dict] = {
    "single-large": dict(kind="single", gates=1 << 16, tasks=3),
    "batch-small": dict(kind="batch", gates=1 << 10, tasks=64, grid=True, wrappers=True),
    "batch-mid": dict(kind="batch", gates=1 << 14, tasks=8, grid=True),
    "serve-r20": dict(kind="serve", gates=1 << 10, rate=20.0),
    "serve-r30": dict(kind="serve", gates=1 << 10, rate=30.0),
}
SMOKE_GATES = 1 << 6
NUM_COL_CHECKS = 6
WARMUP_PROOFS = 3  # at 2^16 the third proof is the first warm one
DUPLICATE_FRACTION = 0.1
VERIFY_ONE_IN = 8
RESOLVE_TIMEOUT_S = 60.0


def workload_config(name: str, smoke: bool) -> dict:
    cfg = dict(WORKLOADS[name])
    if smoke:
        cfg["gates"] = SMOKE_GATES
        if cfg["kind"] == "batch":
            cfg["tasks"] = 8
    return cfg


def median(samples: Sequence[float]) -> float:
    return percentile(samples, 50)


@dataclass
class Env:
    """What set-up leaves behind: one circuit and its warm prover."""

    cfg: dict
    seed: int
    circuit: object
    prover: SnarkProver
    verifier: SnarkVerifier
    spec: ProverSpec
    batch: Optional[BatchProver] = None
    circuit_key: Optional[bytes] = None
    backend: Optional[RuntimeProofBackend] = None


@dataclass
class Outcome:
    """One measurement's result, as the parent process reads it."""

    metrics: Dict[str, float] = dc_field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    notes: Dict[str, object] = dc_field(default_factory=dict)


# -- set-up ------------------------------------------------------------------


def setup(name: str, seed: int, smoke: bool) -> Env:
    """Build the circuit, the prover (or service backend) and warm it up."""
    cfg = workload_config(name, smoke)
    cc = random_circuit(FIELD, cfg["gates"], seed=seed)
    pcs = make_pcs(FIELD, cc.r1cs, num_col_checks=NUM_COL_CHECKS)
    prover = SnarkProver(cc.r1cs, pcs, public_indices=cc.public_indices)
    verifier = SnarkVerifier(cc.r1cs, pcs, public_indices=cc.public_indices)
    env = Env(
        cfg=cfg,
        seed=seed,
        circuit=cc,
        prover=prover,
        verifier=verifier,
        spec=ProverSpec.from_prover(prover),
    )
    base = ProofTask(0, cc.witness, cc.public_values)
    if cfg["kind"] == "single":
        for _ in range(WARMUP_PROOFS):
            proof = prover.prove(base.witness, base.public_values)
        verifier.verify(proof, base.public_values)
    elif cfg["kind"] == "batch":
        env.batch = BatchProver(prover)
        for _ in range(WARMUP_PROOFS):
            proofs, _ = env.batch.prove_all([base])
        verifier.verify(proofs[0], base.public_values)
    else:
        env.circuit_key = spec_key(env.spec)
        env.backend = RuntimeProofBackend({env.circuit_key: env.spec})
        # Warm the backend through a throwaway service, so the measured
        # service starts with clean ServiceStats and an empty cache.
        with ProofService(env.backend) as service:
            for _ in range(WARMUP_PROOFS):
                ticket = service.submit(
                    base, circuit_key=env.circuit_key, witness_key=None
                )
                proof = ticket.result(RESOLVE_TIMEOUT_S)
        verifier.verify(proof, base.public_values)
    return env


# -- inputs ------------------------------------------------------------------


def make_tasks(env: Env, count: int) -> List[ProofTask]:
    """``count`` same-circuit tasks with distinct witnesses.

    Task 0 is the seeded circuit's own assignment; the rest are
    ``input_values`` variants, so the R1CS digest is shared and no two
    tasks prove the same assignment.
    """
    cc = env.circuit
    rng = random.Random(f"perfbench/{env.seed}")
    tasks = [ProofTask(0, cc.witness, cc.public_values)]
    for i in range(1, count):
        values = [rng.randrange(1, FIELD.modulus) for _ in range(8)]
        variant = random_circuit(
            FIELD, env.cfg["gates"], seed=env.seed, input_values=values
        )
        tasks.append(ProofTask(i, variant.witness, variant.public_values))
    return tasks


def reference_bytes(env: Env, tasks: Sequence[ProofTask]) -> List[bytes]:
    """Serial reference: every task proved inline and serialized."""
    return [
        serialize_proof(env.prover.prove(t.witness, t.public_values), FIELD)
        for t in tasks
    ]


def digest_of(blobs: Sequence[bytes]) -> str:
    h = hashlib.sha256()
    for blob in blobs:
        h.update(blob)
    return h.hexdigest()


# -- closed-loop proving workloads -------------------------------------------


def measure_single(
    env: Env, tasks: Sequence[ProofTask], ref: Sequence[bytes], seconds: float
) -> Outcome:
    """One caller: prove -> serialize -> verify, until ``seconds`` elapse."""
    prover, verifier = env.prover, env.verifier
    prove_s: List[float] = []
    produce_s: List[float] = []
    verify_s: List[float] = []
    sizes: List[int] = []
    failed = 0
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        task = tasks[i % len(tasks)]
        t0 = time.perf_counter()
        proof = prover.prove(task.witness, task.public_values)
        t1 = time.perf_counter()
        blob = serialize_proof(proof, FIELD)
        t2 = time.perf_counter()
        ok = verifier.verify(proof, task.public_values)
        t3 = time.perf_counter()
        prove_s.append(t1 - t0)
        produce_s.append(t2 - t0)
        verify_s.append(t3 - t2)
        sizes.append(len(blob))
        if not ok or blob != ref[i % len(tasks)]:
            failed += 1
        i += 1
        if t3 >= deadline:
            break
    out = Outcome(attempted=i, failed=failed)
    out.metrics = {
        "latency_ms_p50": median(prove_s) * 1e3,
        "proofs_per_s": 1.0 / median(produce_s),
        "verify_ms_p50": median(verify_s) * 1e3,
        "proof_kib": sum(sizes) / len(sizes) / 1024.0,
    }
    out.notes = {"latency_samples": len(prove_s), "verify_samples": len(verify_s)}
    return out


def measure_batch(
    env: Env, tasks: Sequence[ProofTask], ref: Sequence[bytes], seconds: float
) -> Outcome:
    """``BatchProver.prove_all`` with default arguments, batch after batch.

    Only ``prove_all`` is inside the timed region; serialization, the
    byte comparison with the serial reference and the sampled ``verify``
    run between batches.
    """
    batch, verifier = env.batch, env.verifier
    n = len(tasks)
    checks = max(2, n // VERIFY_ONE_IN)
    stride = max(1, n // checks)
    rates: List[float] = []
    per_proof_s: List[float] = []
    verify_s: List[float] = []
    sizes: List[int] = []
    failed = 0
    deadline = time.perf_counter() + seconds
    k = 0
    while True:
        t0 = time.perf_counter()
        proofs, stats = batch.prove_all(tasks)
        wall = time.perf_counter() - t0
        rates.append(n / wall)
        per_proof_s.extend(stats.per_proof_seconds)
        bad = set()
        if len(proofs) != n:
            bad.update(range(n))
        else:
            for j, proof in enumerate(proofs):
                blob = serialize_proof(proof, FIELD)
                sizes.append(len(blob))
                if blob != ref[j]:
                    bad.add(j)
            for m in range(checks):
                j = (k + m * stride) % n
                t1 = time.perf_counter()
                ok = verifier.verify(proofs[j], tasks[j].public_values)
                verify_s.append(time.perf_counter() - t1)
                if not ok:
                    bad.add(j)
        failed += len(bad)
        k += 1
        if time.perf_counter() >= deadline:
            break
    out = Outcome(attempted=k * n, failed=failed)
    out.metrics = {
        "latency_ms_p50": median(per_proof_s) * 1e3,
        "proofs_per_s": median(rates),
        "verify_ms_p50": median(verify_s) * 1e3,
        "proof_kib": sum(sizes) / len(sizes) / 1024.0,
    }
    out.notes = {
        "batches": k,
        "latency_samples": len(per_proof_s),
        "verify_samples": len(verify_s),
    }
    return out


# -- open-loop serving workloads ---------------------------------------------


@dataclass
class Phase:
    """Every request of one open-loop phase, accounted for."""

    due: List[float]
    submit_s: List[float]
    late_s: List[float]
    done_at: List[Optional[float]]
    tickets: List[object]
    rejected: int
    start: float
    end: float

    def resolved(self) -> List[int]:
        return [
            i
            for i, t in enumerate(self.tickets)
            if t is not None and self.done_at[i] is not None and t.state == "done"
        ]

    def latencies(self) -> List[float]:
        return [self.done_at[i] - self.due[i] for i in self.resolved()]


def build_requests(env: Env, events, tasks: Sequence[ProofTask], cached: bool):
    """Per event ``(task, witness_key)``; a duplicate repeats its target."""
    fresh = [i for i, e in enumerate(events) if e.duplicate_of is None]
    slot = {i: n for n, i in enumerate(fresh)}
    requests = []
    for i, event in enumerate(events):
        # duplicate_of may itself point at a duplicate: follow to the root.
        target = i
        while events[target].duplicate_of is not None:
            target = events[target].duplicate_of
        task = tasks[slot[target] % len(tasks)]
        requests.append((task, task_witness_key(task) if cached else None))
    return requests


def run_phase(service: ProofService, circuit_key: bytes, events, requests) -> Phase:
    """Replay ``events`` in real time; latency is timed from the due time.

    The generator (this thread) submits on schedule whatever the service
    is doing; a collector thread stamps each ticket's completion within
    a 1 ms poll of ``Ticket.done()`` turning true.  Returns only after
    every request is resolved, rejected or failed.
    """
    n = len(events)
    clock = time.perf_counter
    done_at: List[Optional[float]] = [None] * n
    tickets: List[object] = [None] * n
    submit_s: List[float] = []
    late_s: List[float] = []
    issued: "queue.SimpleQueue" = queue.SimpleQueue()
    finished_submitting = threading.Event()

    def collect() -> None:
        outstanding: List[int] = []
        give_up = None
        while True:
            closing = finished_submitting.is_set()
            while True:
                try:
                    outstanding.append(issued.get_nowait())
                except queue.Empty:
                    break
            still = []
            for i in outstanding:
                if tickets[i].done():
                    done_at[i] = clock()
                else:
                    still.append(i)
            outstanding = still
            if closing:
                if not outstanding:
                    return
                if give_up is None:
                    give_up = clock() + RESOLVE_TIMEOUT_S
                elif clock() > give_up:
                    return
            time.sleep(0.001)

    collector = threading.Thread(target=collect, name="perfbench-collector")
    rejected = 0
    start = clock()
    due = [start + e.offset_seconds for e in events]
    collector.start()
    try:
        for i, event in enumerate(events):
            delay = due[i] - clock()
            if delay > 0:
                time.sleep(delay)
            task, witness_key = requests[i]
            t0 = clock()
            try:
                ticket = service.submit(
                    task,
                    circuit_key=circuit_key,
                    witness_key=witness_key,
                    priority=event.priority,
                    deadline_seconds=event.deadline_seconds,
                )
            except AdmissionError:
                rejected += 1
                continue
            finally:
                t1 = clock()
                late_s.append(t0 - due[i])
                submit_s.append(t1 - t0)
            tickets[i] = ticket
            if ticket.done():  # served from the cache inside submit()
                done_at[i] = t1
            else:
                issued.put(i)
    finally:
        finished_submitting.set()
        collector.join()
    end = max([t for t in done_at if t is not None], default=clock())
    return Phase(due, submit_s, late_s, done_at, tickets, rejected, start, end)


def serve_phase(env: Env, backend, events, requests):
    """One phase through a fresh, default ``ProofService`` over ``backend``;
    returns the phase and the service's ``ServiceStats``."""
    service = ProofService(backend)
    try:
        phase = run_phase(service, env.circuit_key, events, requests)
    finally:
        service.close(drain=True, timeout=RESOLVE_TIMEOUT_S)
    return phase, service.stats


def check_phase(env: Env, phase: Phase, requests) -> dict:
    """Sampled verify and byte comparison, after the phase has ended.

    One resolved request in ``VERIFY_ONE_IN`` is verified and compared
    with a serial reference proved here; every duplicate must carry the
    bytes of the request it repeats.
    """
    verify_s: List[float] = []
    sizes: List[int] = []
    ref_blobs: List[bytes] = []
    bad = set()
    blob_of_task: Dict[int, bytes] = {}
    for i in phase.resolved():
        task, _ = requests[i]
        proof = phase.tickets[i].result(0)
        blob = serialize_proof(proof, FIELD)
        sizes.append(len(blob))
        if blob_of_task.setdefault(task.task_id, blob) != blob:
            bad.add(i)
        if i % VERIFY_ONE_IN == 0:
            t0 = time.perf_counter()
            ok = env.verifier.verify(proof, task.public_values)
            verify_s.append(time.perf_counter() - t0)
            ref = serialize_proof(
                env.prover.prove(task.witness, task.public_values), FIELD
            )
            ref_blobs.append(ref)
            if not ok or blob != ref:
                bad.add(i)
    return {
        "verify_s": verify_s,
        "sizes": sizes,
        "bad": len(bad),
        "proof_sha256": digest_of(ref_blobs),
    }


def arrivals(rate: float, seconds: float, seed: int, duplicate_fraction: float):
    """A Poisson trace of ``rate * seconds`` arrivals that ends at ``seconds``.

    The offsets of ``poisson_trace`` are rescaled so the last arrival is
    due at exactly ``seconds``: a Poisson process conditioned on its count,
    so every seed offers the same mean rate and only the pattern varies.
    """
    n = max(8, int(round(rate * seconds)))
    events = poisson_trace(n, rate, seed=seed, duplicate_fraction=duplicate_fraction)
    scale = (n / rate) / events[-1].offset_seconds
    return [replace(e, offset_seconds=e.offset_seconds * scale) for e in events]


def serve_inputs(env: Env, seconds: float):
    """The arrival trace and one distinct task per non-duplicate arrival."""
    events = arrivals(env.cfg["rate"], seconds, env.seed, DUPLICATE_FRACTION)
    fresh = sum(1 for e in events if e.duplicate_of is None)
    return events, make_tasks(env, fresh)


def measure_serve(env: Env, events, tasks: Sequence[ProofTask]) -> Outcome:
    """Default ``ProofService`` under a Poisson trace at the workload's rate."""
    requests = build_requests(env, events, tasks, cached=True)
    phase, stats = serve_phase(env, env.backend, events, requests)
    checked = check_phase(env, phase, requests)
    resolved = phase.resolved()
    latencies = phase.latencies()
    lost = len(events) - len(resolved)  # rejected, failed or never resolved
    out = Outcome(attempted=len(events), failed=lost + checked["bad"])
    out.metrics = {
        "latency_ms_p50": median(latencies) * 1e3,
        "proofs_per_s": len(resolved) / (phase.end - phase.start),
        "verify_ms_p50": median(checked["verify_s"]) * 1e3,
        "proof_kib": sum(checked["sizes"]) / len(checked["sizes"]) / 1024.0,
    }
    out.notes = {
        "latency_samples": len(latencies),
        "verify_samples": len(checked["verify_s"]),
        "resolved": len(resolved),
        "rejected": phase.rejected,
        "unresolved_or_failed": lost - phase.rejected,
        "latency_ms_p90": percentile(latencies, 90) * 1e3,
        "gen_late_ms_p95": percentile(phase.late_s, 95) * 1e3,
        "cache_hits": stats.cache_hits,
        "coalesced": stats.coalesced,
        "mean_batch_size": stats.mean_batch_size,
        "proof_sha256": checked["proof_sha256"],
    }
    return out
