"""The traced run: spans around every call into a layer, per-layer metrics.

Layers are measured from outside, by timing their public functions on
the real operands of the workload's circuit; nothing inside ``src/`` is
instrumented.  Metric names are ``<module>.<what>_<unit>``.
"""

from __future__ import annotations

import os
import pickle
import random
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, List, Sequence

from repro.core import ProofTask, deserialize_proof, serialize_proof
from repro.execution import SerialBackend, resolve_backend
from repro.field import DEFAULT_FIELD as FIELD
from repro.field.fast61 import as_f61, f61_mul
from repro.field.multilinear import eq_table
from repro.hashing import Transcript
from repro.kernels import field_kernels
from repro.merkle import MerkleTree
from repro.sumcheck.noninteractive import prove_product

from spans import Spans
from workloads import (
    Env,
    Outcome,
    arrivals,
    build_requests,
    check_phase,
    median,
    percentile,
    serve_phase,
)

REPS = 21
GRID_REPS = 3
SLOW_REP_S = 2.0  # a grid or lane rep slower than this is not repeated
STAGE_SUM_FLOOR = 0.95
LADDER_RATES = (20.0, 30.0, 40.0, 50.0, 60.0)  # serial capacity is about 58/s
LADDER_LIMIT_MS = 250.0
SRC = Path(__file__).resolve().parent.parent / "src"


def probe(spans: Spans, name: str, fn: Callable[[], object], reps: int = REPS) -> float:
    """Median seconds of ``reps`` calls of ``fn``, each inside a span."""
    return median([spans.timed(name, fn)[1] for _ in range(reps)])


# -- core: staged proofs -----------------------------------------------------


def trace_proofs(
    env: Env,
    tasks: Sequence[ProofTask],
    ref: Sequence[bytes],
    seconds: float,
    spans: Spans,
    out: Outcome,
) -> float:
    """Drive proofs stage by stage under spans, alternating with plain
    ``prove`` calls on the same tasks so the two walls are comparable.
    Returns the median plain ``prove`` seconds."""
    prover = env.prover
    params = prover.pcs.params
    plain_s: List[float] = []
    proof_ids: List[int] = []
    mismatches = 0
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        task = tasks[i % len(tasks)]
        with spans.span("core.proof", op=task.task_id) as pid:
            staged = prover.begin_proof(task.witness, task.public_values)
            while staged.next_stage is not None:
                with spans.span(
                    f"core.stage_{staged.next_stage}", parent=pid, op=task.task_id
                ):
                    staged.run_next()
            proof = staged.proof
        proof_ids.append(pid)
        with spans.span("core.serialize", op=task.task_id):
            blob = serialize_proof(proof, FIELD)
        with spans.span("core.deserialize", op=task.task_id):
            deserialize_proof(blob, FIELD, params)
        if blob != ref[i % len(tasks)]:
            mismatches += 1
        t0 = time.perf_counter()
        prover.prove(task.witness, task.public_values)
        plain_s.append(time.perf_counter() - t0)
        i += 1
        if i >= 3 and time.perf_counter() >= deadline:
            break
    wall = {sid: end - start for sid, n, start, end, _, _ in spans.rows if n == "core.proof"}
    staged_sum = dict.fromkeys(proof_ids, 0.0)
    for _, name, start, end, parent, _ in spans.rows:
        if parent in staged_sum and name.startswith("core.stage_"):
            staged_sum[parent] += end - start
    metrics = {
        f"core.stage_{stage}_ms": median(spans.durations(f"core.stage_{stage}")) * 1e3
        for stage in ("encode", "merkle", "sumcheck", "open")
    }
    metrics["core.stage_sum_over_wall"] = median(
        [staged_sum[pid] / wall[pid] for pid in proof_ids]
    )
    metrics["core.serialize_ms"] = median(spans.durations("core.serialize")) * 1e3
    metrics["core.deserialize_ms"] = median(spans.durations("core.deserialize")) * 1e3
    metrics["trace_overhead_pct"] = (
        median(list(wall.values())) / median(plain_s) - 1.0
    ) * 100.0
    out.metrics.update(metrics)
    out.attempted += i
    out.failed += mismatches
    return median(plain_s)


# -- field ... runtime: one public function at a time ------------------------


def probe_layers(env: Env, task: ProofTask, spans: Spans, out: Outcome) -> None:
    prover = env.prover
    r1cs, pcs = prover.r1cs, prover.pcs
    hasher = pcs.hasher
    rng = random.Random(f"perfbench-probe/{env.seed}")
    m = out.metrics

    z = r1cs.pad_witness(task.witness)
    n = len(z)
    m["core.pad_matvec_ms"] = 1e3 * probe(
        spans,
        "core.pad_matvec",
        lambda: r1cs.matvec_tables(r1cs.pad_witness(task.witness)),
    )

    a = as_f61(z)
    b = a[::-1].copy()
    m["field.f61_mul_ns_per_elem"] = 1e9 * probe(spans, "field.f61_mul", lambda: f61_mul(a, b)) / n
    m["field.as_f61_ns_per_elem"] = 1e9 * probe(spans, "field.as_f61", lambda: as_f61(z)) / n

    r = FIELD.rand_vector(1, rng)[0]
    point_x = FIELD.rand_vector(r1cs.constraint_vars, rng)
    point_y = FIELD.rand_vector(r1cs.witness_vars, rng)
    m["kernels.fold_table_ns_per_elem"] = (
        1e9 * probe(spans, "kernels.fold_table", lambda: field_kernels.fold_table(FIELD, z, r)) / n
    )
    m["kernels.eq_table_ms"] = 1e3 * probe(
        spans, "kernels.eq_table", lambda: field_kernels.eq_table(FIELD, point_x)
    )
    m["kernels.pack_vector_ns_per_elem"] = (
        1e9 * probe(spans, "kernels.pack_vector", lambda: field_kernels.pack_vector(FIELD, z)) / n
    )

    rows = pcs.encode_rows(z)
    m["commitment.encode_rows_ms"] = 1e3 * probe(
        spans, "commitment.encode_rows", lambda: pcs.encode_rows(z)
    )
    _, state = pcs.commit_encoded(rows)
    m["commitment.commit_encoded_ms"] = 1e3 * probe(
        spans, "commitment.commit_encoded", lambda: pcs.commit_encoded(rows)
    )
    m["commitment.evaluate_ms"] = 1e3 * probe(
        spans, "commitment.evaluate", lambda: pcs.evaluate(state, point_y)
    )
    m["commitment.open_ms"] = 1e3 * probe(
        spans,
        "commitment.open",
        lambda: pcs.open(state, point_y, Transcript(b"perfbench")),
    )

    row = rows.matrix[0]
    m["encoder.encode_row_ms"] = 1e3 * probe(
        spans, "encoder.encode_row", lambda: pcs.encoder.encode(row)
    )
    m["encoder.total_nnz"] = float(pcs.encoder.total_nnz())

    columns = list(zip(*rows.encoded))
    m["merkle.build_ms"] = 1e3 * probe(
        spans,
        "merkle.build",
        lambda: MerkleTree.from_field_vectors(FIELD, columns, hasher),
    )
    tree = state.tree
    m["merkle.hash_count"] = float(tree.hash_count())
    leaves = tree.layers[0]
    m["hashing.compress_layer_us_per_node"] = (
        1e6
        * probe(spans, "hashing.compress_layer", lambda: hasher.compress_layer(leaves))
        / (len(leaves) // 2)
    )
    transcript = Transcript(b"perfbench")
    m["hashing.transcript_absorb_us_per_elem"] = (
        1e6
        * probe(
            spans,
            "hashing.transcript_absorb",
            lambda: transcript.absorb_field_vector(b"row", FIELD, row),
        )
        / len(row)
    )

    coeffs = FIELD.rand_vector(3, rng)
    combined = r1cs.combined_row_table(eq_table(FIELD, point_x), *coeffs)
    m["sumcheck.prove_product_ms"] = 1e3 * probe(
        spans,
        "sumcheck.prove_product",
        lambda: prove_product(FIELD, [combined, z], Transcript(b"perfbench")),
    )

    # Cold build: a different PCS seed misses the process-wide encoder memo.
    seeds = iter(range(1, 6))
    m["runtime.build_prover_ms"] = 1e3 * probe(
        spans,
        "runtime.build_prover",
        lambda: replace(env.spec, pcs_seed=env.spec.pcs_seed + next(seeds)).build_prover(),
        reps=5,
    )
    m["runtime.spec_pickle_kib"] = len(pickle.dumps(env.spec)) / 1024.0
    m["runtime.spec_pickle_ms"] = 1e3 * probe(
        spans, "runtime.spec_pickle", lambda: pickle.dumps(env.spec)
    )


def repeat_fast(run: Callable[[], float], reps: int = GRID_REPS) -> float:
    """Median of ``reps`` timings; a slow first rep is the only one."""
    times = [run()]
    while times[0] <= SLOW_REP_S and len(times) < reps:
        times.append(run())
    return median(times)


def probe_lanes(
    env: Env,
    tasks: Sequence[ProofTask],
    ref: Sequence[bytes],
    scalar_s: float,
    spans: Spans,
    out: Outcome,
) -> None:
    """Per-proof time of ``prove_lanes`` over scalar ``prove``, 1 and 16 lanes."""
    for width in (1, 16):
        group = [tasks[i % len(tasks)] for i in range(width)]
        witnesses = [t.witness for t in group]
        publics = [t.public_values for t in group]

        def run() -> float:
            proofs, seconds = spans.timed(
                f"core.prove_lanes_w{width}",
                lambda: env.prover.prove_lanes(witnesses, publics),
            )
            out.attempted += width
            out.failed += sum(
                serialize_proof(p, FIELD) != ref[t.task_id]
                for p, t in zip(proofs, group)
            )
            return seconds

        out.metrics[f"core.laned_over_scalar_w{width}"] = (
            repeat_fast(run) / width / scalar_s
        )


# -- execution, resilience, cluster: whole batches through a backend ----------


def batch_seconds(backend, env: Env, tasks, ref, spans: Spans, name: str, out: Outcome) -> float:
    (proofs, _), seconds = spans.timed(
        name, lambda: backend.prove_tasks(env.spec, tasks)
    )
    out.attempted += len(ref)
    out.failed += abs(len(proofs) - len(ref)) + sum(
        serialize_proof(p, FIELD) != blob for p, blob in zip(proofs, ref)
    )
    return seconds


def overhead_pct(
    wrapped: Callable[[], float], plain: Callable[[], float], reps: int = GRID_REPS
) -> float:
    """Median ``wrapped`` over median ``plain``, the two interleaved."""
    w: List[float] = []
    p: List[float] = []
    for _ in range(reps):
        p.append(plain())
        w.append(wrapped())
    return (median(w) / median(p) - 1.0) * 100.0


def probe_execution(env: Env, tasks, ref, spans: Spans, out: Outcome) -> None:
    """One batch through each substrate, a fresh backend every rep."""
    n = len(tasks)
    m = out.metrics
    # Fill the process-wide spec cache, so no substrate pays the build.
    resolve_backend("serial").prove_tasks(env.spec, tasks)
    for label, selector in (
        ("serial", "serial"),
        ("lanes16", "lanes:16"),
        ("lanes_auto", "lanes:auto"),
        ("pool2", "pool:2"),
        ("pipelined2", "pipelined:2"),
    ):
        seconds = repeat_fast(
            lambda: batch_seconds(
                resolve_backend(selector), env, tasks, ref, spans,
                f"execution.{label}", out,
            )
        )
        m[f"execution.{label}_proofs_per_s"] = n / seconds

    def inline() -> float:
        return spans.timed(
            "execution.inline_loop",
            lambda: [env.prover.prove(t.witness, t.public_values) for t in tasks],
        )[1]

    def seam() -> float:
        backend = SerialBackend()
        backend.adopt_prover(env.spec, env.prover)
        return batch_seconds(backend, env, tasks, ref, spans, "execution.seam", out)

    m["execution.seam_overhead_pct"] = overhead_pct(seam, inline)


def probe_wrappers(env: Env, tasks, ref, spans: Spans, out: Outcome) -> None:
    """``resilient:serial`` and one loopback ``remote:`` node, each vs ``serial``."""
    m = out.metrics

    def serial() -> float:
        return batch_seconds(
            resolve_backend("serial"), env, tasks, ref, spans, "execution.serial", out
        )

    m["resilience.wrapper_overhead_pct"] = overhead_pct(
        lambda: batch_seconds(
            resolve_backend("resilient:serial"), env, tasks, ref, spans,
            "resilience.resilient_serial", out,
        ),
        serial,
    )

    child_env = dict(os.environ)
    child_env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([child_env["PYTHONPATH"]] if child_env.get("PYTHONPATH") else [])
    )
    node = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro", "node",
         "--listen", "127.0.0.1:0", "--backend", "serial"],
        env=child_env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    try:
        ready = node.stdout.readline().split()
        if len(ready) != 3 or ready[0] != "READY":
            raise RuntimeError(f"node did not come up: {ready!r}")
        remote = resolve_backend(f"remote:{ready[1]}:{ready[2]}")
        try:
            remote.prove_tasks(env.spec, tasks)  # the node builds its prover
            m["cluster.remote_overhead_pct"] = overhead_pct(
                lambda: batch_seconds(
                    remote, env, tasks, ref, spans, "cluster.remote", out
                ),
                serial,
            )
        finally:
            remote.close()
    finally:
        node.terminate()
        try:
            node.wait(10)
        except subprocess.TimeoutExpired:
            node.kill()
            node.wait()
        node.stdout.close()


# -- service: the open loop with a timing wrapper on the backend --------------


class TimedBackend:
    """Delegates ``prove_batch`` and stamps when each batch ran."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.batches: List[tuple] = []

    def prove_batch(self, circuit_key, requests):
        t0 = time.perf_counter()
        results = self.inner.prove_batch(circuit_key, requests)
        t1 = time.perf_counter()
        self.batches.append((t0, t1, [r.request_id for r in requests]))
        return results


def trace_service(
    env: Env, events, tasks, ladder_phase_s: float, spans: Spans, out: Outcome
) -> None:
    """One traced and one plain phase over the same trace, then the ladder."""
    requests = build_requests(env, events, tasks, cached=True)
    timed = TimedBackend(env.backend)
    phase, stats = serve_phase(env, timed, events, requests)
    checked = check_phase(env, phase, requests)
    resolved = phase.resolved()

    index_of = {phase.tickets[i].request_id: i for i in resolved}
    queue_wait: List[float] = []
    residual: List[float] = []
    for t0, t1, request_ids in timed.batches:
        spans.add("service.batch", t0, t1)
        for rid in request_ids:
            i = index_of.get(rid)
            if i is None:
                continue
            due, done = phase.due[i], phase.done_at[i]
            rid_span = spans.add("service.request", due, done, op=rid)
            spans.add("service.queue_wait", due, t0, parent=rid_span, op=rid)
            spans.add("execution.prove_batch", t0, t1, parent=rid_span, op=rid)
            spans.add("service.resolve", t1, done, parent=rid_span, op=rid)
            queue_wait.append(t0 - due)
            residual.append(done - t1)
    latencies = phase.latencies()
    busy = sum(t1 - t0 for t0, t1, _ in timed.batches)
    m = out.metrics
    m.update({
        "service.queue_wait_ms_p50": median(queue_wait) * 1e3,
        "service.backend_busy_share": busy / (phase.end - phase.start),
        "service.mean_batch_size": stats.mean_batch_size,
        "service.cache_hit_rate": stats.cache_hit_rate,
        "service.coalesced": float(stats.coalesced),
        "service.rejected": float(stats.rejected),
        "service.residual_ms_p50": median(residual) * 1e3,
        "service.submit_us_p50": median(phase.submit_s) * 1e6,
        "service.gen_late_ms_p95": percentile(phase.late_s, 95) * 1e3,
    })

    plain, _ = serve_phase(env, env.backend, events, requests)
    m["trace_overhead_pct"] = (
        median(latencies) / median(plain.latencies()) - 1.0
    ) * 100.0
    m["service.latency_ms_p90"] = percentile(plain.latencies(), 90) * 1e3

    m["service.max_rate_within_limit"] = rate_ladder(env, tasks, ladder_phase_s)
    out.attempted += 2 * len(events)
    out.failed += (
        (len(events) - len(resolved))
        + (len(events) - len(plain.resolved()))
        + checked["bad"]
    )


def rate_ladder(env: Env, tasks, phase_s: float) -> float:
    """Highest rate whose p90 from due time stays within the limit with
    every request resolved; 0 if none does.  Uncached, so the task pool
    can be reused: every request is proved."""
    best = 0.0
    for rate in LADDER_RATES:
        events = arrivals(rate, phase_s, env.seed, 0.0)
        requests = build_requests(env, events, tasks, cached=False)
        phase, _ = serve_phase(env, env.backend, events, requests)
        ok = len(phase.resolved()) == len(events)
        if ok and percentile(phase.latencies(), 90) * 1e3 <= LADDER_LIMIT_MS:
            best = rate
    return best
