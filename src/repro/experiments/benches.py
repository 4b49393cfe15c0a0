"""Measurement cores of the extension benchmarks.

Each function takes explicit parameters (no globals, no argv) and
returns a JSON-serializable payload; the registered
:class:`~repro.experiments.spec.ExperimentSpec`s in
:mod:`repro.experiments.catalog` wrap them with quick/full
parameterizations and declarative guards.

Import cost note: everything below imports lazily-importable repro
subsystems at module import time on purpose — these are the same
imports the old bench scripts did, and the experiments package is never
imported on the proving hot path.
"""

from __future__ import annotations

import os
import tempfile
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..core import (
    BatchProver,
    ProofTask,
    SnarkProver,
    make_pcs,
    random_circuit,
    serialize_proof,
    verify_all,
)
from ..field import DEFAULT_FIELD
from ..runtime import ParallelProvingRuntime, ProverSpec

# -- shared circuit/task setup -------------------------------------------------


def _setup_tasks(gates: int, tasks: int, seed: int = 7):
    cc = random_circuit(DEFAULT_FIELD, gates, seed=seed)
    pcs = make_pcs(DEFAULT_FIELD, cc.r1cs, num_col_checks=6)
    prover = SnarkProver(cc.r1cs, pcs, public_indices=cc.public_indices)
    spec = ProverSpec.from_prover(prover)
    task_list = [
        ProofTask(i, cc.witness, cc.public_values) for i in range(tasks)
    ]
    return cc, prover, spec, task_list


# -- hot-path kernels (S26) ----------------------------------------------------


def _time_proofs(prover, witness, public_values, reps):
    """Best-of-``reps`` single-proof wall time plus its stage profile."""
    from ..kernels import collect_stages

    best_seconds = None
    best_stages: Dict[str, float] = {}
    proof = None
    for _ in range(reps):
        with collect_stages() as profile:
            start = time.perf_counter()
            proof = prover.prove(witness, public_values)
            elapsed = time.perf_counter() - start
        if best_seconds is None or elapsed < best_seconds:
            best_seconds = elapsed
            best_stages = profile.as_dict()
    return proof, best_seconds, best_stages


def _compress_us_per_node(blocks: int, reps: int = 5) -> float:
    """Best-of-``reps`` µs per node of one ``compress_layer`` call."""
    from ..hashing import get_hasher

    hasher = get_hasher("sha256-hw")
    layer = hasher.hash_many([i.to_bytes(4, "little") for i in range(2 * blocks)])
    best = None
    for _ in range(reps):
        start = time.perf_counter()
        hasher.compress_layer(layer)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best * 1e6 / blocks


def run_hotpath(gates: int = 4096, reps: int = 3) -> dict:
    """Fast vs reference single-proof time on one circuit; asserts byte
    identity of the two serialized proofs."""
    from ..kernels import default_spec_cache, use_reference_kernels
    from ..kernels.profile import stage_cost_fractions

    cc = random_circuit(DEFAULT_FIELD, gates, seed=11)
    pcs = make_pcs(DEFAULT_FIELD, cc.r1cs, num_col_checks=6)
    prover = SnarkProver(cc.r1cs, pcs, public_indices=cc.public_indices)
    spec = ProverSpec.from_prover(prover)

    with use_reference_kernels():
        ref_prover = spec.build_prover()
        ref_proof, ref_seconds, ref_stages = _time_proofs(
            ref_prover, cc.witness, cc.public_values, reps
        )

    cache = default_spec_cache()
    misses_before = cache.misses
    fast_prover = cache.get_prover(spec)
    cache.get_prover(spec)  # second lookup must hit
    fast_proof, fast_seconds, fast_stages = _time_proofs(
        fast_prover, cc.witness, cc.public_values, reps
    )

    ref_bytes = serialize_proof(ref_proof, DEFAULT_FIELD)
    fast_bytes = serialize_proof(fast_proof, DEFAULT_FIELD)
    assert fast_bytes == ref_bytes, "fast path changed the proof bytes"
    verifier = spec.build_verifier()
    assert verifier.verify(fast_proof, cc.public_values)

    return {
        "gates": gates,
        "reps": reps,
        "hasher": spec.hasher_name,
        # One Merkle layer per call, small and large: each node is one
        # hashlib SHA-256 of ``0x01 ‖ left ‖ right``.
        "compress_us_per_node_64": _compress_us_per_node(64),
        "compress_us_per_node_4096": _compress_us_per_node(4096),
        "reference_seconds": ref_seconds,
        "fast_seconds": fast_seconds,
        # Best of ``reps`` on a prover whose set-up ran at construction:
        # the single-proof latency the ledger tracks across PRs.
        "warm_proof_ms": fast_seconds * 1e3,
        "speedup": ref_seconds / fast_seconds,
        "byte_identical": True,
        "proof_bytes": len(fast_bytes),
        "reference_stages": ref_stages,
        "fast_stages": fast_stages,
        "fast_stage_fractions": stage_cost_fractions(fast_stages),
        "spec_cache": {
            "hits": cache.hits,
            "misses": cache.misses - misses_before,
        },
    }


# -- lane-vectorized prover (S31) ----------------------------------------------


def _setup_distinct_tasks(gates: int, tasks: int, seed: int = 7):
    """Same-circuit tasks with *distinct* witnesses (the §1 batch shape).

    Every task is an ``input_values`` variant of one seeded circuit, so
    the R1CS digests match (one spec, one lane group family) while no
    two lanes prove the same assignment — the honest setting for lane
    parity and lane throughput claims.
    """
    import random as _random

    cc = random_circuit(DEFAULT_FIELD, gates, seed=seed)
    pcs = make_pcs(DEFAULT_FIELD, cc.r1cs, num_col_checks=6)
    prover = SnarkProver(cc.r1cs, pcs, public_indices=cc.public_indices)
    spec = ProverSpec.from_prover(prover)
    rng = _random.Random(f"bench-lanes/{seed}")
    task_list = []
    for i in range(tasks):
        vals = [
            rng.randrange(1, DEFAULT_FIELD.modulus) for _ in range(8)
        ]
        variant = random_circuit(
            DEFAULT_FIELD, gates, seed=seed, input_values=vals
        )
        task_list.append(
            ProofTask(i, variant.witness, variant.public_values)
        )
    return cc, spec, task_list


def _best_wall(prove, reps: int):
    """Best-of-``reps`` wall seconds of ``prove()`` and its proofs' bytes."""
    best_seconds = None
    for _ in range(reps):
        start = time.perf_counter()
        proofs = prove()
        seconds = time.perf_counter() - start
        if best_seconds is None or seconds < best_seconds:
            best_seconds = seconds
    return best_seconds, [serialize_proof(p, DEFAULT_FIELD) for p in proofs]


def _default_over_serial(gates: int, tasks: int, reps: int) -> dict:
    """Default ``BatchProver.prove_all`` (no selector: working-set-sized
    lane groups) vs ``backend="serial"`` on one distinct-witness batch."""
    _, spec, task_list = _setup_distinct_tasks(gates, tasks)
    batch = BatchProver(spec.build_prover())
    serial_seconds, serial_wire = _best_wall(
        lambda: batch.prove_all(task_list, backend="serial")[0], reps
    )
    default_seconds, default_wire = _best_wall(
        lambda: batch.prove_all(task_list)[0], reps
    )
    assert default_wire == serial_wire, (
        "default prove_all diverged from serial bytes"
    )
    return {
        "default_gates": gates,
        "default_tasks": tasks,
        "default_serial_throughput": tasks / serial_seconds,
        "default_throughput": tasks / default_seconds,
        "default_over_serial": serial_seconds / default_seconds,
    }


def run_lanes(
    gates: int = 256,
    lanes: int = 64,
    reps: int = 2,
    default_gates: int = 1 << 10,
    default_tasks: int = 64,
) -> dict:
    """Serial vs lane-vectorized proving of one ``lanes``-task batch.

    Measures best-of-``reps`` wall time for ``serial`` and for
    ``lanes:<lanes>`` on the same distinct-witness batch, asserts the
    laned proofs are byte-identical to serial lane for lane, and
    reports ``lane_speedup`` — the metric the registered
    ``lane_speedup >= 2.0`` guard watches in CI.  A second batch of
    ``default_tasks`` tasks at ``default_gates`` gates runs the *default*
    ``BatchProver.prove_all`` against ``backend="serial"`` and reports
    ``default_over_serial`` (guard ``>= 1.8``).
    """
    from ..execution import resolve_backend

    _, spec, task_list = _setup_distinct_tasks(gates, lanes)

    def best_of(selector: str):
        # A fresh backend per repetition, as a one-shot caller pays it.
        return _best_wall(
            lambda: resolve_backend(selector).prove_tasks(spec, task_list)[0],
            reps,
        )

    serial_seconds, serial_wire = best_of("serial")
    laned_seconds, laned_wire = best_of(f"lanes:{lanes}")
    assert laned_wire == serial_wire, (
        "laned proofs diverged from serial bytes"
    )
    return {
        "gates": gates,
        "lanes": lanes,
        "reps": reps,
        "serial_seconds": serial_seconds,
        "laned_seconds": laned_seconds,
        "lane_speedup": serial_seconds / laned_seconds,
        "serial_throughput": lanes / serial_seconds,
        "laned_throughput": lanes / laned_seconds,
        "byte_identical": True,
        "proof_bytes": len(laned_wire[0]),
        **_default_over_serial(default_gates, default_tasks, reps),
    }


# -- stage-pipelined executor (S27) --------------------------------------------


def _measure_backend(selector: str, spec, task_list):
    """One fresh backend run: wall seconds, throughput, wire bytes.

    A fresh backend per measurement charges the pipelined warmup slice
    (and the pool's worker startup) to every batch size — the honest
    cold-start comparison."""
    from ..execution import resolve_backend

    backend = resolve_backend(selector)
    start = time.perf_counter()
    proofs, stats = backend.prove_tasks(spec, task_list)
    seconds = time.perf_counter() - start
    wire = [serialize_proof(p, DEFAULT_FIELD) for p in proofs]
    return {
        "seconds": seconds,
        "throughput": len(task_list) / seconds,
        "workers": stats.workers,
    }, wire


def run_pipeline_sweep(
    gates: int = 384,
    workers: int = 2,
    batches: Sequence[int] = (4, 8, 16, 32),
) -> dict:
    """Batch-size sweep of serial vs pool:W vs pipelined:W.

    Asserts byte parity of every backend against serial at every batch
    size, and reports the smallest batch where the pipeline matches the
    pool (``crossover_vs_pool``) and serial (``crossover_vs_serial``).
    ``final_ratio_vs_pool`` — pipelined/pool throughput at the largest
    batch — is the metric the ``min_ratio`` guard watches."""
    rows = []
    crossover_pool: Optional[int] = None
    crossover_serial: Optional[int] = None
    for batch in batches:
        _, _, spec, task_list = _setup_tasks(gates, batch)
        serial_row, serial_wire = _measure_backend("serial", spec, task_list)
        pool_row, pool_wire = _measure_backend(
            f"pool:{workers}", spec, task_list
        )
        pipe_row, pipe_wire = _measure_backend(
            f"pipelined:{workers}", spec, task_list
        )
        assert pool_wire == serial_wire, "pool changed the proof bytes"
        assert pipe_wire == serial_wire, "pipeline changed the proof bytes"
        row = {
            "batch": batch,
            "serial": serial_row,
            f"pool:{workers}": pool_row,
            f"pipelined:{workers}": pipe_row,
            "byte_identical": True,
        }
        rows.append(row)
        if (
            crossover_pool is None
            and pipe_row["throughput"] >= pool_row["throughput"]
        ):
            crossover_pool = batch
        if (
            crossover_serial is None
            and pipe_row["throughput"] >= serial_row["throughput"]
        ):
            crossover_serial = batch
    last = rows[-1]
    return {
        "gates": gates,
        "workers": workers,
        "host_cores": os.cpu_count() or 1,
        "rows": rows,
        "crossover_vs_pool": crossover_pool,
        "crossover_vs_serial": crossover_serial,
        "final_ratio_vs_pool": (
            last[f"pipelined:{workers}"]["throughput"]
            / last[f"pool:{workers}"]["throughput"]
        ),
    }


# -- distributed cluster (S28) -------------------------------------------------


def _measure_fleet(n_nodes: int, spec, task_list):
    """Throughput of a fresh ``n_nodes``-strong fleet on one batch."""
    from ..cluster import NodePool
    from ..execution import resolve_backend

    pool = NodePool(backend="serial")
    try:
        pool.scale_to(n_nodes)
        backend = resolve_backend(pool.cluster_selector())
        # Warm the fleet's caches out-of-band: the steady state the ring
        # routing maintains is what we are measuring, not cold setup.
        backend.prove_tasks(spec, task_list[:n_nodes])
        start = time.perf_counter()
        proofs, stats = backend.prove_tasks(spec, task_list)
        seconds = time.perf_counter() - start
        affinity = backend.cluster_stats()["cache_affinity"]
        backend.close()
    finally:
        pool.close()
    wire = [serialize_proof(p, DEFAULT_FIELD) for p in proofs]
    return {
        "nodes": n_nodes,
        "seconds": seconds,
        "throughput_per_s": len(task_list) / seconds,
        "workers": stats.workers,
        "cache_affinity": affinity["hit_rate"],
    }, wire


def run_cluster_scaleout(
    gates: int = 256, batches: Sequence[int] = (8, 16, 32)
) -> dict:
    """1-node vs 2-node fleets of real node subprocesses.

    Byte parity with serial is asserted per fleet size; the
    ``min_scaling`` guard watches ``scaling_2_over_1`` at the largest
    batch, enforced only on multi-core hosts (precondition on
    ``host_cores``)."""
    from ..execution import SerialBackend

    cores = os.cpu_count() or 1
    results: List[dict] = []
    ratio = None
    for tasks in batches:
        _, _, spec, task_list = _setup_tasks(gates, tasks)
        serial_wire = [
            serialize_proof(p, DEFAULT_FIELD)
            for p in SerialBackend().prove_tasks(spec, task_list)[0]
        ]
        row = {"batch": tasks, "fleets": []}
        for n_nodes in (1, 2):
            fleet, wire = _measure_fleet(n_nodes, spec, task_list)
            assert wire == serial_wire, (
                f"{n_nodes}-node fleet diverged from serial bytes"
            )
            row["fleets"].append(fleet)
        ratio = (
            row["fleets"][1]["throughput_per_s"]
            / row["fleets"][0]["throughput_per_s"]
        )
        row["scaling_2_over_1"] = ratio
        results.append(row)
    return {
        "gates": gates,
        "host_cores": cores,
        "byte_identical_to_serial": True,
        "rows": results,
        "scaling_2_over_1": ratio,
        "final_cache_affinity": results[-1]["fleets"][1]["cache_affinity"],
    }


# -- fleet serving (S30) -------------------------------------------------------


class _Laggard:
    """In-process chaos member: a backend that stalls, but never dies.

    Slowness is the failure mode circuit breakers cannot see — the node
    answers, just late — which is exactly what hedged dispatch exists
    for.  ``stall`` is flipped on after the warm-up phase so the
    coordinator's latency window learns *healthy* timings first.
    """

    def __init__(self, inner, stall_seconds: float = 0.25):
        self.inner = inner
        self.stall_seconds = stall_seconds
        self.stall = False
        self.stalls = 0
        self.name = f"laggard:{inner.name}"
        self.parallelism = getattr(inner, "parallelism", 1)

    def prove_tasks(self, spec, tasks, *, trace=None, parent=None):
        if self.stall:
            self.stalls += 1
            time.sleep(self.stall_seconds)
        return self.inner.prove_tasks(spec, tasks, trace=trace, parent=parent)

    def close(self) -> None:
        close = getattr(self.inner, "close", None)
        if callable(close):
            close()


def _fleet_cell(
    cc,
    spec,
    key,
    *,
    hedge: bool,
    requests: int,
    rate: float,
    stall_seconds: float,
    max_batch: int,
    seed: int,
):
    """One serving run over a 2-member cluster with one laggard.

    Returns (cell payload, wire bytes in event order) so the caller can
    assert hedged and unhedged runs produced identical proofs.
    """
    from ..cluster import ClusterBackend
    from ..execution import SerialBackend
    from ..service import (
        BatchPolicy,
        ProofService,
        RuntimeProofBackend,
        poisson_trace,
        replay,
        task_witness_key,
    )

    laggard = _Laggard(SerialBackend(), stall_seconds=stall_seconds)
    cluster = ClusterBackend(
        [SerialBackend(), laggard],
        hedge=hedge,
        min_hedge_delay_seconds=0.02,
        hedge_min_samples=4,
        hedge_budget_per_second=64.0,
        hedge_budget_burst=32.0,
    )
    # Warm the latency window on healthy timings (stall off): the hedge
    # delay must derive from what a *fast* shard looks like.
    warm = [ProofTask(i, cc.witness, cc.public_values) for i in range(4)]
    for _ in range(3):
        cluster.prove_tasks(spec, warm)
    laggard.stall = True

    backend = RuntimeProofBackend({key: spec}, backend=cluster)
    policy = BatchPolicy(max_batch_size=max_batch)
    events = poisson_trace(requests, rate, seed=seed, duplicate_fraction=0.0)

    def make_request(i):
        task = ProofTask(i, cc.witness, cc.public_values)
        return task, key, task_witness_key(task) + i.to_bytes(4, "little")

    service = ProofService(backend, policy=policy, max_queue=4 * requests)
    start = time.perf_counter()
    tickets, rejected = replay(service, events, make_request)
    service.drain(timeout=600)
    wall = time.perf_counter() - start
    service.close()
    cluster.close()

    proofs = [t.result(timeout=60) for t in tickets if t is not None]
    wire = [serialize_proof(p, DEFAULT_FIELD) for p in proofs]
    verifier = spec.build_verifier()
    stats = service.stats
    return {
        "hedge": hedge,
        "wall_seconds": wall,
        "completed": stats.completed,
        "rejected": rejected,
        "laggard_stalls": laggard.stalls,
        "hedges_issued": cluster.hedges_issued,
        "hedges_won": cluster.hedges_won,
        "hedges_denied": cluster.hedges_denied,
        "p50_ms": stats.p50_latency_seconds * 1e3,
        "p99_ms": stats.p99_latency_seconds * 1e3,
        "verified": all(
            verifier.verify(p, cc.public_values) for p in proofs[:4]
        ),
    }, wire


def run_fleet_serving(
    requests: int = 24,
    rate: float = 150.0,
    gates: int = 96,
    stall_seconds: float = 0.25,
    max_batch: int = 8,
    seed: int = 13,
) -> dict:
    """S30 hedged serving: tail latency with vs without hedged dispatch.

    The same Poisson trace is served twice through identical 2-member
    in-process clusters where one member stalls every batch; the only
    difference is ``hedge=``.  Hedging must keep p99 at or below the
    no-hedge baseline (the ``max_p99_ratio`` guard, multi-core hosts
    only) without changing a single proof byte.
    """
    cc, spec, key = service_setup(gates)
    kwargs = dict(
        requests=requests,
        rate=rate,
        stall_seconds=stall_seconds,
        max_batch=max_batch,
        seed=seed,
    )
    hedged, hedged_wire = _fleet_cell(cc, spec, key, hedge=True, **kwargs)
    unhedged, unhedged_wire = _fleet_cell(cc, spec, key, hedge=False, **kwargs)
    assert hedged_wire == unhedged_wire, "hedging changed the proof bytes"
    ratio = (
        hedged["p99_ms"] / unhedged["p99_ms"]
        if unhedged["p99_ms"] > 0
        else 1.0
    )
    return {
        "requests": requests,
        "rate": rate,
        "gates": gates,
        "stall_seconds": stall_seconds,
        "host_cores": os.cpu_count() or 1,
        "hedged": hedged,
        "unhedged": unhedged,
        "byte_identical": True,
        "all_verified": hedged["verified"] and unhedged["verified"],
        "hedges_issued": hedged["hedges_issued"],
        "hedges_won": hedged["hedges_won"],
        "p99_hedged_ms": hedged["p99_ms"],
        "p99_unhedged_ms": unhedged["p99_ms"],
        "hedge_p99_ratio": ratio,
    }


# -- resilience plane (S25) ----------------------------------------------------


def run_degradation_curve(
    tasks: int = 32,
    rates: Sequence[float] = (0.0, 0.05, 0.1, 0.2, 0.4),
    gates: int = 256,
) -> list:
    """Throughput vs crash rate; every proof must still verify."""
    from ..execution import resolve_backend
    from ..resilience import FaultInjector, apply_fault_plan, split_results

    _, _, spec, task_list = _setup_tasks(gates, tasks)
    verifier = spec.build_verifier()
    rows = []
    for rate in rates:
        backend = resolve_backend("resilient:cluster:serial,serial")
        injector = FaultInjector.from_plan(f"crash:{rate},seed=7")
        apply_fault_plan(backend, injector, min_retries=4)
        start = time.perf_counter()
        results, stats = backend.prove_tasks(spec, task_list)
        seconds = time.perf_counter() - start
        proofs, quarantined = split_results(results)
        assert not quarantined, "crash storms must not quarantine"
        assert verify_all(verifier, [p for _, p in proofs], task_list)
        rstats = backend.last_resilience_stats
        rows.append({
            "rate": rate,
            "seconds": seconds,
            "throughput": len(proofs) / seconds,
            "faults": rstats.total_faults_injected,
            "rounds": rstats.rounds,
        })
    return rows


def run_wrapper_overhead(tasks: int = 32, gates: int = 256) -> dict:
    """Fault-free resilient wrapper vs its bare cluster core."""
    from ..execution import resolve_backend

    _, _, spec, task_list = _setup_tasks(gates, tasks)
    timings = {}
    for selector in (
        "cluster:serial,serial",
        "resilient:cluster:serial,serial",
    ):
        backend = resolve_backend(selector)
        start = time.perf_counter()
        backend.prove_tasks(spec, task_list)
        timings[selector] = time.perf_counter() - start
    bare = timings["cluster:serial,serial"]
    wrapped = timings["resilient:cluster:serial,serial"]
    return {
        "bare_seconds": bare,
        "wrapped_seconds": wrapped,
        "overhead_pct": (wrapped / bare - 1.0) * 100.0,
    }


def run_journal_tax(tasks: int = 32, gates: int = 256) -> dict:
    """Journaling cost per proof, and the resume saving at 100% overlap."""
    from ..execution import resolve_backend
    from ..resilience import journaled_prove

    _, _, spec, task_list = _setup_tasks(gates, tasks)
    backend = resolve_backend("serial")

    start = time.perf_counter()
    backend.prove_tasks(spec, task_list)
    plain = time.perf_counter() - start

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bench.jsonl")
        start = time.perf_counter()
        journaled_prove(backend, spec, task_list, path)
        journaled = time.perf_counter() - start

        start = time.perf_counter()
        _, _, report = journaled_prove(
            backend, spec, task_list, path, resume=True
        )
        resumed = time.perf_counter() - start
        assert report.skipped == len(task_list)

    return {
        "plain_seconds": plain,
        "journaled_seconds": journaled,
        "tax_pct": (journaled / plain - 1.0) * 100.0,
        "resume_seconds": resumed,
        "resume_speedup": plain / resumed if resumed > 0 else float("inf"),
    }


def run_resilience_suite(
    tasks: int = 32,
    rates: Sequence[float] = (0.0, 0.05, 0.1, 0.2, 0.4),
    gates: int = 256,
) -> dict:
    """The three resilience measurements as one payload."""
    curve = run_degradation_curve(tasks=tasks, rates=rates, gates=gates)
    wrapper = run_wrapper_overhead(tasks=tasks, gates=gates)
    journal = run_journal_tax(tasks=tasks, gates=gates)
    return {
        "tasks": tasks,
        "gates": gates,
        "degradation": curve,
        "wrapper": wrapper,
        "journal": journal,
        "fault_free_throughput": curve[0]["throughput"],
        "max_rate_throughput": curve[-1]["throughput"],
        "wrapper_overhead_pct": wrapper["overhead_pct"],
        "journal_tax_pct": journal["tax_pct"],
        "resume_speedup": journal["resume_speedup"],
    }


# -- streaming service (S23) ---------------------------------------------------


def service_setup(gates: int = 96):
    from ..service import spec_key

    cc = random_circuit(DEFAULT_FIELD, gates, seed=9)
    pcs = make_pcs(DEFAULT_FIELD, cc.r1cs, num_col_checks=6)
    prover = SnarkProver(cc.r1cs, pcs, public_indices=cc.public_indices)
    spec = ProverSpec.from_prover(prover)
    return cc, spec, spec_key(spec)


def run_service_cell(
    cc,
    spec,
    key,
    *,
    rate: float,
    requests: int = 64,
    max_batch: int = 16,
    verify_sample: int = 4,
) -> dict:
    """One arrival-rate cell of the service sweep."""
    from ..service import (
        BatchPolicy,
        ProofService,
        RuntimeProofBackend,
        poisson_trace,
        replay,
        task_witness_key,
    )

    backend = RuntimeProofBackend({key: spec})
    policy = BatchPolicy(max_batch_size=max_batch)
    events = poisson_trace(
        requests, rate, seed=int(rate) ^ 17, duplicate_fraction=0.15
    )

    def make_request(i):
        task = ProofTask(i, cc.witness, cc.public_values)
        return task, key, task_witness_key(task) + i.to_bytes(4, "little")

    service = ProofService(backend, policy=policy, max_queue=4 * requests)
    start = time.perf_counter()
    tickets, rejected = replay(service, events, make_request)
    service.drain(timeout=600)
    wall = time.perf_counter() - start
    service.close()

    accepted = [t for t in tickets if t is not None]
    proofs = [t.result(timeout=60) for t in accepted]
    verifier = backend.verifier_for(key)
    verified = all(
        verifier.verify(p, cc.public_values) for p in proofs[:verify_sample]
    )
    stats = service.stats
    return {
        "rate": rate,
        "completed": stats.completed,
        "throughput": stats.completed / wall if wall > 0 else 0.0,
        "mean_batch": stats.mean_batch_size,
        "batches": len(stats.batch_sizes),
        "cache_absorbed": stats.cache_hits + stats.coalesced,
        "p95_ms": stats.p95_latency_seconds * 1e3,
        "deadline_misses": stats.deadline_misses,
        "rejected": rejected,
        "verified": verified,
    }


def run_service_sweep(
    rates: Sequence[float] = (100.0, 400.0),
    requests: int = 64,
    gates: int = 96,
) -> dict:
    """Arrival-rate sweep through the streaming service."""
    cc, spec, key = service_setup(gates)
    cells = [
        run_service_cell(cc, spec, key, rate=rate, requests=requests)
        for rate in rates
    ]
    return {
        "gates": gates,
        "requests": requests,
        "cells": cells,
        "all_verified": all(c["verified"] for c in cells),
        "peak_throughput": max(c["throughput"] for c in cells),
        "max_mean_batch": max(c["mean_batch"] for c in cells),
    }


# -- execution backends (S24) --------------------------------------------------


def run_seam_overhead(tasks: int = 48, gates: int = 384) -> dict:
    """Inline prover.prove loop vs the same loop behind SerialBackend."""
    from ..execution import resolve_backend

    _, prover, spec, task_list = _setup_tasks(gates, tasks)

    inline_start = time.perf_counter()
    inline_proofs = [
        prover.prove(t.witness, t.public_values) for t in task_list
    ]
    inline_seconds = time.perf_counter() - inline_start

    backend = resolve_backend("serial")
    backend.adopt_prover(spec, prover)
    seam_start = time.perf_counter()
    seam_proofs, stats = backend.prove_tasks(spec, task_list)
    seam_seconds = time.perf_counter() - seam_start

    assert len(seam_proofs) == len(inline_proofs)
    assert verify_all(spec.build_verifier(), seam_proofs, task_list)
    return {
        "tasks": tasks,
        "inline_seconds": inline_seconds,
        "seam_seconds": seam_seconds,
        "overhead_pct": (seam_seconds / inline_seconds - 1.0) * 100.0,
        "throughput": stats.throughput_per_second,
    }


def run_composition(
    tasks: int = 48, workers: int = 2, gates: int = 384
) -> dict:
    """One pool vs two concurrent pools behind one cluster."""
    from ..execution import resolve_backend

    _, _, spec, task_list = _setup_tasks(gates, tasks)
    rows = {}
    for selector in (
        f"pool:{workers}",
        f"cluster:pool:{workers},pool:{workers}",
    ):
        backend = resolve_backend(selector)
        start = time.perf_counter()
        proofs, stats = backend.prove_tasks(spec, task_list)
        seconds = time.perf_counter() - start
        assert verify_all(spec.build_verifier(), proofs, task_list)
        rows[selector] = {
            "seconds": seconds,
            "throughput": stats.throughput_per_second,
            "workers": stats.workers,
        }
    return rows


def run_backend_suite(
    tasks: int = 48, workers: Optional[int] = None, gates: int = 384
) -> dict:
    """Seam overhead plus cluster composition as one payload."""
    cores = os.cpu_count() or 1
    workers = min(4 if workers is None else max(1, workers), cores)
    seam = run_seam_overhead(tasks=tasks, gates=gates)
    composition = run_composition(tasks=tasks, workers=workers, gates=gates)
    pool_key = f"pool:{workers}"
    cluster_key = f"cluster:pool:{workers},pool:{workers}"
    return {
        "tasks": tasks,
        "workers": workers,
        "host_cores": cores,
        "seam": seam,
        "composition": composition,
        "seam_overhead_pct": seam["overhead_pct"],
        "pool_throughput": composition[pool_key]["throughput"],
        "cluster_throughput": composition[cluster_key]["throughput"],
    }


# -- parallel runtime (S22) ----------------------------------------------------


def _runtime_setup(gates: int, tasks: int) -> Tuple[SnarkProver, list]:
    cc = random_circuit(DEFAULT_FIELD, gates, seed=5)
    pcs = make_pcs(DEFAULT_FIELD, cc.r1cs, num_col_checks=6)
    prover = SnarkProver(cc.r1cs, pcs, public_indices=cc.public_indices)
    task_list = [
        ProofTask(i, cc.witness, cc.public_values) for i in range(tasks)
    ]
    return prover, task_list


def crash_first_attempts(task_id: int, attempt: int) -> None:
    """Injected fault: tasks 3 and 17 die on their first attempt."""
    if task_id in (3, 17) and attempt == 1:
        raise RuntimeError(f"injected worker crash on task {task_id}")


def run_scaling(
    tasks: int = 48, workers: int = 4, gates: int = 384
) -> dict:
    """Serial vs pooled throughput on the same batch."""
    prover, task_list = _runtime_setup(gates, tasks)
    spec = ProverSpec.from_prover(prover)

    serial_start = time.perf_counter()
    serial_proofs, serial_stats = BatchProver(prover).prove_all(
        task_list, backend="serial"
    )
    serial_seconds = time.perf_counter() - serial_start

    runtime = ParallelProvingRuntime(spec, workers=workers, chunk_size=2)
    parallel_start = time.perf_counter()
    parallel_proofs, parallel_stats = runtime.prove_tasks(task_list)
    parallel_seconds = time.perf_counter() - parallel_start

    verifier = spec.build_verifier()
    assert verify_all(verifier, serial_proofs, task_list)
    assert verify_all(verifier, parallel_proofs, task_list)
    return {
        "tasks": tasks,
        "workers": workers,
        "serial_seconds": serial_seconds,
        "serial_throughput": serial_stats.throughput_per_second,
        "parallel_seconds": parallel_seconds,
        "parallel_throughput": parallel_stats.throughput_per_second,
        "speedup": serial_seconds / parallel_seconds,
        "utilization": parallel_stats.worker_utilization,
        "p95_latency_ms": parallel_stats.p95_latency_seconds * 1e3,
    }


def run_crash_recovery(
    tasks: int = 48, workers: int = 4, gates: int = 384
) -> dict:
    """A crashing worker mid-batch must not cost any proofs."""
    prover, task_list = _runtime_setup(gates, tasks)
    spec = ProverSpec.from_prover(prover)
    runtime = ParallelProvingRuntime(
        spec, workers=workers, fault_injector=crash_first_attempts
    )
    proofs, stats = runtime.prove_tasks(task_list)
    complete = len(proofs) == len(task_list)
    verified = verify_all(spec.build_verifier(), proofs, task_list)
    return {
        "complete": complete,
        "verified": verified,
        "retries": stats.retries,
        "throughput": stats.throughput_per_second,
    }


def run_runtime_suite(
    tasks: int = 48, workers: Optional[int] = None, gates: int = 384
) -> dict:
    """Scaling and crash-recovery measurements as one payload."""
    cores = os.cpu_count() or 1
    workers = min(4 if workers is None else max(1, workers), cores)
    scaling = run_scaling(tasks=tasks, workers=workers, gates=gates)
    recovery = run_crash_recovery(tasks=tasks, workers=workers, gates=gates)
    return {
        "tasks": tasks,
        "workers": workers,
        "host_cores": cores,
        "scaling": scaling,
        "recovery": recovery,
        "speedup": scaling["speedup"],
        "utilization": scaling["utilization"],
        "recovery_ok": 1.0
        if (recovery["complete"] and recovery["verified"])
        else 0.0,
    }
