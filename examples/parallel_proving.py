#!/usr/bin/env python3
"""Parallel proving runtime: fill every CPU core with real proofs.

The paper's system keeps a GPU's SMs busy with a pipelined kernel
schedule; the functional half of this repository has the same problem one
level up — a stream of independent proof tasks and a host with idle
cores.  This example runs the same batch three ways:

1. serial `BatchProver.prove_all` (the baseline),
2. the process-pool runtime via `prove_all(tasks, backend="pool:N")`,
3. the runtime directly, with a fault injector crashing a task's first
   attempt to show retry-with-backoff absorbing worker failures.

Run:  PYTHONPATH=src python examples/parallel_proving.py
"""

import os

from repro.core import (
    BatchProver,
    ProofTask,
    SnarkProver,
    make_pcs,
    random_circuit,
    verify_all,
)
from repro.field import DEFAULT_FIELD
from repro.runtime import ParallelProvingRuntime, ProverSpec

GATES = 128
TASKS = 16


def crash_once(task_id: int, attempt: int) -> None:
    """Simulated infrastructure failure: task 5's first attempt dies."""
    if task_id == 5 and attempt == 1:
        raise RuntimeError("simulated worker crash")


def main() -> None:
    workers = min(4, os.cpu_count() or 1)
    cc = random_circuit(DEFAULT_FIELD, GATES, seed=11)
    pcs = make_pcs(DEFAULT_FIELD, cc.r1cs, num_col_checks=6)
    prover = SnarkProver(cc.r1cs, pcs, public_indices=cc.public_indices)
    spec = ProverSpec.from_prover(prover)
    verifier = spec.build_verifier()
    tasks = [ProofTask(i, cc.witness, cc.public_values) for i in range(TASKS)]

    print(f"=== Serial baseline ({TASKS} tasks, S = {GATES}) ===")
    batch = BatchProver(prover)
    proofs, stats = batch.prove_all(tasks, backend="serial")
    print(f"  {stats.throughput_per_second:.1f} proofs/s, "
          f"all verify: {verify_all(verifier, proofs, tasks)}\n")

    selector = f"pool:{workers}"
    print(f"=== BatchProver with backend={selector!r} ===")
    proofs, stats = batch.prove_all(tasks, backend=selector)
    print(f"  {stats.throughput_per_second:.1f} proofs/s, "
          f"all verify: {verify_all(verifier, proofs, tasks)}")
    if batch.last_runtime_stats is not None:
        print("  -- runtime report --")
        for line in batch.last_runtime_stats.report().splitlines():
            print(f"  {line}")
    print()

    print("=== Runtime with an injected worker crash ===")
    runtime = ParallelProvingRuntime(
        spec, workers=workers, fault_injector=crash_once
    )
    proofs, rstats = runtime.prove_tasks(tasks)
    print(f"  retries: {rstats.retries}, proofs: {rstats.proofs_generated}, "
          f"all verify: {verify_all(verifier, proofs, tasks)}")
    assert rstats.retries >= 1


if __name__ == "__main__":
    main()
