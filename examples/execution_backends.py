#!/usr/bin/env python3
"""Execution backends: one proving batch, three interchangeable substrates.

BatchZK's system half treats execution resources as interchangeable: the
same task stream can fill one device, a pool of them, or a cluster.
The functional counterpart is `repro.execution`: every proving entry
point runs behind one `ProvingBackend` seam, and operators pick the
substrate with a selector string.  This example proves one batch on

1. `serial`                 — in-process, the reference oracle,
2. `pool:N`                 — the retrying process-pool runtime,
3. `cluster:pool:N,serial`  — two concurrent members, tasks split
                              proportionally to their parallelism,

shows the proofs are byte-identical across all three, and then replays
a correlated JSONL trace to reconstruct one task's span lineage.

Run:  PYTHONPATH=src python examples/execution_backends.py
"""

import io
import os

from repro.core import (
    ProofTask,
    SnarkProver,
    make_pcs,
    random_circuit,
    verify_all,
)
from repro.core.serialize import serialize_proof
from repro.execution import load_trace, resolve_backend, span_index
from repro.field import DEFAULT_FIELD
from repro.runtime import JsonlTraceSink, ProverSpec

GATES = 96
TASKS = 10


def main() -> None:
    workers = min(2, os.cpu_count() or 1)
    cc = random_circuit(DEFAULT_FIELD, GATES, seed=21)
    pcs = make_pcs(DEFAULT_FIELD, cc.r1cs, num_col_checks=6)
    prover = SnarkProver(cc.r1cs, pcs, public_indices=cc.public_indices)
    spec = ProverSpec.from_prover(prover)
    verifier = spec.build_verifier()
    tasks = [ProofTask(i, cc.witness, cc.public_values) for i in range(TASKS)]

    selectors = ["serial", f"pool:{workers}", f"cluster:pool:{workers},serial"]
    wire_by_selector = {}
    for selector in selectors:
        backend = resolve_backend(selector)
        proofs, stats = backend.prove_tasks(spec, tasks)
        ok = verify_all(verifier, proofs, tasks)
        wire_by_selector[selector] = [
            serialize_proof(p, DEFAULT_FIELD) for p in proofs
        ]
        print(
            f"{selector:24s} {stats.proofs_generated:3d} proofs in "
            f"{stats.total_seconds * 1e3:7.1f} ms "
            f"({stats.workers} worker(s)), verify: {ok}"
        )

    reference = wire_by_selector["serial"]
    identical = all(wire == reference for wire in wire_by_selector.values())
    print(f"\nbyte-identical proofs across all backends: {identical}")

    print("\n=== Correlated trace (cluster run) ===")
    buffer = io.StringIO()
    sink = JsonlTraceSink(buffer)
    cluster = resolve_backend(f"cluster:pool:{workers},serial")
    cluster.prove_tasks(spec, tasks, trace=sink)
    events = load_trace(buffer.getvalue().splitlines())
    nodes = span_index(events)
    roots = [n for n in nodes.values() if n.parent not in nodes]
    print(f"{len(events)} events, {len(nodes)} spans")
    for root in roots:
        print(f"  {root.kind:8s} {root.span}")
        for child in root.children:
            node = nodes[child]
            print(
                f"    {node.kind:8s} {node.span} "
                f"({len(node.children)} child span(s))"
            )


if __name__ == "__main__":
    main()
