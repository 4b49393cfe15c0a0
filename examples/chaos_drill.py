#!/usr/bin/env python3
"""Chaos drill: seeded faults in, verified proofs out.

A proving farm earns trust by rehearsing failure, not by avoiding it.
This drill runs one batch through the S25 resilience stack —
`resilient:cluster:serial,serial` — under a deterministic fault plan
that schedules

* a 15% per-attempt worker crash rate,
* a 5% proof-corruption rate (caught by verify-on-return, re-proved),
* one forced outage of cluster member 0 on its first call (the cluster
  fails its tasks over to member 1), and
* one poison task that crashes on every attempt (quarantined, typed),

then shows that every non-quarantined proof is byte-identical to a
fault-free run, and finishes with a crash-safe journal demo: kill a run
mid-batch, resume it, and re-prove nothing that already finished.

Run:  PYTHONPATH=src python examples/chaos_drill.py
"""

import os
import tempfile

from repro.core import (
    CircuitBuilder,
    ProofTask,
    SnarkProver,
    compile_builder,
    make_pcs,
    random_circuit,
)
from repro.core.serialize import serialize_proof
from repro.errors import QuarantinedTaskError
from repro.execution import SerialBackend, resolve_backend
from repro.field import DEFAULT_FIELD
from repro.resilience import (
    FaultInjector,
    ResilientBackend,
    apply_fault_plan,
    journaled_prove,
    split_results,
)
from repro.runtime import ProverSpec

GATES = 96
TASKS = 12
PLAN = "crash:0.15,corrupt:0.05,down=0@0x1,poison=5,seed=7"


def main() -> None:
    cc = random_circuit(DEFAULT_FIELD, GATES, seed=21)
    pcs = make_pcs(DEFAULT_FIELD, cc.r1cs, num_col_checks=6)
    prover = SnarkProver(cc.r1cs, pcs, public_indices=cc.public_indices)
    spec = ProverSpec.from_prover(prover)
    verifier = spec.build_verifier()
    tasks = [ProofTask(i, cc.witness, cc.public_values) for i in range(TASKS)]

    # The oracle: the same batch with no chaos at all.
    clean, _ = SerialBackend().prove_tasks(spec, tasks)
    clean_wire = [serialize_proof(p, DEFAULT_FIELD) for p in clean]

    # The drill: same batch, full fault plan, resilient substrate.
    backend = ResilientBackend(
        resolve_backend("cluster:serial,serial"),
        verify_on_return=True,  # corruption plan => check every proof
    )
    injector = FaultInjector.from_plan(PLAN)
    apply_fault_plan(backend, injector, min_retries=3)
    print(f"fault plan : {PLAN}")
    results, stats = backend.prove_tasks(spec, tasks)

    proofs, quarantined = split_results(results)
    ok = all(
        verifier.verify(proof, tasks[index].public_values)
        for index, proof in proofs
    )
    identical = all(
        serialize_proof(proof, DEFAULT_FIELD) == clean_wire[index]
        for index, proof in proofs
    )
    print(f"proofs     : {len(proofs)}/{TASKS} verified={ok} "
          f"byte-identical-to-fault-free={identical}")
    for verdict in quarantined:
        assert isinstance(verdict, QuarantinedTaskError)
        print(f"quarantine : {verdict}")
    print("\n" + backend.last_resilience_stats.report())
    for member in backend.child.members:
        print(f"health     : {member.health.summary()}")

    # The journal: kill a run after 4 tasks, then resume it.  The
    # journal is content-addressed (circuit + witness + publics), so the
    # demo needs tasks with *distinct* witnesses: one product circuit,
    # built once per input vector.
    print("\ncrash-safe journal")
    built = []
    for t in range(TASKS):
        cb = CircuitBuilder(DEFAULT_FIELD)
        wires = cb.private_inputs([t * 5 + k + 1 for k in range(5)])
        acc = wires[0]
        for wire in wires[1:]:
            acc = cb.mul(acc, wire)
        cb.expose_public(acc)
        built.append(compile_builder(cb))
    j0 = built[0]
    jpcs = make_pcs(DEFAULT_FIELD, j0.r1cs, num_col_checks=6)
    jspec = ProverSpec.from_prover(
        SnarkProver(j0.r1cs, jpcs, public_indices=j0.public_indices)
    )
    jtasks = [
        ProofTask(i, b.witness, b.public_values)
        for i, b in enumerate(built)
    ]
    jclean, _ = SerialBackend().prove_tasks(jspec, jtasks)
    jclean_wire = [serialize_proof(p, DEFAULT_FIELD) for p in jclean]

    class DiesAfter:
        def __init__(self, inner, survive):
            self.inner, self.survive, self.calls = inner, survive, 0

        def prove_tasks(self, spec, batch, **kwargs):
            if self.calls >= self.survive:
                raise RuntimeError("simulated power loss")
            self.calls += 1
            return self.inner.prove_tasks(spec, batch, **kwargs)

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "drill.jsonl")
        try:
            journaled_prove(
                DiesAfter(SerialBackend(), survive=4), jspec, jtasks, path,
                checkpoint_every=1,
            )
        except RuntimeError as exc:
            print(f"first run  : died ({exc}) with 4 proofs journaled")
        resumed, _, report = journaled_prove(
            SerialBackend(), jspec, jtasks, path, resume=True
        )
        print(f"resume     : {report.summary()}")
        assert report.skipped == 4 and report.proved == TASKS - 4
        assert [
            serialize_proof(p, DEFAULT_FIELD) for p in resumed
        ] == jclean_wire
        print("resume     : results byte-identical to the fault-free run")


if __name__ == "__main__":
    main()
