"""Resilience layer (system S25 in DESIGN.md): chaos in, proofs out.

BatchZK's pipeline is only as strong as its weakest worker: one dead
pool, one flaky device, one poisoned witness can sink a whole batch.
This package makes failure a first-class, *testable* input:

* :class:`FaultPlan` / :class:`FaultInjector` — a deterministic, seeded
  chaos plane.  A plan like ``"crash:0.1,corrupt:0.02,seed=7"`` injects
  worker crashes, slow tasks, corrupted proof bytes, transient child
  outages, and pool deaths at exact, reproducible points (pure hashes of
  the seed and the event identity — the same plan replays the same
  faults, even across worker processes).
* :class:`ResilientBackend` — a :class:`~repro.execution.ProvingBackend`
  that wraps exactly one child, splits a failed group into singletons,
  quarantines poison tasks as typed
  :class:`~repro.errors.QuarantinedTaskError` results instead of sinking
  the batch, and can verify-and-re-prove corrupted proofs before
  returning them.  Selector: ``resilient:cluster:pool:2,pool:2``, where
  the cluster (:mod:`repro.cluster`) owns node failover behind
  per-member :class:`CircuitBreaker` + :class:`HealthTracker`
  (DESIGN decision 28).
* :class:`ProofJournal` / :func:`journaled_prove` — a crash-safe JSONL
  write-ahead journal so ``prove --journal out.jsonl --resume`` after a
  mid-batch kill re-proves zero completed tasks.
"""

from .backend import ResilientBackend, split_results
from .faults import (
    FaultInjector,
    FaultPlan,
    apply_fault_plan,
)
from .health import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    HealthTracker,
)
from .journal import (
    JournalReport,
    ProofJournal,
    journaled_prove,
    task_key,
)
from .stats import ResilienceStats

__apidoc__ = """\
**The chaos plane.** `FaultPlan.parse("crash:0.1,corrupt:0.02,seed=7")`
builds a seeded plan; `FaultInjector(plan)` turns it into hooks:
a worker-side callable (crashes, slowdowns, pool deaths, per-task
poison), `maybe_corrupt` (flips a commitment byte in returned proofs),
`check_outage` (cluster-member `BackendUnavailableError` windows,
including a forced `down=MEMBER@CALL×N` window, fired by
`ClusterBackend` before each member attempt), and `on_batch_dispatch`
(service batch faults).  Every decision is a pure hash of `(seed, kind,
identity)` — rerunning the same plan injects the same faults, and
retries with a new attempt number roll fresh.  `apply_fault_plan(
backend, injector)` walks a backend tree and installs the hooks on
every layer that accepts them.

**Task discipline.** `ResilientBackend(child)` implements
`prove_tasks` over exactly one child backend.  A failed group is
re-dispatched as singletons for exact attribution; a task whose
singleton calls fail `QUARANTINE_THRESHOLD` (2) times comes back as a
`QuarantinedTaskError` result slot — the other tasks' proofs still
arrive.  `split_results(results)` partitions the mixed result list.
With `verify_on_return=True` each proof is verified (and re-proved up
to `MAX_REPROVES` times) before return.  A `BackendUnavailableError`
from the child propagates: node failover, breakers and the wait for an
admissible node are `ClusterBackend`'s (`resilient:cluster:...`).  A
per-run `ResilienceStats` (`last_resilience_stats`) counts faults,
child failures, quarantines and re-proves.

**Breakers.** `CircuitBreaker` (closed → open after a failure streak →
half-open probe after a cooldown) and the `HealthTracker` ledger are
the state machines the cluster keeps per member.

**The journal.** `journaled_prove(backend, spec, tasks, path,
resume=True)` write-ahead-logs each completed proof (fsync per entry,
content-addressed by circuit digest + witness + publics) and on resume
deserializes already-proven tasks from the journal instead of proving
them; a torn final line from a mid-write kill is tolerated and
reported.  CLI: `python -m repro prove --journal out.jsonl --resume`.
"""

__all__ = [
    "CLOSED",
    "CircuitBreaker",
    "FaultInjector",
    "FaultPlan",
    "HALF_OPEN",
    "HealthTracker",
    "JournalReport",
    "OPEN",
    "ProofJournal",
    "ResilienceStats",
    "ResilientBackend",
    "apply_fault_plan",
    "journaled_prove",
    "split_results",
    "task_key",
]
