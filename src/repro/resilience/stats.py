"""Resilience observability: what broke, what the layer did about it.

:class:`~repro.runtime.RuntimeStats` reports how fast a run went;
:class:`ResilienceStats` reports how *rough* it was and how the layer
absorbed it: faults injected (from the local
:class:`~repro.resilience.FaultInjector` counters), child-call failures,
quarantines, and verify-and-re-prove corrections.  Node failovers and
breaker transitions are the cluster's to report
(:meth:`~repro.cluster.ClusterBackend.cluster_stats` and its
``ring_rebalance``/``breaker`` trace events).  One instance is produced per
:meth:`~repro.resilience.ResilientBackend.prove_tasks` run (exposed as
``last_resilience_stats``) and accumulated into the backend's lifetime
``resilience_stats``, mirroring how runtime stats ride alongside proofs.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Dict


@dataclass
class ResilienceStats:
    """Aggregate fault/recovery counters for one (or many) resilient runs."""

    #: Faults injected by this process's injector copy, by kind (worker
    #: processes keep their own counters; see FaultInjector docs).
    faults_injected: Dict[str, int] = dc_field(default_factory=dict)
    #: Child calls that failed (a crash-through, a poisoned task, ...).
    child_failures: int = 0
    #: Tasks surfaced as QuarantinedTaskError instead of proofs.
    quarantined: int = 0
    #: Proofs that failed verify_on_return and were proved again.
    re_proves: int = 0
    #: Dispatch rounds the run needed (1 = no failures anywhere).
    rounds: int = 0

    # -- recording -------------------------------------------------------------

    def record_fault(self, kind: str, count: int = 1) -> None:
        self.faults_injected[kind] = (
            self.faults_injected.get(kind, 0) + count
        )

    def merge(self, other: "ResilienceStats") -> None:
        """Fold another report into this one (lifetime accumulation)."""
        for kind, count in other.faults_injected.items():
            self.record_fault(kind, count)
        self.child_failures += other.child_failures
        self.quarantined += other.quarantined
        self.re_proves += other.re_proves
        self.rounds += other.rounds

    # -- aggregates ------------------------------------------------------------

    @property
    def total_faults_injected(self) -> int:
        return sum(self.faults_injected.values())

    # -- presentation ----------------------------------------------------------

    def report(self) -> str:
        """A human-readable block to print beside RuntimeStats.report()."""
        injected = (
            ", ".join(
                f"{kind}={count}"
                for kind, count in sorted(self.faults_injected.items())
            )
            or "none"
        )
        lines = [
            f"faults injected : {injected}",
            f"child failures  : {self.child_failures} "
            f"(over {self.rounds} dispatch rounds)",
            f"quarantined     : {self.quarantined}",
            f"re-proves       : {self.re_proves}",
        ]
        return "\n".join(lines)
