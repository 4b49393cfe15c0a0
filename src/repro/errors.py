"""Exception hierarchy for the BatchZK reproduction library.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still being able to discriminate by subsystem.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` package."""


class FieldError(ReproError):
    """Invalid field construction or cross-field operation."""


class FieldMismatchError(FieldError):
    """Two elements from different fields were combined."""

    def __init__(self, left: object, right: object) -> None:
        super().__init__(
            f"cannot combine elements of different fields: {left!r} vs {right!r}"
        )


class NonInvertibleError(FieldError):
    """Attempted to invert zero (or a non-unit)."""


class HashError(ReproError):
    """Malformed input to a hash primitive."""


class MerkleError(ReproError):
    """Invalid Merkle tree construction or proof."""


class SumcheckError(ReproError):
    """Sum-check proving/verification failure."""


class EncodingError(ReproError):
    """Linear-time encoder failure (bad parameters, wrong lengths)."""


class CommitmentError(ReproError):
    """Polynomial-commitment failure (commit/open/verify)."""


class CircuitError(ReproError):
    """Arithmetic-circuit construction or evaluation failure."""


class ProofError(ReproError):
    """Proof assembly or deserialization failure."""


class SimulationError(ReproError):
    """GPU-simulator misconfiguration or invariant violation."""


class PipelineError(ReproError):
    """Pipeline scheduler misconfiguration."""


class ZkmlError(ReproError):
    """Verifiable-ML application failure."""


class ExecutionError(ReproError):
    """Proving-backend misconfiguration (unknown selector, bad composition)."""


class ResilienceError(ReproError):
    """Resilience-layer failure (fault plan, breaker, journal misuse)."""


class InjectedFault(ResilienceError):
    """A deliberately injected failure from a :class:`FaultInjector`.

    Distinguishable from organic failures so chaos drills can assert that
    every observed failure was one the plan scheduled.  ``kind`` names the
    fault class (``"crash"``, ``"outage"``, …).
    """

    def __init__(self, kind: str, detail: str = "") -> None:
        self.kind = kind
        message = f"injected fault: {kind}"
        if detail:
            message += f" ({detail})"
        super().__init__(message)


class BackendUnavailableError(ResilienceError):
    """A backend cannot take work right now (outage or breaker)."""


class PartialBatchError(ResilienceError):
    """Some tasks of a batch failed; the others' proofs came back.

    Raised by :class:`~repro.cluster.ClusterBackend` when a shard fails
    for a reason other than unavailability while other shards finish:
    :attr:`results` is in task order with ``None`` in each failed task's
    slot, :attr:`stats` covers the finished shards, and ``__cause__`` is
    the first shard failure.  :class:`~repro.resilience.ResilientBackend`
    retries only the ``None`` slots.
    """

    def __init__(self, results: list, stats, cause: BaseException) -> None:
        self.results = list(results)
        self.stats = stats
        failed = sum(1 for r in self.results if r is None)
        super().__init__(
            f"{failed} of {len(self.results)} tasks failed: {cause!r}"
        )


class QuarantinedTaskError(ResilienceError):
    """A task failed often enough on its own to be quarantined.

    Returned *in the task's result slot* by
    :class:`~repro.resilience.ResilientBackend` instead of failing the
    whole batch: callers inspect :attr:`task_id`, the backend of each
    failed attempt (:attr:`tried_on`), and the :attr:`last_error` text.
    """

    def __init__(
        self, task_id: int, tried_on: list, last_error: str = ""
    ) -> None:
        self.task_id = task_id
        self.tried_on = list(tried_on)
        self.last_error = last_error
        super().__init__(
            f"task {task_id} quarantined after {len(self.tried_on)} "
            f"failed attempts ({', '.join(self.tried_on)})"
            + (f": {last_error}" if last_error else "")
        )


class JournalError(ResilienceError):
    """Proof-journal corruption or spec mismatch on resume."""


class ClusterError(ReproError):
    """Distributed-cluster failure (protocol, node lifecycle, routing)."""


class ProtocolMismatchError(ClusterError):
    """Node and coordinator disagree on the wire format or library version.

    Raised *before* any payload is deserialized, so a version skew fails
    with a typed, actionable message instead of a pickle explosion deep
    inside the frame decoder.  ``ours``/``theirs`` carry the two sides'
    version spellings when known.
    """

    def __init__(
        self, detail: str, ours: str = "", theirs: str = ""
    ) -> None:
        self.ours = ours
        self.theirs = theirs
        message = f"protocol mismatch: {detail}"
        if ours or theirs:
            message += f" (ours {ours!r}, theirs {theirs!r})"
        super().__init__(message)


class NodeConnectionError(ClusterError):
    """A cluster peer hung up or the stream was cut mid-frame.

    The remote backend translates this into
    :class:`BackendUnavailableError` so the resilience layer treats a
    dead node as a blameless child-level outage.
    """


class ExperimentError(ReproError):
    """Experiment-runner failure (unknown experiment, malformed result,
    ledger misuse)."""


class ServiceError(ReproError):
    """Streaming proof-service failure (submission, lifecycle, tickets)."""


class AdmissionError(ServiceError):
    """A request was rejected at the service door, with a typed reason.

    Admission control turns overload into an immediate, explicit signal
    instead of unbounded queueing: callers inspect :attr:`reason`
    (``"queue_full"``, ``"bulk_shed"``, ``"service_closed"``) and decide
    whether to retry, downgrade, or shed load themselves.

    :attr:`retry_after_seconds` is the service's backoff hint, derived
    from its degradation-ladder state (``None`` when retrying is
    pointless, e.g. the service is closed): a *scaling* fleet suggests a
    short retry because capacity is already being added, while a
    *shedding* one pushes callers further out.
    """

    def __init__(
        self,
        reason: str,
        detail: str = "",
        *,
        retry_after_seconds: "float | None" = None,
    ) -> None:
        self.reason = reason
        self.retry_after_seconds = retry_after_seconds
        message = f"request rejected: {reason}"
        if detail:
            message += f" ({detail})"
        if retry_after_seconds is not None:
            message += f"; retry after {retry_after_seconds:.2f}s"
        super().__init__(message)
