"""Dynamic batch formation: what goes in the next batch.

The paper's pipeline (Fig. 4b) batches whatever work is in flight when
it has room; it never holds work back to wait for more.  The batcher
does the same: it is **work-conserving**.  Whenever it is free it
dispatches the most urgent pending group at once, capped at
``max_batch_size``.  Requests pile up only while a batch is proving, so
the batch size follows the load: light traffic gets batches of one,
heavy traffic gets large ones.

Groups are keyed by circuit digest so every dispatched batch is
*uniform* — it hits the shared-prover-setup fast path
(:class:`~repro.runtime.ProverSpec` built once per batch, as in
:meth:`MlaasService.prove_predictions`).  The group holding the most
urgent request (priority class, then earliest deadline, then arrival)
wins, and members are ordered by the same key inside the batch.

:class:`BatchPolicy` is pure (pending list in, batch out) so the
scheduling behavior is unit-testable without threads;
:class:`DynamicBatcher` is the thread that runs it against the service's
queue and dispatches the selected batches.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from ..errors import ServiceError
from .request import ProofRequest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .service import ProofService


@dataclass(frozen=True)
class BatchPolicy:
    """Which pending requests form the next batch, up to a size cap.

    Args:
        max_batch_size: Hard cap on requests per dispatched batch; a
                        larger group is split across successive batches.
    """

    max_batch_size: int = 16

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ServiceError(
                f"max_batch_size must be >= 1, got {self.max_batch_size}"
            )

    # -- pure scheduling decisions -------------------------------------------

    def group(
        self, pending: Sequence[ProofRequest]
    ) -> Dict[bytes, List[ProofRequest]]:
        """Partition pending requests into uniform circuit-key groups."""
        groups: Dict[bytes, List[ProofRequest]] = defaultdict(list)
        for request in pending:
            groups[request.circuit_key].append(request)
        return dict(groups)

    def select(
        self, pending: Sequence[ProofRequest]
    ) -> Optional[List[ProofRequest]]:
        """The next batch to dispatch, or None if nothing is pending.

        The batch is the most urgent group, deadline-aware ordered
        (priority class first, then earliest deadline, then FIFO) and
        capped at ``max_batch_size``.
        """
        if not pending:
            return None
        chosen = min(
            self.group(pending).values(),
            key=lambda reqs: min(r.urgency() for r in reqs),
        )
        ordered = sorted(chosen, key=ProofRequest.urgency)
        return ordered[: self.max_batch_size]


class DynamicBatcher(threading.Thread):
    """The scheduler thread: waits for work, cuts a batch, dispatches.

    Dispatch runs *on this thread*, synchronously — so whenever the loop
    reaches :meth:`BatchPolicy.select`, no batch of this service is in
    flight and any pending group is ready to go.  While a batch proves,
    arrivals accumulate, so the next batch is naturally larger under
    load.  That is the dynamic-batching feedback loop: light traffic gets
    small low-latency batches, heavy traffic gets big efficient ones.
    """

    def __init__(self, service: "ProofService", policy: BatchPolicy):
        super().__init__(name="repro-batcher", daemon=True)
        self.service = service
        self.policy = policy

    def run(self) -> None:  # pragma: no cover - exercised via ProofService
        service = self.service
        while True:
            with service._cond:
                while True:
                    batch = self.policy.select(service._pending)
                    if batch is not None:
                        for request in batch:
                            service._pending.remove(request)
                        service._active_batches += 1
                        break
                    if service._closing:
                        return
                    service._cond.wait()
            try:
                service._dispatch(batch)
            except Exception as exc:  # noqa: BLE001 - thread must survive
                # A bug (or injected chaos) escaping _dispatch must not
                # kill the scheduler: fail this batch's tickets, keep
                # serving the queue.
                service._batcher_error(batch, exc)
            finally:
                with service._cond:
                    service._active_batches -= 1
                    service._cond.notify_all()
