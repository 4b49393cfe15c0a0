"""Rate-proportional work splitting.

The cluster coordinator (:class:`~repro.cluster.ClusterBackend`) splits
a task list across its admitted members by parallelism, and re-splits
the orphaned tasks across the members still healthy; the ``pipelined:``
planner gives spare workers to the heaviest stages.  Both place work
with :func:`largest_remainder_shares`.
"""

from __future__ import annotations

from typing import List, Sequence

from ..errors import ExecutionError


def largest_remainder_shares(
    total: int, weights: Sequence[float]
) -> List[int]:
    """Split ``total`` units into integer shares proportional to ``weights``.

    Largest-remainder rounding: floors first, then each leftover unit
    goes to the entry with the largest fractional share (ties broken
    toward earlier entries), so shares always sum to ``total`` and no
    entry is more than one unit above its exact proportion.  All-zero
    (or degenerate non-positive) weights fall back to an even split
    rather than dividing by zero.

    >>> largest_remainder_shares(10, [3.0, 1.0])
    [8, 2]
    >>> largest_remainder_shares(5, [0.0, 0.0])
    [3, 2]
    """
    if total < 0:
        raise ExecutionError(f"cannot split a negative total: {total}")
    if not weights:
        raise ExecutionError("need at least one weight to split over")
    if any(w < 0 for w in weights):
        raise ExecutionError(f"weights must be non-negative, got {list(weights)}")
    scaled = [float(w) for w in weights]
    total_weight = sum(scaled)
    if total_weight <= 0:
        scaled = [1.0] * len(scaled)
        total_weight = float(len(scaled))
    raw = [total * w / total_weight for w in scaled]
    shares = [int(x) for x in raw]
    remainder = total - sum(shares)
    order = sorted(
        range(len(raw)), key=lambda i: raw[i] - int(raw[i]), reverse=True
    )
    for i in range(remainder):
        shares[order[i % len(order)]] += 1
    return shares
